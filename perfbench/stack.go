package main

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// caID is the one RITM CA the benchmark runs under.
const caID = dictionary.CAID("PERFBENCH-CA")

// delta is ∆, the CA freshness period and the RAs' staleness unit.
const delta = time.Second

// layout is the dictionary commitment layout of every replica.
var layout = dictionary.LayoutForest

// edgeTTL is the edge cache TTL, shorter than the ∆/2 control-plane tick.
// A pull keyed (CA, count) is repeated by the next tick whenever the tick
// in between carried no revocation; with a TTL of ∆/2 that repeat could be
// answered from the previous tick's cache entry, leaving the RAs a whole
// tick behind, and RITM clients then rejected statuses as older than 2∆.
const edgeTTL = delta / 4

// fsync is the writer RA's WAL sync-on-append setting. Off: flush time on
// a shared virtual disk is not a property of the program.
const fsync = false

// Serial namespaces: each kind of key the benchmark revokes or probes is
// drawn from its own 9-byte space, so no two kinds can collide and every
// expected verdict is a function of (namespace, index).
const (
	nsProbe  = 0x22 // status probe universe
	nsBatch  = 0x33 // control-plane batches
	nsFiller = 0x44 // standing corpus beyond the probed keys
	nsAlloc  = 0x55 // never-revoked keys for the alloc sampler
)

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// benchSerial is key i of namespace ns under seed: 9 bytes, unique per
// (ns, i) for a fixed seed.
func benchSerial(ns byte, seed int64, i uint64) serial.Number {
	var b [9]byte
	b[0] = ns
	binary.BigEndian.PutUint64(b[1:], mix64(i+uint64(seed)*0x9e3779b97f4a7c15))
	sn, err := serial.New(b[:])
	if err != nil {
		panic(err) // b[0] != 0, so the bytes are always a valid serial
	}
	return sn
}

// serials returns keys [from, from+n) of namespace ns.
func serials(ns byte, seed int64, from, n uint64) []serial.Number {
	out := make([]serial.Number, n)
	for i := range out {
		out[i] = benchSerial(ns, seed, from+uint64(i))
	}
	return out
}

// stackConfig sizes one stack build.
type stackConfig struct {
	seed    int64
	corpus  []serial.Number // standing revocations, preloaded as one batch
	dataDir string          // writer WAL/checkpoints live under here
	tr      *Tracer
	sites   int // > 0: build the data plane with this many sites
	revoked []bool
}

// stack is the assembled system: CA → origin DistributionPoint → one
// region edge → two PoP edges → two writer RAs (one per PoP) plus one
// shared-data reader mapping writer 0's checkpoints. Every HTTP hop is a
// real loopback TCP connection.
type stack struct {
	ca    *ca.CA
	caPub ed25519.PublicKey
	dp    *cdn.DistributionPoint

	region *cdn.EdgeServer
	pops   []*cdn.EdgeServer

	writers []*ra.RA
	reader  *ra.RA
	agents  []*ra.RA // writers, then the reader

	dataDir string

	tr *Tracer

	servers []*http.Server
	plane   *dataPlane // nil unless the workload drives handshakes
}

// serve exposes h on a fresh loopback listener and returns its URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed once close runs
	return "http://" + ln.Addr().String(), nil
}

// buildStack assembles the system, preloads the corpus, runs the first
// full sync and restarts writer 0 once, so its preloaded state sits in a
// map-ready checkpoint the reader serves from (the state a daemon restart
// leaves). It returns once every RA serves the corpus.
func buildStack(cfg stackConfig) (s *stack, err error) {
	s = &stack{tr: cfg.tr, dataDir: cfg.dataDir}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	s.dp = cdn.NewDistributionPoint(nil)
	authority, err := ca.New(ca.Config{
		ID:         caID,
		Delta:      delta,
		Layout:     layout,
		Publisher:  &timedPublisher{next: s.dp, tr: cfg.tr},
		SerialSeed: uint64(cfg.seed)*2 + 1,
	})
	if err != nil {
		return nil, err
	}
	s.ca, s.caPub = authority, authority.PublicKey()
	if err := s.dp.RegisterCAWithLayout(caID, s.caPub, layout); err != nil {
		return nil, err
	}
	if err := authority.PublishRoot(); err != nil {
		return nil, err
	}
	originURL, err := s.serve(cdn.NewHandler(s.dp, cdn.HandlerOptions{}))
	if err != nil {
		return nil, err
	}
	newEdge := func(upstreamURL, span string) (*cdn.EdgeServer, string, error) {
		edge := cdn.NewEdgeServer(wrapOrigin(&cdn.HTTPClient{BaseURL: upstreamURL}, span, cfg.tr), edgeTTL, nil)
		edge.SetRootTTL(edgeTTL)
		url, err := s.serve(cdn.NewHandler(edge, cdn.HandlerOptions{}))
		return edge, url, err
	}
	region, regionURL, err := newEdge(originURL, "cdn.origin.pull")
	if err != nil {
		return nil, err
	}
	s.region = region
	var popURLs []string
	for p := 0; p < 2; p++ {
		pop, url, err := newEdge(regionURL, "cdn.region.pull")
		if err != nil {
			return nil, err
		}
		s.pops = append(s.pops, pop)
		popURLs = append(popURLs, url)
	}

	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	backend := storage.NewFileBackend(filepath.Join(cfg.dataDir, "writer0"), fsync)
	roots := []*cert.Certificate{authority.RootCertificate()}
	writerCfg := func(w int) ra.Config {
		c := ra.Config{
			Roots:  roots,
			Origin: wrapOrigin(&cdn.HTTPClient{BaseURL: popURLs[w]}, "cdn.pop.pull", cfg.tr),
			Delta:  delta,
			Layout: layout,
		}
		if w == 0 {
			c.Storage = backend // checkpoint cadence: the daemon default
		}
		return c
	}
	for w := 0; w < 2; w++ {
		agent, err := ra.New(writerCfg(w))
		if err != nil {
			return nil, err
		}
		s.writers = append(s.writers, agent)
	}

	if cfg.sites > 0 {
		if s.plane, err = newDataPlane(s, cfg); err != nil {
			return nil, err
		}
		cfg.corpus = append(cfg.corpus, s.plane.revokedSerials()...)
	}
	if len(cfg.corpus) > 0 {
		if _, err := authority.Revoke(cfg.corpus...); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := authority.PublishRefresh(); err != nil {
		return nil, err
	}
	for i, w := range s.writers {
		if err := w.SyncOnce(); err != nil {
			return nil, fmt.Errorf("first sync, writer %d: %w", i, err)
		}
	}
	// Restart writer 0: Close checkpoints its preloaded state in the v2
	// format, and the new instance warm-starts from it.
	if err := s.writers[0].Store().Close(); err != nil {
		return nil, err
	}
	if s.writers[0], err = ra.New(writerCfg(0)); err != nil {
		return nil, fmt.Errorf("restart writer 0: %w", err)
	}
	s.reader, err = ra.New(ra.Config{
		Roots:      roots,
		Delta:      delta,
		Layout:     layout,
		Storage:    backend,
		SharedData: true,
	})
	if err != nil {
		return nil, err
	}
	s.agents = append(append([]*ra.RA{}, s.writers...), s.reader)
	// Writer 0 restarted at the origin's count, so only the reader syncs:
	// a writer pull here would leave a stale "nothing new" answer in the
	// edge caches under the key the first batch pulls with.
	if err := s.reader.SyncOnce(); err != nil {
		return nil, err
	}
	if s.plane != nil {
		if err := s.plane.attach(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// syncAll runs one control-plane sync: writers pull through PoP → region
// → origin, then the reader re-maps writer 0's state.
func (s *stack) syncAll() error {
	for i, w := range s.writers {
		start := time.Now()
		err := w.SyncOnce()
		s.tr.Record("ra.sync", start, time.Now(), batchID.Load(), 0, int64(i))
		if err != nil {
			return fmt.Errorf("writer %d: %w", i, err)
		}
	}
	start := time.Now()
	err := s.reader.SyncOnce()
	s.tr.Record("ra.shared_refresh", start, time.Now(), batchID.Load(), 0, 0)
	if err != nil {
		return fmt.Errorf("reader: %w", err)
	}
	return nil
}

// tick is one control-plane round: the CA revokes keys (if any) and
// refreshes, then every RA syncs.
func (s *stack) tick(id int64, keys []serial.Number) error {
	batchID.Store(id)
	defer batchID.Store(-1)
	if len(keys) > 0 {
		start := time.Now()
		_, err := s.ca.Revoke(keys...)
		s.tr.Record("ca.revoke", start, time.Now(), id, 0, 0)
		if err != nil {
			return err
		}
	}
	start := time.Now()
	err := s.ca.PublishRefresh()
	s.tr.Record("ca.refresh", start, time.Now(), id, 0, 0)
	if err != nil {
		return err
	}
	return s.syncAll()
}

// ticker drives the control plane while a data-plane workload runs. A
// round is PublishRefresh then SyncOnce on every RA, every ∆/2 (the RA
// fetcher's default cadence). The rounds sit at a quarter and three
// quarters past each wall-clock second, and the quarter-past round first
// revokes a batch of n keys (batch k: keys [k·n, (k+1)·n) of nsBatch).
// Pinning the rounds to the clock makes every run turn the snapshots over
// the same way: the root a revocation signs at x.25 s is still in period 0
// at the x.75 s round, so the RAs' snapshots (and with them the status
// cache) change exactly once per ∆, whatever fraction of a second the run
// started at. The first round runs at once and revokes nothing.
type ticker struct {
	stop chan struct{}
	done chan struct{}
	errs atomic.Int64
	ran  atomic.Int64
}

func (s *stack) startTicker(seed int64, n uint64) *ticker {
	t := &ticker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		var batch uint64
		revoke := false
		for k := int64(0); ; k++ {
			var keys []serial.Number
			if revoke {
				keys = serials(nsBatch, seed, batch*n, n)
				batch++
			}
			if err := s.tick(k, keys); err != nil {
				t.errs.Add(1)
				fmt.Fprintf(os.Stderr, "perfbench: tick %d: %v\n", k, err)
			}
			t.ran.Add(1)
			// The next x.25 or x.75 s strictly after now; a round that
			// overran skips the slots it missed.
			next := time.Now().Add(-delta / 4).Truncate(delta / 2).Add(delta/2 + delta/4)
			revoke = next.Sub(next.Truncate(delta)) < delta/2
			select {
			case <-t.stop:
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return t
}

// halt stops the ticker and waits for its goroutine.
func (t *ticker) halt() {
	close(t.stop)
	<-t.done
}

// close tears the stack down in dependency order and removes its data.
func (s *stack) close() {
	if s.plane != nil {
		s.plane.close()
	}
	if s.reader != nil {
		s.reader.Store().Close()
	}
	for _, w := range s.writers {
		w.Store().Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.ca != nil {
		s.ca.Close()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // best-effort size
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// connSet tracks the open connections of a server the benchmark runs, so
// it can close them all and wait for their handlers.
type connSet struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func (c *connSet) add(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if c.conns == nil {
		c.conns = map[net.Conn]struct{}{}
	}
	c.conns[conn] = struct{}{}
	c.wg.Add(1)
	return true
}

func (c *connSet) done(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
	c.wg.Done()
}

func (c *connSet) closeAll() {
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}
