package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"ritm/internal/cdn"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// counters is a snapshot of the program's own counters, taken before and
// after the measured phase so per-layer ratios cover only that phase.
type counters struct {
	mem    runtime.MemStats
	cache  ra.CacheStats // summed over the fleet
	region cdn.EdgeStats
	pop    cdn.EdgeStats // summed over the PoPs
}

func snapshot(s *stack) counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	for _, a := range s.agents {
		st := a.CacheStats()
		c.cache.Hits += st.Hits
		c.cache.Misses += st.Misses
	}
	c.region = s.region.Stats()
	for _, p := range s.pops {
		st := p.Stats()
		c.pop.Hits += st.Hits
		c.pop.Misses += st.Misses
		c.pop.CollapsedPulls += st.CollapsedPulls
		c.pop.BytesServed += st.BytesServed
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer computes every per-layer metric of the traced run. A layer the
// workload does not exercise reports 0.
func perLayer(e *env, s *stack, o *outcome, before, after counters) []named {
	spans := e.tr.Spans()
	ix := indexSpans(spans)
	linkTLS(spans, ix)
	nestByID(spans, ix, "upstream.tlssim_accept", "handshake.ritm")
	nestByID(spans, ix, "ritmclient.check", "handshake.ritm")
	nestByID(spans, ix, "cdn.origin.ingest", "ca.revoke")
	nestByID(spans, ix, "cdn.origin.pull", "cdn.region.pull")
	nestByID(spans, ix, "cdn.region.pull", "cdn.pop.pull")
	nestByID(spans, ix, "cdn.pop.pull", "ra.sync")
	kids := childIntervals(spans)
	h := func(name string) *Histogram { return histOf(spans, ix, name) }
	self := func(name string) *Histogram { return selfHist(spans, ix, kids, name) }

	var it struct{ hits, misses, resumed, decided, refused int64 }
	if s.plane != nil {
		for _, x := range s.plane.interceptors {
			st := x.Stats()
			it.hits += st.MintCacheHits
			it.misses += st.MintCacheMisses
			it.resumed += st.Resumptions
			it.decided += st.Bumped + st.Refused
			it.refused += st.Refused
		}
	}
	var footprint int
	for _, w := range s.writers {
		footprint += w.Store().MemoryFootprint()
	}

	// Quiesced allocs/op: the load has stopped, the control plane is idle.
	missHeap := serials(nsAlloc, e.seed, 0, uint64(e.p.allocRuns)+2)
	missMapped := serials(nsAlloc, e.seed, uint64(e.p.allocRuns)+2, uint64(e.p.allocRuns)+2)
	statusAllocs := func(agent *ra.RA, keys []serial.Number) float64 {
		i := 0
		return allocsPerOp(e.p.allocRuns, func() {
			agent.Store().Status(caID, keys[i%len(keys)]) //nolint:errcheck // absent keys always prove
			i++
		})
	}
	hit := missHeap[:1]
	rootAllocs := allocsPerOp(e.p.allocRuns, func() {
		s.pops[0].LatestRoot(caID) //nolint:errcheck // the CA is registered
	})

	ms := func(x float64) float64 { return x / 1e6 }
	us := func(x float64) float64 { return x / 1e3 }
	l := []named{
		{"interception.status_us.p50", metric{us(h("interception.status").Quantile(0.5)), "us"}},
		{"interception.status_us.p99", metric{us(h("interception.status").Quantile(0.99)), "us"}},
		{"interception.upstream_dial_us.p50", metric{us(h("interception.upstream_dial").Quantile(0.5)), "us"}},
		{"interception.self_ms.p50", metric{ms(self("handshake.tls").Quantile(0.5)), "ms"}},
		{"interception.mint_hit_ratio", metric{ratio(it.hits, it.hits+it.misses), "ratio"}},
		{"interception.upstream_resume_ratio", metric{ratio(it.resumed, it.decided), "ratio"}},
		{"interception.refused", metric{float64(it.refused), "count"}},
		{"upstream.tls_accept_ms.p50", metric{ms(h("upstream.tls_accept").Quantile(0.5)), "ms"}},
		{"upstream.tlssim_accept_ms.p50", metric{ms(h("upstream.tlssim_accept").Quantile(0.5)), "ms"}},
		{"ra.proxy.self_ms.p50", metric{ms(self("handshake.ritm").Quantile(0.5)), "ms"}},
		{"ritmclient.check_us.p50", metric{us(h("ritmclient.check").Quantile(0.5)), "us"}},
		{"ra.status_us.heap.p50", metric{us(h("ra.status.heap").Quantile(0.5)), "us"}},
		{"ra.status_us.heap.p99", metric{us(h("ra.status.heap").Quantile(0.99)), "us"}},
		{"ra.status_us.mapped.p50", metric{us(h("ra.status.mapped").Quantile(0.5)), "us"}},
		{"ra.status_us.mapped.p99", metric{us(h("ra.status.mapped").Quantile(0.99)), "us"}},
		{"ra.status_cache.hit_ratio", metric{ratio(after.cache.Hits-before.cache.Hits,
			after.cache.Hits-before.cache.Hits+after.cache.Misses-before.cache.Misses), "ratio"}},
		{"ra.sync_ms.p50", metric{ms(h("ra.sync").Quantile(0.5)), "ms"}},
		{"ra.apply_ms.p50", metric{ms(self("ra.sync").Quantile(0.5)), "ms"}},
		{"ra.shared_refresh_ms.p50", metric{ms(h("ra.shared_refresh").Quantile(0.5)), "ms"}},
		{"ra.footprint_mb", metric{float64(footprint) / 1e6, "MB"}},
		{"ra.mapped_mb", metric{float64(s.reader.Store().MappedBytes()) / 1e6, "MB"}},
		{"ra.allocs.status_miss.heap", metric{statusAllocs(s.writers[0], missHeap[1:]), "allocs"}},
		{"ra.allocs.status_miss.mapped", metric{statusAllocs(s.reader, missMapped[1:]), "allocs"}},
		{"ra.allocs.status_hit.heap", metric{statusAllocs(s.writers[0], hit), "allocs"}},
		{"ra.allocs.status_hit.mapped", metric{statusAllocs(s.reader, hit), "allocs"}},
		{"dictionary.prove_us.heap.p50", metric{us(h("dictionary.prove.heap").Quantile(0.5)), "us"}},
		{"dictionary.prove_us.mapped.p50", metric{us(h("dictionary.prove.mapped").Quantile(0.5)), "us"}},
		{"dictionary.encode_us.p50", metric{us(h("dictionary.encode").Quantile(0.5)), "us"}},
		{"dictionary.proof_bytes", metric{o.layers["dictionary.proof_bytes"], "bytes"}},
		{"ca.revoke_ms.p50", metric{ms(h("ca.revoke").Quantile(0.5)), "ms"}},
		{"ca.self_ms.p50", metric{ms(self("ca.revoke").Quantile(0.5)), "ms"}},
		{"ca.refresh_ms.p50", metric{ms(h("ca.refresh").Quantile(0.5)), "ms"}},
		{"cdn.origin.ingest_ms.p50", metric{ms(h("cdn.origin.ingest").Quantile(0.5)), "ms"}},
		{"cdn.pop.pull_ms.p50", metric{ms(h("cdn.pop.pull").Quantile(0.5)), "ms"}},
		{"cdn.pop.self_ms.p50", metric{ms(self("cdn.pop.pull").Quantile(0.5)), "ms"}},
		{"cdn.region.pull_ms.p50", metric{ms(h("cdn.region.pull").Quantile(0.5)), "ms"}},
		{"cdn.region.self_ms.p50", metric{ms(self("cdn.region.pull").Quantile(0.5)), "ms"}},
		{"cdn.origin.pull_ms.p50", metric{ms(h("cdn.origin.pull").Quantile(0.5)), "ms"}},
		{"cdn.pull_bytes", metric{float64(after.pop.BytesServed - before.pop.BytesServed), "bytes"}},
		{"cdn.pop_hit_ratio", metric{ratio(int64(after.pop.Hits-before.pop.Hits),
			int64(after.pop.Hits-before.pop.Hits+after.pop.Misses-before.pop.Misses)), "ratio"}},
		{"cdn.region_hit_ratio", metric{ratio(int64(after.region.Hits-before.region.Hits),
			int64(after.region.Hits-before.region.Hits+after.region.Misses-before.region.Misses)), "ratio"}},
		{"cdn.collapsed_pulls", metric{float64(after.pop.CollapsedPulls - before.pop.CollapsedPulls +
			after.region.CollapsedPulls - before.region.CollapsedPulls), "count"}},
		{"cdn.origin_pulls", metric{float64(len(ix["cdn.origin.pull"])), "count"}},
		{"cdn.allocs.edge_root", metric{rootAllocs, "allocs"}},
		{"storage.data_dir_mb", metric{float64(dirBytes(s.dataDir)) / 1e6, "MB"}},
		{"runtime.gc_pause_ms", metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}},
		{"runtime.gc_cycles", metric{float64(after.mem.NumGC - before.mem.NumGC), "count"}},
		{"runtime.alloc_mb", metric{float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6, "MB"}},
		{"loadgen.offered_rps", metric{o.layers["loadgen.offered_rps"], "1/s"}},
		{"loadgen.late_ms.p99", metric{o.layers["loadgen.late_ms.p99"], "ms"}},
		{"traced.p50_ms", metric{o.p50Ms, "ms"}},
		{"traced.tail_ms", metric{o.tailMs, "ms"}},
	}
	return l
}

// linkTLS attaches each interceptor connection's spans to the real-TLS
// arrival they served. The status lookup and the upstream dial run on the
// connection's goroutine (same Key); the status span names the site and
// interceptor (Aux), which with containment picks the arrival; the
// upstream's accept span is matched by the dial's local port.
func linkTLS(spans []Span, ix spanIndex) {
	arrivals := map[int64][]int{} // aux → arrival spans
	for _, a := range ix["handshake.tls"] {
		arrivals[spans[a].Aux] = append(arrivals[spans[a].Aux], a)
	}
	dialByGo := map[int64]int{}
	for _, d := range ix["interception.upstream_dial"] {
		dialByGo[spans[d].Key] = d
	}
	acceptByPort := map[int64]int{}
	for _, u := range ix["upstream.tls_accept"] {
		acceptByPort[spans[u].Key] = u
	}
	used := map[int]bool{}
	for _, st := range ix["interception.status"] {
		for _, a := range arrivals[spans[st].Aux] {
			if used[a] || spans[a].Start > spans[st].Start || spans[st].End > spans[a].End {
				continue
			}
			used[a] = true
			link := func(c int) {
				spans[c].Parent, spans[c].ID = a, spans[a].ID
			}
			link(st)
			if d, ok := dialByGo[spans[st].Key]; ok {
				link(d)
				if u, ok := acceptByPort[spans[d].Aux]; ok {
					link(u)
				}
			}
			break
		}
	}
}

// provenance is stamped on every result.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Command    string  `json:"command"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Layout     string  `json:"layout"`
	Fsync      bool    `json:"fsync"`
	Network    string  `json:"network"`
}

func stamp(workload string, seed int64, seconds float64, traced bool) provenance {
	cmd := os.Getenv("PERFBENCH_COMMAND")
	if cmd == "" {
		cmd = strings.Join(os.Args, " ")
	}
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Command:    cmd,
		Commit:     commit(),
		SourceHash: sourceHash("."),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Layout:     layout.String(),
		Fsync:      fsync,
		Network:    "loopback",
	}
}

// commit is the checkout's git commit, or "unknown" when the working
// directory is not the root of a git checkout (the source hash still
// identifies the code).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root (paths
// and contents, in path order), skipping build output.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f) //nolint:errcheck // hash writes cannot fail
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
