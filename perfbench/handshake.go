package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// The handshake workload is the data plane, where users feel RITM:
// open-loop Poisson arrivals at a fixed rate (about a third of the
// saturation throughput on a 2-core machine), each one a full handshake
// on one of two paths at a seeded 50/50 split — real TLS through the
// interception bump, or RITM-TLS through an RA's tlssim DPI proxy with
// ritmclient verifying the injected status. SNIs are Zipf-drawn over more
// sites than the mint LRU (1024) and the upstream session cache (64)
// hold. One site rank in 32 is revoked and must be refused on both paths.
// A closed-loop phase with nproc clients then measures saturation.

// handshakeZipfS is the site popularity exponent.
const handshakeZipfS = 1.1

// revokedRank reports whether the site at popularity rank r is revoked:
// one rank in 32, the same ranks under every seed, so the refused share of
// the traffic does not depend on the seed.
func revokedRank(r int) bool { return r%32 == 7 }

// sitePerm maps popularity ranks to site indices under seed.
func sitePerm(seed int64, sites int) []int {
	return rand.New(rand.NewPCG(uint64(seed), 0x5173)).Perm(sites)
}

func handshakeStack(e *env) stackConfig {
	perm := sitePerm(e.seed, e.p.sites)
	revoked := make([]bool, e.p.sites)
	n := 0
	for r, site := range perm {
		if revokedRank(r) {
			revoked[site] = true
			n++
		}
	}
	return stackConfig{
		seed:    e.seed,
		corpus:  serials(nsFiller, e.seed, 0, uint64(max(e.p.siteCorpus-n, 0))),
		dataDir: e.dataDir,
		tr:      e.tr,
		sites:   e.p.sites,
		revoked: revoked,
	}
}

// arrival is one scheduled handshake.
type arrival struct {
	due  time.Duration // offset from the phase start (open loop only)
	site int
	ritm bool
}

// drawArrivals draws n arrivals; rate > 0 spaces them as a Poisson process.
func drawArrivals(rng *rand.Rand, perm []int, n int, rate float64) []arrival {
	zipf := rand.NewZipf(rng, handshakeZipfS, 1, uint64(len(perm)-1))
	out := make([]arrival, n)
	var t float64
	for i := range out {
		if rate > 0 {
			t += rng.ExpFloat64() / rate
		}
		out[i] = arrival{
			due:  time.Duration(t * float64(time.Second)),
			site: perm[zipf.Uint64()],
			ritm: rng.IntN(2) == 1,
		}
	}
	return out
}

// hsRecorder is one load goroutine's private record: latencies per path,
// generator lateness, and closed-loop completions per window.
type hsRecorder struct {
	tls, ritm, late Histogram
	sat             *rateWindows
}

func runHandshake(e *env, s *stack) (*outcome, error) {
	d := s.plane
	o := &outcome{tailPct: 99, layers: map[string]float64{}}
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0x68616e64))
	perm := sitePerm(e.seed, e.p.sites)
	openSecs := e.seconds * (1 - e.p.satShare)
	satSecs := e.seconds * e.p.satShare
	satDur := time.Duration(satSecs * float64(time.Second))
	open := drawArrivals(rng, perm, int(math.Ceil(openSecs*e.p.rate)), e.p.rate)
	for len(open) > 0 && open[len(open)-1].due.Seconds() > openSecs {
		open = open[:len(open)-1]
	}
	// The saturation phase draws from its own pool; it cycles if the
	// machine outruns it.
	closed := drawArrivals(rng, perm, int(math.Max(1000, satSecs*e.p.rate*8)), 0)
	if len(open) == 0 {
		return nil, errors.New("handshake: schedule holds no arrivals")
	}

	// do runs one arrival and reports whether it was decided correctly.
	var mu sync.Mutex // guards o
	do := func(rec *hsRecorder, id int64, a arrival, due time.Time) bool {
		agent := int(id % int64(len(s.agents)))
		start := time.Now()
		var err error
		name := "handshake.tls"
		if a.ritm {
			name = "handshake.ritm"
			err = d.dialRITM(e.tr, agent, a.site, uint64(id))
		} else {
			err = d.dialTLS(agent, a.site)
		}
		end := time.Now()
		e.tr.Record(name, start, end, id, int64(agent), int64(a.site)<<3|int64(agent))
		want := d.revoked[a.site]
		if e.p.plantMismatch && id == 0 {
			want = !want
		}
		ok := (want && errors.Is(err, errRefused)) || (!want && err == nil)
		if ok && !want && !due.IsZero() {
			if a.ritm {
				rec.ritm.Record(end.Sub(due))
			} else {
				rec.tls.Record(end.Sub(due))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		if !ok {
			o.fail("arrival %d site %s ritm=%v revoked=%v: got %v", id, d.names[a.site], a.ritm, want, err)
		}
		return ok
	}

	tk := s.startTicker(e.seed, e.p.hsBatch)

	// Open loop: nproc load goroutines take arrivals in schedule order and
	// time each from when it was due, so a stall charges every arrival
	// it delays.
	recs := make([]hsRecorder, e.nproc)
	for g := range recs {
		recs[g].sat = newRateWindows(satDur)
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := range recs {
		wg.Add(1)
		go func(rec *hsRecorder) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(open)) {
					return
				}
				due := start.Add(open[i].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				rec.late.Record(time.Since(due))
				do(rec, i, open[i], due)
			}
		}(&recs[g])
	}
	wg.Wait()

	// Closed loop: nproc clients back to back for the saturation phase.
	satStart := time.Now()
	satEnd := satStart.Add(satDur)
	base := int64(len(open))
	next.Store(0)
	for g := range recs {
		wg.Add(1)
		go func(rec *hsRecorder) {
			defer wg.Done()
			for time.Now().Before(satEnd) {
				i := next.Add(1) - 1
				if do(rec, base+i, closed[i%int64(len(closed))], time.Time{}) {
					rec.sat.Count(time.Since(satStart))
				}
			}
		}(&recs[g])
	}
	wg.Wait()
	tk.halt()

	var tlsH, ritmH, all, late Histogram
	sat := newRateWindows(satDur)
	for i := range recs {
		tlsH.Merge(&recs[i].tls)
		ritmH.Merge(&recs[i].ritm)
		late.Merge(&recs[i].late)
		sat.Merge(recs[i].sat)
	}
	all.Merge(&tlsH)
	all.Merge(&ritmH)
	o.attempted += tk.ran.Load()
	for i := int64(0); i < tk.errs.Load(); i++ {
		o.fail("control-plane tick failed")
	}
	o.p50Ms, o.tailMs = all.QuantileMs(0.5), all.QuantileMs(0.99)
	o.samples = all.Count()
	o.opsPerSec = sat.MedianRate()
	offered := float64(len(open)) / open[len(open)-1].due.Seconds()
	o.layers["loadgen.offered_rps"] = offered
	o.layers["loadgen.late_ms.p99"] = late.QuantileMs(0.99)
	o.report = []named{
		{"tls_handshake_p50_ms", metric{tlsH.QuantileMs(0.5), "ms"}},
		{"tls_handshake_p99_ms", metric{tlsH.QuantileMs(0.99), "ms"}},
		{"ritm_handshake_p50_ms", metric{ritmH.QuantileMs(0.5), "ms"}},
		{"ritm_handshake_p99_ms", metric{ritmH.QuantileMs(0.99), "ms"}},
		{"handshake_max_rps", metric{o.opsPerSec, "1/s"}},
		{"loadgen.offered_rps", metric{offered, "1/s"}},
		{"loadgen.late_ms.p99", metric{late.QuantileMs(0.99), "ms"}},
		{"control_ticks", metric{float64(tk.ran.Load()), "count"}},
	}
	return o, nil
}
