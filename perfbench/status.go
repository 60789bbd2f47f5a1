package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
)

// The status workload is the RA's revocation-check path at a large
// working set, with reads beside writes: a closed loop of nproc−1 callers
// (the interceptor blocks on this call) invokes Store.Status, alternating
// between the heap writer and the mapped reader. Probes are a seeded Zipf
// draw over 1M serials, every fifth of them revoked (the 200k standing
// corpus). Every ∆ a 1000-key batch arrives and swaps snapshots, which
// invalidates the status cache, so a large share of lookups reach Prove +
// Encode. No TLS runs here.

// statusZipfS and statusZipfV shape probe popularity, P(rank k) ∝
// (statusZipfV + k)^−statusZipfS: a flattened head, so that on a 2-core
// machine about a third of the lookups in each snapshot generation are
// repeats the status cache can serve. The median call is then clearly a
// miss (Prove + Encode) rather than sitting between hits and misses.
const (
	statusZipfS = 1.01
	statusZipfV = 1024
)

// probeMul spreads popularity ranks over the probe universe: rank r probes
// key (r·probeMul + offset) mod universe. It is odd and not a multiple of
// 5, so the map is a bijection for a universe of 2^a·5^b keys.
const probeMul = 387_420_489

// statusSampleStride and statusSampleCap pick the results decoded and
// fully verified after the run; statusSpanStride picks the pairs of calls
// (one per store) the traced run records spans and an uncached Prove +
// Encode for.
const (
	statusSampleStride = 61
	statusSampleCap    = 8192
	statusSpanStride   = 16
)

func statusStack(e *env) stackConfig {
	n := e.p.universe / 5
	corpus := make([]serial.Number, 0, n)
	for i := uint64(0); i < n; i++ {
		corpus = append(corpus, benchSerial(nsProbe, e.seed, 5*i))
	}
	return stackConfig{seed: e.seed, corpus: corpus, dataDir: e.dataDir, tr: e.tr}
}

// statusSample is one served result kept for verification after the run.
type statusSample struct {
	idx uint64
	enc []byte
	at  int64
}

func runStatus(e *env, s *stack) (*outcome, error) {
	o := &outcome{tailPct: 99, layers: map[string]float64{}}
	stores := []*ra.Store{s.writers[0].Store(), s.reader.Store()}
	kinds := []string{"heap", "mapped"}
	callers := max(e.nproc-1, 1)

	tk := s.startTicker(e.seed, e.p.statusBatch)

	type callerRec struct {
		lat              Histogram
		win              *rateWindows
		calls            int64
		samples          []statusSample
		proofBytes, nPrf int64
		bad              []string
	}
	recs := make([]callerRec, callers)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func(c int, rec *callerRec) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(e.seed), uint64(c)+0x57a7))
			zipf := rand.NewZipf(rng, statusZipfS, statusZipfV, e.p.universe-1)
			offset := rng.Uint64N(e.p.universe)
			rec.samples = make([]statusSample, 0, statusSampleCap)
			rec.win = newRateWindows(deadline.Sub(start))
			for i := int64(0); ; i++ {
				if i&63 == 0 && time.Now().After(deadline) {
					return
				}
				idx := (zipf.Uint64()*probeMul + offset) % e.p.universe
				sn := benchSerial(nsProbe, e.seed, idx)
				which := int(i & 1)
				store := stores[which]
				t0 := time.Now()
				st, enc, err := store.Status(caID, sn)
				t1 := time.Now()
				rec.lat.Record(t1.Sub(t0))
				rec.win.Count(t0.Sub(start))
				rec.calls++
				want := idx%5 == 0
				if e.p.plantMismatch && c == 0 && i == 0 {
					want = !want
				}
				switch {
				case err != nil:
					rec.bad = append(rec.bad, fmt.Sprintf("call %d (%s): %v", i, kinds[which], err))
				case (st.Proof.Kind == dictionary.ProofPresence) != want:
					rec.bad = append(rec.bad, fmt.Sprintf("call %d (%s) probe %d: presence=%v, want %v",
						i, kinds[which], idx, st.Proof.Kind == dictionary.ProofPresence, want))
				case i%statusSampleStride == 0 && len(rec.samples) < statusSampleCap:
					rec.samples = append(rec.samples, statusSample{idx: idx, enc: enc, at: t1.Unix()})
				}
				if e.tr.On() && (i/2)%statusSpanStride == 0 && err == nil {
					e.tr.Record("ra.status."+kinds[which], t0, t1, i, int64(c), int64(which))
					p0 := time.Now()
					if _, err := store.Prove(caID, sn); err == nil {
						e.tr.Record("dictionary.prove."+kinds[which], p0, time.Now(), i, int64(c), int64(which))
					}
					p0 = time.Now()
					st.Encode()
					e.tr.Record("dictionary.encode", p0, time.Now(), i, int64(c), int64(which))
					rec.proofBytes += int64(st.Proof.Size())
					rec.nPrf++
				}
			}
		}(c, &recs[c])
	}
	wg.Wait()
	tk.halt()

	// Decode and fully check the sampled results against the CA key:
	// presence for revoked probes, absence for the rest.
	var lat Histogram
	win := newRateWindows(deadline.Sub(start))
	var calls, proofBytes, nPrf int64
	for c := range recs {
		rec := &recs[c]
		lat.Merge(&rec.lat)
		win.Merge(rec.win)
		calls += rec.calls
		proofBytes += rec.proofBytes
		nPrf += rec.nPrf
		for _, b := range rec.bad {
			o.fail("%s", b)
		}
		for _, sm := range rec.samples {
			sn := benchSerial(nsProbe, e.seed, sm.idx)
			st, err := dictionary.DecodeStatus(sm.enc)
			if err != nil {
				o.fail("sample probe %d: decode: %v", sm.idx, err)
				continue
			}
			res, err := st.Check(sn, s.caPub, sm.at)
			want := dictionary.CheckValid
			if sm.idx%5 == 0 {
				want = dictionary.CheckRevoked
			}
			if err != nil || res != want {
				o.fail("sample probe %d: check = %v, %v; want %v", sm.idx, res, err, want)
			}
		}
	}
	o.attempted = calls
	o.attempted += tk.ran.Load()
	for i := int64(0); i < tk.errs.Load(); i++ {
		o.fail("control-plane tick failed")
	}
	o.p50Ms, o.tailMs = lat.QuantileMs(0.5), lat.QuantileMs(0.99)
	o.samples = lat.Count()
	o.opsPerSec = win.MedianRate()
	if nPrf > 0 {
		o.layers["dictionary.proof_bytes"] = float64(proofBytes) / float64(nPrf)
	}
	o.report = []named{
		{"status_p50_us", metric{lat.QuantileUs(0.5), "us"}},
		{"status_p99_us", metric{lat.QuantileUs(0.99), "us"}},
		{"status_ops_per_s", metric{o.opsPerSec, "1/s"}},
		{"control_ticks", metric{float64(tk.ran.Load()), "count"}},
	}
	return o, nil
}
