package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"ritm/internal/dictionary"
)

// The churn workload is the control plane: revoke-to-refusal through the
// CDN. A closed loop of 2000-key batches on a 200k standing corpus, with
// no data-plane load, for the first churnBatches batches of a checkpoint
// cycle. Each batch: CA.Revoke and PublishRefresh; the writers SyncOnce
// through PoP → region → origin; the reader re-maps; then every RA must
// serve a presence status for the batch. The propagation time runs from the Revoke call
// until the last RA refuses. Afterwards, untimed, every RA proves sampled
// batch serials revoked under the CA's latest root.

// churnSamples is how many serials per batch every RA must prove revoked.
const churnSamples = 4

// churnBatches is the batches one run measures: the first 40 of writer
// 0's checkpoint cycle (64 batches, the daemon default). The mapped reader
// overlays the WAL written since the last checkpoint, so its refresh cost
// grows with the batch index inside a cycle; measuring the same batch
// indices keeps the distribution the same on every run. Past about 40
// batches a batch outlasts ∆ on a 2-core machine, and with the CA
// refreshing only at the start of each batch the statuses it ends with
// fail the client's 2∆ rule. The run also stops at its deadline.
const churnBatches = 40

func churnStack(e *env) stackConfig {
	return stackConfig{
		seed:    e.seed,
		corpus:  serials(nsFiller, e.seed, 0, e.p.churnCorpus),
		dataDir: e.dataDir,
		tr:      e.tr,
	}
}

func runChurn(e *env, s *stack) (*outcome, error) {
	o := &outcome{tailPct: 90, layers: map[string]float64{}}
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0xc4c4))
	var prop Histogram
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	start := time.Now()
	var batches int64
	for k := int64(0); k < churnBatches && (k == 0 || time.Now().Before(deadline)); k++ {
		keys := serials(nsBatch, e.seed, uint64(k)*e.p.churnBatch, e.p.churnBatch)
		probe := keys[rng.IntN(len(keys))]
		t0 := time.Now()
		o.attempted++
		if err := s.tick(k, keys); err != nil {
			o.fail("batch %d: %v", k, err)
			continue
		}
		var bad []string
		for i, a := range s.agents {
			st, _, err := a.Store().Status(caID, probe)
			if err != nil || st.Proof.Kind != dictionary.ProofPresence {
				bad = append(bad, fmt.Sprintf("RA %d does not refuse %v (err %v)", i, probe, err))
			}
		}
		if len(bad) == 0 {
			prop.Record(time.Since(t0))
		}
		batches++

		// Untimed: each RA proves sampled batch serials revoked under the
		// CA's latest root, checked with the CA key.
		root := s.ca.Authority().SignedRoot()
		now := time.Now().Unix()
		for j := 0; j < churnSamples; j++ {
			sn := keys[rng.IntN(len(keys))]
			want := dictionary.CheckRevoked
			if e.p.plantMismatch && k == 0 && j == 0 {
				want = dictionary.CheckValid
			}
			for i, a := range s.agents {
				st, err := a.Store().Prove(caID, sn)
				if err != nil {
					bad = append(bad, fmt.Sprintf("RA %d prove %v: %v", i, sn, err))
					continue
				}
				res, err := st.Check(sn, s.caPub, now)
				if err != nil || res != want || st.Root.N != root.N {
					bad = append(bad, fmt.Sprintf("RA %d proof for %v: %v, %v at root %d; want %v at root %d",
						i, sn, res, err, st.Root.N, want, root.N))
				}
			}
		}
		if len(bad) > 0 {
			o.fail("batch %d: %s (%d wrong decisions)", k, bad[0], len(bad))
		}
	}
	elapsed := time.Since(start).Seconds()
	o.p50Ms, o.tailMs = prop.QuantileMs(0.5), prop.QuantileMs(0.9)
	o.samples = prop.Count()
	o.opsPerSec = float64(batches) * float64(e.p.churnBatch) / elapsed
	o.report = []named{
		{"propagate_p50_ms", metric{o.p50Ms, "ms"}},
		{"propagate_p90_ms", metric{o.tailMs, "ms"}},
		{"revocations_per_s", metric{o.opsPerSec, "1/s"}},
		{"batches", metric{float64(batches), "count"}},
	}
	return o, nil
}
