package ra

import (
	"math"
	"runtime"
	"testing"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// TestStatusAllocsPinned pins the data path's allocations on an owned
// (heap) store and on a shared-data (mapped) store: a status-cache hit
// allocates nothing — the table is keyed by the serial's bytes and looked
// up without converting them — and a miss costs exactly the proof, its
// encoding, the cache entry and its key. The miss count is a rounded
// mean: an absent probe outside the dictionary's range proves with one
// allocation fewer, and a shard map grows now and then, so the exact
// mean sits a little either side of the steady-state count.
func TestStatusAllocsPinned(t *testing.T) {
	env := newPersistEnv(t, dictionary.LayoutSorted, nil, 12, 25)
	writer, reader := newSharedPair(t, env, dictionary.LayoutSorted, storage.NewFileBackend(t.TempDir(), false))
	for _, tc := range []struct {
		name string
		s    *Store
		miss float64
	}{
		{"heap", writer.Store(), 6},
		{"mapped", reader.Store(), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Absent serials. The first warm ones give every table shard
			// its map and a few growth steps, so the miss count below is
			// the steady state, not map setup amortized over the runs.
			const warm, runs = 2048, 1000
			probes := serial.NewGenerator(0xA110C, nil).NextN(warm + runs + 1)
			for _, sn := range probes[:warm] {
				if _, _, err := tc.s.Status("CA1", sn); err != nil {
					t.Fatal(err)
				}
			}
			i := warm
			miss := meanAllocs(runs, func() {
				if _, _, err := tc.s.Status("CA1", probes[i]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			hit := meanAllocs(runs, func() {
				if _, _, err := tc.s.Status("CA1", probes[warm]); err != nil {
					t.Fatal(err)
				}
			})
			if hit != 0 {
				t.Errorf("status hit allocates %v times, want 0", hit)
			}
			// The miss path encodes through a pooled buffer, which the
			// race detector's sync.Pool sometimes drops.
			if !raceDetectorEnabled && math.Round(miss) != tc.miss {
				t.Errorf("status miss allocates %.3f times, want %v", miss, tc.miss)
			}
		})
	}
}

// meanAllocs is testing.AllocsPerRun without its truncation to an
// integer: the mean number of heap allocations per call of f.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up outside the measured window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
