package ra

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Tail-path refresh tests: between the writer's checkpoint installs a
// reader extends its current snapshot by the new WAL records on the same
// mapping, and only a checkpoint install takes (and rotates) a mapping.

// newTailPair builds a writer RA that checkpoints every `every` update
// batches, restarted once so its state starts out as a v2 checkpoint, and
// a reader RA mapping the same backend.
func newTailPair(t *testing.T, env *persistEnv, layout dictionary.LayoutKind, backend storage.Backend, every int) (writer, reader *RA) {
	t.Helper()
	cfg := Config{
		Roots:           []*cert.Certificate{env.ca.RootCertificate()},
		Origin:          env.dp,
		Delta:           10 * time.Second,
		Layout:          layout,
		Storage:         backend,
		CheckpointEvery: every,
	}
	writer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	// Close checkpoints what the first sync appended.
	if err := writer.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if writer, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	reader, err = New(Config{
		Roots:      cfg.Roots,
		Delta:      cfg.Delta,
		Layout:     layout,
		Storage:    backend,
		SharedData: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		reader.Store().Close()
		writer.Store().Close()
	})
	return writer, reader
}

// mappedSnap returns the reader's current snapshot, which must be mapped.
func mappedSnap(t *testing.T, d *sharedDict) *dictionary.MappedSnapshot {
	t.Helper()
	ms, ok := d.load().snap.(*dictionary.MappedSnapshot)
	if !ok {
		t.Fatalf("reader serves %T, want a mapped snapshot", d.load().snap)
	}
	return ms
}

// proveAll encodes the status of every probe on snap.
func proveAll(t *testing.T, snap servingSnapshot, probes []serial.Number) [][]byte {
	t.Helper()
	out := make([][]byte, len(probes))
	for i, sn := range probes {
		st, err := snap.Prove(sn)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st.Encode()
	}
	return out
}

// TestSharedTailExtendsMapping: with the writer checkpointing every 8
// batches, the first 7 refreshes extend the snapshot on the initial
// mapping (more than retainedMappings of them, with nothing retired), the
// 8th takes the new checkpoint's mapping and retires the old one, and the
// next extend on the new mapping. At every step the reader serves the
// writer's statuses byte for byte, and at the end every snapshot kept from
// an earlier generation still serves what it served when published.
func TestSharedTailExtendsMapping(t *testing.T) {
	for _, layout := range []dictionary.LayoutKind{dictionary.LayoutSorted, dictionary.LayoutForest} {
		for _, backend := range []storage.Backend{storage.NewFileBackend(t.TempDir(), false), storage.NewMemory()} {
			t.Run(layout.String()+"/"+backendName(backend), func(t *testing.T) {
				env := newPersistEnv(t, layout, nil, 4, 100)
				writer, reader := newTailPair(t, env, layout, backend, 8)
				d, ok := reader.Store().sharedFor("CA1")
				if !ok {
					t.Fatal("reader has no shared dictionary for CA1")
				}
				first := d.current
				if first == nil || mappedSnap(t, d).OverlayRecords() != 0 {
					t.Fatal("reader did not start on a pure checkpoint mapping")
				}
				// Every serial revoked before and during the rounds, plus absent ones.
				probes := append(serial.NewGenerator(0xD15C, nil).NextN(4*100+10*60),
					serial.NewGenerator(0xAB5E, nil).NextN(40)...)

				type kept struct {
					snap servingSnapshot
					want [][]byte
				}
				var history []kept
				var second *storage.MappedCheckpoint
				for round := 1; round <= 10; round++ {
					env.revoke(t, 1, 60)
					if err := writer.SyncOnce(); err != nil {
						t.Fatal(err)
					}
					if err := reader.SyncOnce(); err != nil {
						t.Fatal(err)
					}
					ms := mappedSnap(t, d)
					d.mu.Lock()
					current, retired := d.current, append([]*storage.MappedCheckpoint(nil), d.retired...)
					d.mu.Unlock()
					switch {
					case round < 8:
						if current != first || len(retired) != 0 || ms.OverlayRecords() != round {
							t.Fatalf("round %d: remapped (%v) or %d retired, %d overlay records; want an extension",
								round, current != first, len(retired), ms.OverlayRecords())
						}
					case round == 8:
						if current == first || len(retired) != 1 || retired[0] != first || ms.OverlayRecords() != 0 {
							t.Fatalf("round 8: checkpoint install did not take a new mapping and retire the old one")
						}
						second = current
					default:
						if current != second || len(retired) != 1 || ms.OverlayRecords() != round-8 {
							t.Fatalf("round %d: want an extension on the second mapping", round)
						}
					}

					for _, sn := range probes {
						ws, err := writer.Status("CA1", sn)
						if err != nil {
							t.Fatal(err)
						}
						rs, err := reader.Status("CA1", sn)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(ws.Encode(), rs.Encode()) {
							t.Fatalf("round %d: writer and reader statuses differ for %v", round, sn)
						}
					}
					history = append(history, kept{ms, proveAll(t, ms, probes)})
				}
				for i, k := range history {
					got := proveAll(t, k.snap, probes)
					for j := range got {
						if !bytes.Equal(got[j], k.want[j]) {
							t.Fatalf("generation %d changed its status of %v after later refreshes", i+1, probes[j])
						}
					}
				}
			})
		}
	}
}

func backendName(b storage.Backend) string {
	if _, ok := b.(*storage.Memory); ok {
		return "memory"
	}
	return "file"
}

// TestSharedTailConcurrentExtend is the -race coverage of the tail path:
// the writer churns (checkpointing every 6 batches, so the reader both
// extends and re-maps), one goroutine refreshes the reader as fast as the
// stamp moves, and provers check statuses from the live reader and from
// snapshots of every earlier generation, all of which must verify.
func TestSharedTailConcurrentExtend(t *testing.T) {
	env := newPersistEnv(t, dictionary.LayoutForest, nil, 4, 50)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newTailPair(t, env, dictionary.LayoutForest, backend, 6)
	d, _ := reader.Store().sharedFor("CA1")

	revoked := serial.NewGenerator(0xD15C, nil).NextN(200)
	absent := serial.NewGenerator(0xFA11, nil).NextN(64)
	stop := make(chan struct{})
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		olds = []servingSnapshot{d.load().snap}
	)

	// 20 batches at one install per 6: at most 3 retired mappings, within
	// retainedMappings, so every kept snapshot's mapping stays open.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 20; i++ {
			if _, err := env.ca.Revoke(env.gen.NextN(10)...); err != nil {
				t.Error(err)
				return
			}
			if err := writer.SyncOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reader.SyncOnce(); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if s := d.load().snap; s != olds[len(olds)-1] {
				olds = append(olds, s)
			}
			mu.Unlock()
		}
	}()

	pub := env.ca.PublicKey()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sn := revoked[(i*7+g)%len(revoked)]
				if i%3 == 0 {
					sn = absent[(i+g)%len(absent)]
				}
				var st *dictionary.Status
				var err error
				if g%2 == 0 {
					st, err = reader.Status("CA1", sn)
				} else {
					mu.Lock()
					snap := olds[i%len(olds)]
					mu.Unlock()
					st, err = snap.Prove(sn)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := st.Check(sn, pub, time.Now().Unix()); err != nil {
					t.Errorf("goroutine %d: served status does not verify: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.load().snap.Count(), uint64(4*50+20*10); got != want {
		t.Fatalf("reader count %d after the churn, want %d", got, want)
	}
}
