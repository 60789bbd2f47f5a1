package ra

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"ritm/internal/cert"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// Shared replica store scenario tests: one writer RA owns the durable
// logs; reader RAs (Config.SharedData) serve the same statuses off a
// read-only mapping of the writer's checkpoints, refreshing when the
// writer's stamp moves.

// newSharedPair builds a writer RA (pulling from env.dp, checkpointing
// every batch so readers see v2 state immediately) and a reader RA
// mapping the same backend.
func newSharedPair(t *testing.T, env *persistEnv, layout dictionary.LayoutKind, backend storage.Backend) (writer, reader *RA) {
	t.Helper()
	writer, err := New(Config{
		Roots:           []*cert.Certificate{env.ca.RootCertificate()},
		Origin:          env.dp,
		Delta:           10 * time.Second,
		Layout:          layout,
		Storage:         backend,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	reader, err = New(Config{
		Roots:      []*cert.Certificate{env.ca.RootCertificate()},
		Delta:      10 * time.Second,
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

// TestSharedReaderServesWriterState: a reader RA pointed at the writer's
// data directory serves byte-identical statuses for revoked and absent
// serials, off a real file mapping, without any origin access.
func TestSharedReaderServesWriterState(t *testing.T) {
	for _, layout := range []dictionary.LayoutKind{dictionary.LayoutSorted, dictionary.LayoutForest} {
		t.Run(layout.String(), func(t *testing.T) {
			env := newPersistEnv(t, layout, nil, 12, 25)
			backend := storage.NewFileBackend(t.TempDir(), false)
			writer, reader := newSharedPair(t, env, layout, backend)

			probes := append(serial.NewGenerator(0xD15C, nil).NextN(300), // revoked prefix
				serial.NewGenerator(0xAB5E, nil).NextN(20)...) // absent
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
					t.Fatalf("writer and reader statuses differ for %v", sn)
				}
				if _, err := rs.Check(sn, env.ca.PublicKey(), time.Now().Unix()); err != nil {
					t.Fatalf("reader status does not verify: %v", err)
				}
			}

			// The reader serves off an actual checkpoint mapping, and its
			// dictionaries are not exposed as mutable replicas.
			if got := reader.Store().MappedBytes(); got == 0 {
				t.Error("reader reports no mapped bytes; expected a live checkpoint mapping")
			}
			if _, err := reader.Store().Replica("CA1"); err == nil ||
				!strings.Contains(err.Error(), "shared mapping") {
				t.Errorf("Replica on a shared CA = %v, want shared-mapping error", err)
			}

			// Cache interplay: a repeated lookup is a hit keyed on the
			// shared dictionary's generation.
			before := reader.Store().CacheStats()
			if _, err := reader.Status("CA1", probes[0]); err != nil {
				t.Fatal(err)
			}
			if after := reader.Store().CacheStats(); after.Hits <= before.Hits {
				t.Error("repeated shared-path Status did not hit the cache")
			}
		})
	}
}

// TestSharedReaderTracksWriter: the reader picks up both kinds of writer
// progress — new revocations (checkpoint install, stamp moves) and a
// freshness refresh (WAL-appended FreshnessRecord, no checkpoint) — on
// its next sync, bumping its generation so cached statuses invalidate.
func TestSharedReaderTracksWriter(t *testing.T) {
	env := newPersistEnv(t, dictionary.LayoutForest, nil, 8, 25)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newSharedPair(t, env, dictionary.LayoutForest, backend)

	d, ok := reader.Store().sharedFor("CA1")
	if !ok {
		t.Fatal("reader has no shared dictionary for CA1")
	}
	gen0 := d.CurrentGeneration()
	if count := d.load().snap.Count(); count != 200 {
		t.Fatalf("initial shared count = %d, want 200", count)
	}

	// Writer absorbs new revocations and checkpoints them.
	env.revoke(t, 2, 25)
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if count := d.load().snap.Count(); count != 250 {
		t.Fatalf("shared count after writer advance = %d, want 250", count)
	}
	gen1 := d.CurrentGeneration()
	if gen1 <= gen0 {
		t.Fatalf("generation did not advance on remap: %d → %d", gen0, gen1)
	}

	// A freshness-only refresh reaches the reader through the WAL record
	// the writer appends (no new checkpoint involved).
	if err := env.ca.PublishRefresh(); err != nil {
		t.Fatal(err)
	}
	if err := writer.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	wr, err := writer.Store().Replica("CA1")
	if err != nil {
		t.Fatal(err)
	}
	want := wr.Snapshot().Freshness()
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	rs, err := reader.Status("CA1", serial.NewGenerator(0x90AD, nil).Next())
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Freshness.Equal(want) {
		t.Error("reader did not adopt the writer's refreshed freshness value")
	}

	// An unchanged stamp must be a no-op refresh: same generation.
	genBefore := d.CurrentGeneration()
	if err := reader.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got := d.CurrentGeneration(); got != genBefore {
		t.Errorf("refresh with unchanged stamp bumped generation %d → %d", genBefore, got)
	}
}

// v1Checkpoint is a literal checkpoint in the retired v1 encoding (the
// encoder is gone): version byte 0x01, layout, an empty log, no batches,
// no root, zero freshness, no chain seed — an empty dictionary, the most
// dangerous thing to serve by mistake.
func v1Checkpoint() []byte {
	return append([]byte{0x01, 0, 0, 0, 0, 0, 0, 0}, append(make([]byte, 20), 0)...)
}

// TestSharedReaderRefusesV1Checkpoint: a data directory whose checkpoint
// is in the retired v1 format is refused loudly, naming the format; the
// reader never serves it as an empty dictionary.
func TestSharedReaderRefusesV1Checkpoint(t *testing.T) {
	env := newPersistEnv(t, dictionary.LayoutSorted, nil, 2, 10)
	backend := storage.NewFileBackend(t.TempDir(), false)
	lg, err := backend.Open("CA1")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(v1Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	reader, err := New(Config{
		Roots:      []*cert.Certificate{env.ca.RootCertificate()},
		Delta:      10 * time.Second,
		Layout:     dictionary.LayoutSorted,
		Storage:    backend,
		SharedData: true,
	})
	if err == nil {
		defer reader.Store().Close()
		_, err = reader.Status("CA1", serial.NewGenerator(0xD15C, nil).Next())
		if err == nil {
			t.Fatal("reader served a v1 checkpoint")
		}
	}
	if !strings.Contains(err.Error(), "unsupported checkpoint format") {
		t.Fatalf("v1 checkpoint refused with %v, want an unsupported-format error", err)
	}
}

// TestSharedReaderServesWALOnlyWriter: before the writer's first
// checkpoint its directory holds only WAL records; the reader serves them
// over an empty base, byte-identical to the writer, and moves to the
// mapped checkpoint once the writer installs one.
func TestSharedReaderServesWALOnlyWriter(t *testing.T) {
	for _, layout := range []dictionary.LayoutKind{dictionary.LayoutSorted, dictionary.LayoutForest} {
		t.Run(layout.String(), func(t *testing.T) {
			env := newPersistEnv(t, layout, nil, 6, 50)
			backend := storage.NewFileBackend(t.TempDir(), false)
			writer, err := New(Config{
				Roots:           []*cert.Certificate{env.ca.RootCertificate()},
				Origin:          env.dp,
				Delta:           10 * time.Second,
				Layout:          layout,
				Storage:         backend,
				CheckpointEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Store().Close()
			if err := writer.SyncOnce(); err != nil {
				t.Fatal(err)
			}
			reader, err := New(Config{
				Roots:      []*cert.Certificate{env.ca.RootCertificate()},
				Delta:      10 * time.Second,
				Layout:     layout,
				Storage:    backend,
				SharedData: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Store().Close()
			d, ok := reader.Store().sharedFor("CA1")
			if !ok {
				t.Fatal("reader has no shared dictionary for CA1")
			}

			probes := append(serial.NewGenerator(0xD15C, nil).NextN(6*50+50),
				serial.NewGenerator(0xAB5E, nil).NextN(20)...)
			requireSame := func(step string) {
				t.Helper()
				for _, sn := range probes {
					ws, err := writer.Status("CA1", sn)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := reader.Status("CA1", sn)
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if !bytes.Equal(ws.Encode(), rs.Encode()) {
						t.Fatalf("%s: writer and reader statuses differ for %v", step, sn)
					}
				}
			}

			if got := reader.Store().MappedBytes(); got != 0 {
				t.Fatalf("WAL-only directory: %d mapped bytes, want 0", got)
			}
			if d.load().snap.OverlayRecords() == 0 {
				t.Fatal("WAL-only directory: reader overlays no WAL records")
			}
			requireSame("WAL only")

			// The second update batch reaches the writer's cadence and
			// installs its first checkpoint.
			env.revoke(t, 1, 50)
			if err := writer.SyncOnce(); err != nil {
				t.Fatal(err)
			}
			if err := reader.SyncOnce(); err != nil {
				t.Fatal(err)
			}
			if got := reader.Store().MappedBytes(); got == 0 {
				t.Fatal("reader did not move to the writer's checkpoint mapping")
			}
			if n := d.load().snap.OverlayRecords(); n != 0 {
				t.Fatalf("after the checkpoint install the reader overlays %d records, want 0", n)
			}
			requireSame("after checkpoint")
		})
	}
}

// TestSharedConcurrentRemap is the -race half of the remap-window
// coverage: reader goroutines hammer Status (mapped proofs alias the
// checkpoint bytes) while the writer keeps absorbing revocations and
// installing checkpoints and another goroutine refreshes the reader.
// Every status served at any point during the churn must verify.
func TestSharedConcurrentRemap(t *testing.T) {
	env := newPersistEnv(t, dictionary.LayoutForest, nil, 8, 25)
	backend := storage.NewFileBackend(t.TempDir(), false)
	writer, reader := newSharedPair(t, env, dictionary.LayoutForest, backend)

	revoked := serial.NewGenerator(0xD15C, nil).NextN(200)
	absent := serial.NewGenerator(0xFA11, nil).NextN(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer churn: revoke, pull, checkpoint — each cycle installs a new
	// checkpoint (CheckpointEvery=1) under the reader's feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			env.revoke(t, 1, 10)
			if err := writer.SyncOnce(); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()

	// Reader refresh loop: remap as fast as stamps move.
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
		}
	}()

	// Serving loops: proofs must stay valid across every remap.
	pub := env.ca.PublicKey()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := revoked[(i*7+g)%len(revoked)]
				if i%3 == 0 {
					sn = absent[(i+g)%len(absent)]
				}
				i++
				st, err := reader.Status("CA1", sn)
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
}
