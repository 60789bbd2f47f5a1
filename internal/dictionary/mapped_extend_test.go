package dictionary

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Extend must be indistinguishable from a one-shot NewMappedSnapshot over
// the same (checkpoint, WAL prefix): same root, count, freshness, overlay
// accounting, and byte-identical statuses — while every snapshot it was
// derived from keeps serving its own version unchanged.

// extendKinds covers both layouts, plus a small-capacity forest whose
// buckets split on almost every batch.
func extendKinds() []LayoutKind {
	return []LayoutKind{LayoutSorted, LayoutForest, LayoutForestWithCap(16)}
}

// extendFixture is a checkpoint plus a random WAL suffix: single and
// coalesced (bounded) update records, re-delivered and checkpoint-covered
// roots, and freshness records — current, future, superseded and off-chain
// — all evaluated at one fixed time.
type extendFixture struct {
	a      *Authority
	kind   LayoutKind
	state  []byte
	wal    [][]byte
	now    int64
	probes []serial.Number
}

func newExtendFixture(t *testing.T, kind LayoutKind, seed uint64) *extendFixture {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xE7E))
	t0 := int64(1_700_000_000)
	delta := int64(testDelta.Seconds())
	a := newTestAuthorityWithLayout(t, t0, kind)
	gen := serial.NewGenerator(seed, nil)
	fx := &extendFixture{a: a, kind: kind, now: t0 + 6*delta}

	insert := func(n int) *IssuanceMessage {
		batch := gen.NextN(n)
		msg, err := a.Insert(batch, t0)
		if err != nil {
			t.Fatal(err)
		}
		fx.probes = append(fx.probes, batch[0], batch[n/2], batch[n-1])
		return msg
	}

	base := NewReplicaWithLayout(a.CA(), a.PublicKey(), kind)
	var baseMsgs []*IssuanceMessage
	for i := 0; i < 3; i++ {
		msg := insert(40 + rng.IntN(300))
		if err := base.Update(msg); err != nil {
			t.Fatal(err)
		}
		baseMsgs = append(baseMsgs, msg)
	}
	fx.state = base.PersistentStateV2()

	last := baseMsgs[len(baseMsgs)-1]
	for len(fx.wal) < 28 {
		var rec []byte
		switch r := rng.IntN(12); {
		case r < 5:
			last = insert(1 + rng.IntN(400))
			rec = (&UpdateRecord{Msg: last}).Encode()
		case r < 7: // a writer's coalesced catch-up: one record, batch bounds
			var all []serial.Number
			var bounds []uint64
			for j := 0; j < 2+rng.IntN(2); j++ {
				msg := insert(1 + rng.IntN(150))
				all = append(all, msg.Serials...)
				bounds = append(bounds, msg.Root.N)
				last = msg
			}
			rec = (&UpdateRecord{Msg: &IssuanceMessage{Serials: all, Root: last.Root}, Bounds: bounds}).Encode()
		case r < 8: // re-delivered latest root, or one the checkpoint covers
			msg := last
			if rng.IntN(2) == 0 {
				msg = baseMsgs[rng.IntN(len(baseMsgs))]
			}
			rec = (&UpdateRecord{Msg: msg}).Encode()
		case r < 11: // periods 0..8 at a mapping time in period 6
			stmt, err := a.Statement(t0 + int64(rng.IntN(9))*delta)
			if err != nil {
				t.Fatal(err)
			}
			rec = (&FreshnessRecord{Value: stmt.Value}).Encode()
		default:
			rec = (&FreshnessRecord{Value: cryptoutil.HashBytes(gen.Next().Raw())}).Encode()
		}
		fx.wal = append(fx.wal, rec)
	}
	fx.probes = append(fx.probes, serial.NewGenerator(seed^0xAB5E17, nil).NextN(24)...)
	return fx
}

// oneShot maps the checkpoint with the first k WAL records.
func (fx *extendFixture) oneShot(t *testing.T, k int, gen uint64) *MappedSnapshot {
	t.Helper()
	ms, err := NewMappedSnapshot(fx.a.CA(), fx.a.PublicKey(), fx.kind, fx.state, fx.wal[:k], fx.now, gen)
	if err != nil {
		t.Fatalf("one-shot map of %d records: %v", k, err)
	}
	return ms
}

// statuses encodes the status of every probe (nil where Prove fails).
func statuses(ms *MappedSnapshot, probes []serial.Number) [][]byte {
	out := make([][]byte, len(probes))
	for i, sn := range probes {
		if st, err := ms.Prove(sn); err == nil {
			out[i] = st.Encode()
		}
	}
	return out
}

// requireSameMapped asserts got serves exactly what want serves.
func requireSameMapped(t *testing.T, want, got *MappedSnapshot, probes []serial.Number) {
	t.Helper()
	if (want.Root() == nil) != (got.Root() == nil) ||
		(want.Root() != nil && !bytes.Equal(want.Root().Encode(), got.Root().Encode())) {
		t.Fatal("signed roots differ")
	}
	if !want.RootHash().Equal(got.RootHash()) {
		t.Fatal("root hashes differ")
	}
	if want.Count() != got.Count() {
		t.Fatalf("count %d, want %d", got.Count(), want.Count())
	}
	if !want.Freshness().Equal(got.Freshness()) || want.FreshnessPeriod() != got.FreshnessPeriod() {
		t.Fatalf("freshness (%v, %d), want (%v, %d)", got.Freshness(), got.FreshnessPeriod(), want.Freshness(), want.FreshnessPeriod())
	}
	if want.OverlayRecords() != got.OverlayRecords() {
		t.Fatalf("overlay records %d, want %d", got.OverlayRecords(), want.OverlayRecords())
	}
	ws, gs := statuses(want, probes), statuses(got, probes)
	for i := range probes {
		if !bytes.Equal(ws[i], gs[i]) {
			t.Fatalf("status of %v differs", probes[i])
		}
		if want.Revoked(probes[i]) != got.Revoked(probes[i]) {
			t.Fatalf("Revoked(%v) differs", probes[i])
		}
	}
}

// TestMappedSnapshotExtendEquivalence chains Extends over random splits of
// random WAL suffixes and compares every link with a one-shot map of the
// same prefix; at the end every earlier link must still serve exactly
// what it served when it was built.
func TestMappedSnapshotExtendEquivalence(t *testing.T) {
	for _, kind := range extendKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				fx := newExtendFixture(t, kind, seed)
				rng := rand.New(rand.NewPCG(seed, 0x5EED))
				k := rng.IntN(3)
				ms, err := NewMappedSnapshot(fx.a.CA(), fx.a.PublicKey(), kind, fx.state, fx.wal[:k], fx.now, 1)
				if err != nil {
					t.Fatal(err)
				}
				type link struct {
					ms   *MappedSnapshot
					want [][]byte
				}
				var chain []link
				for gen := uint64(2); ; gen++ {
					requireSameMapped(t, fx.oneShot(t, k, gen), ms, fx.probes)
					chain = append(chain, link{ms, statuses(ms, fx.probes)})
					if k == len(fx.wal) {
						break
					}
					next := min(k+rng.IntN(4), len(fx.wal))
					if ms, err = ms.Extend(fx.wal[k:next], fx.now, gen); err != nil {
						t.Fatalf("seed %d: extend by records %d..%d: %v", seed, k, next, err)
					}
					if ms.Generation() != gen {
						t.Fatalf("generation %d, want %d", ms.Generation(), gen)
					}
					k = next
				}
				for i, l := range chain {
					if got := statuses(l.ms, fx.probes); !equalAll(got, l.want) {
						t.Fatalf("seed %d: link %d changed after later extensions", seed, i)
					}
				}
			}
		})
	}
}

func equalAll(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestMappedSnapshotExtendRejectsForgedRecord: the tail path applies the
// same acceptance rule as a full map — a record whose serials disagree
// with its signed root, or whose root another key signed, is refused, and
// the snapshot it was offered to is left intact and still extendable.
func TestMappedSnapshotExtendRejectsForgedRecord(t *testing.T) {
	now := int64(1_700_000_000)
	for _, kind := range extendKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			batches := fixtureBatches(0xBAD, []int{300, 80, 120})
			a, _, msgs := mappedFixture(t, kind, batches, now)
			part := NewReplicaWithLayout(a.CA(), a.PublicKey(), kind)
			if err := part.Update(msgs[0]); err != nil {
				t.Fatal(err)
			}
			state := part.PersistentStateV2()
			rec := func(m *IssuanceMessage) []byte { return (&UpdateRecord{Msg: m}).Encode() }
			ms, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, state, [][]byte{rec(msgs[1])}, now, 1)
			if err != nil {
				t.Fatal(err)
			}
			probes := append(append([]serial.Number(nil), batches[1]...), batches[2][:20]...)
			before := statuses(ms, probes)

			forged := *msgs[2]
			forged.Serials = append([]serial.Number(nil), msgs[2].Serials...)
			forged.Serials[3] = serial.NewGenerator(0xEE, nil).Next()
			if _, err := ms.Extend([][]byte{rec(&forged)}, now, 2); !errors.Is(err, ErrRootMismatch) {
				t.Fatalf("forged record on the tail path: err = %v, want ErrRootMismatch", err)
			}
			other := newTestAuthorityWithLayout(t, now, kind)
			alien, err := other.Insert(msgs[2].Serials, now)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ms.Extend([][]byte{rec(alien)}, now, 2); err == nil {
				t.Fatal("record signed by another key accepted on the tail path")
			}
			if !equalAll(statuses(ms, probes), before) {
				t.Fatal("rejected extensions changed the snapshot they were offered to")
			}

			good, err := ms.Extend([][]byte{rec(msgs[2])}, now, 3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, state, [][]byte{rec(msgs[1]), rec(msgs[2])}, now, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMapped(t, want, good, probes)
		})
	}
}

// TestMappedSnapshotExtendRetriesFreshness: a freshness record read before
// its period began (a reader clock behind the writer's) is adopted by a
// later Extend, as a one-shot map at that later time would adopt it.
func TestMappedSnapshotExtendRetriesFreshness(t *testing.T) {
	now := int64(1_700_000_000)
	delta := int64(testDelta.Seconds())
	for _, kind := range []LayoutKind{LayoutSorted, LayoutForest} {
		t.Run(kind.String(), func(t *testing.T) {
			a, r, _ := mappedFixture(t, kind, fixtureBatches(0xF4E5, []int{70, 30}), now)
			stmt, err := a.Statement(now + 5*delta)
			if err != nil {
				t.Fatal(err)
			}
			state := r.PersistentStateV2()
			wal := [][]byte{(&FreshnessRecord{Value: stmt.Value}).Encode()}
			early, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, state, wal, now+3*delta, 1)
			if err != nil {
				t.Fatal(err)
			}
			if early.Freshness().Equal(stmt.Value) {
				t.Fatal("statement for period 5 adopted at period 3")
			}
			later, err := early.Extend(nil, now+5*delta, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, state, wal, now+5*delta, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Freshness().Equal(stmt.Value) {
				t.Fatal("one-shot map at period 5 did not adopt the statement")
			}
			requireSameMapped(t, want, later, serial.NewGenerator(0x11, nil).NextN(8))
		})
	}
}

// TestMappedSnapshotExtendConcurrentProves runs Proves on every earlier
// snapshot of a chain while the chain keeps extending (run under -race):
// an extension must never write to an array an older snapshot reads.
func TestMappedSnapshotExtendConcurrentProves(t *testing.T) {
	for _, kind := range extendKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fx := newExtendFixture(t, kind, 9)
			ms, err := NewMappedSnapshot(fx.a.CA(), fx.a.PublicKey(), kind, fx.state, nil, fx.now, 1)
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu   sync.Mutex
				olds []*MappedSnapshot
				want [][][]byte
				wg   sync.WaitGroup
				done = make(chan struct{})
			)
			publish := func(s *MappedSnapshot) {
				enc := statuses(s, fx.probes)
				mu.Lock()
				olds, want = append(olds, s), append(want, enc)
				mu.Unlock()
			}
			publish(ms)
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						mu.Lock()
						j := i % len(olds)
						s, w := olds[j], want[j]
						mu.Unlock()
						p := i % len(fx.probes)
						var got []byte
						if st, err := s.Prove(fx.probes[p]); err == nil {
							got = st.Encode()
						}
						if !bytes.Equal(got, w[p]) {
							t.Errorf("snapshot %d changed its status of %v under a concurrent extension", j, fx.probes[p])
							return
						}
					}
				}(g)
			}
			for k := 0; k < len(fx.wal); k += 2 {
				next, err := ms.Extend(fx.wal[k:min(k+2, len(fx.wal))], fx.now, uint64(k+2))
				if err != nil {
					t.Error(err)
					break
				}
				ms = next
				publish(ms)
			}
			close(done)
			wg.Wait()
		})
	}
}
