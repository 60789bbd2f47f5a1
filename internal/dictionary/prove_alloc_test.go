package dictionary

import (
	"testing"

	"ritm/internal/serial"
)

// proveAllocCase is one {backing, layout, probe} cell of the pin table.
type proveAllocCase struct {
	backing string // heap, mapped, overlay, overlay-mapped
	kind    LayoutKind
	absent  bool
	want    float64
}

// TestProveAllocsPinned pins the allocations of one Status proof on every
// backing the single proof walk runs over — a heap snapshot, a pure-mapped
// checkpoint, and a WAL overlay on a mapped checkpoint — for both layouts,
// present and absent. Every backing pays the Status, the proof arena, and
// the shared path array. A mapped proof also copies each proof leaf's
// serial off the map, and a pure-mapped forest proof the bucket's two
// range bounds: the checkpoint may be unmapped while a cached Status
// still holds them.
//
// The probes land in interior forest buckets (both bounds set), between
// two leaves when absent. The overlay probes land in buckets a large WAL
// batch touched, so they prove from heap arrays like the writer; the
// overlay-mapped probes land in buckets a small one did not touch, which
// keep proving from the map (their bounds were copied once, when the
// overlay was built).
func TestProveAllocsPinned(t *testing.T) {
	const now = int64(1_700_000_000)
	cases := []proveAllocCase{
		{"heap", LayoutSorted, false, 3}, {"heap", LayoutSorted, true, 3},
		{"heap", LayoutForest, false, 3}, {"heap", LayoutForest, true, 3},
		{"mapped", LayoutSorted, false, 4}, {"mapped", LayoutSorted, true, 5},
		{"mapped", LayoutForest, false, 6}, {"mapped", LayoutForest, true, 7},
		{"overlay", LayoutSorted, false, 3}, {"overlay", LayoutSorted, true, 3},
		{"overlay", LayoutForest, false, 3}, {"overlay", LayoutForest, true, 3},
		{"overlay-mapped", LayoutForest, false, 4}, {"overlay-mapped", LayoutForest, true, 5},
	}
	batches := fixtureBatches(0xA77C, []int{300, 500, 600, 3})
	srcs := map[LayoutKind]map[string]func(serial.Number) (*Status, error){}
	for _, kind := range layoutKinds() {
		a, full, msgs := mappedFixture(t, kind, batches, now)
		// overlay: checkpoint at batch 2, WAL batches 3–4 (the 600-leaf
		// batch touches every bucket); overlay-mapped: checkpoint at batch
		// 3, WAL batch 4 (3 leaves).
		overlay := func(base int) *MappedSnapshot {
			part := NewReplicaWithLayout(a.CA(), a.PublicKey(), kind)
			var wal [][]byte
			for i, msg := range msgs {
				if i < base {
					if err := part.Update(msg); err != nil {
						t.Fatal(err)
					}
				} else {
					wal = append(wal, (&UpdateRecord{Msg: msg}).Encode())
				}
			}
			ms, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, part.PersistentStateV2(), wal, now, 1)
			if err != nil {
				t.Fatal(err)
			}
			if ms.OverlayRecords() != len(wal) {
				t.Fatalf("%v: overlay snapshot overlays %d records, want %d", kind, ms.OverlayRecords(), len(wal))
			}
			return ms
		}
		mapped, err := NewMappedSnapshot(a.CA(), a.PublicKey(), kind, full.PersistentStateV2(), nil, now, 1)
		if err != nil {
			t.Fatal(err)
		}
		srcs[kind] = map[string]func(serial.Number) (*Status, error){
			"heap": full.Snapshot().Prove, "mapped": mapped.Prove,
			"overlay": overlay(2).Prove, "overlay-mapped": overlay(3).Prove,
		}
	}

	// Probes: the first candidates that land strictly inside an interior
	// forest bucket the small last batch did not touch.
	forest := srcs[LayoutForest]["heap"]
	forestProof := func(s serial.Number) *Proof {
		st, err := forest(s)
		if err != nil {
			t.Fatal(err)
		}
		return st.Proof
	}
	touched := map[uint64]bool{}
	for _, s := range batches[3] {
		touched[forestProof(s).Spine.BucketIndex] = true
	}
	usable := func(p *Proof) bool {
		return !p.Spine.Lo.IsZero() && !p.Spine.Hi.IsZero() && !touched[p.Spine.BucketIndex]
	}
	var present, absent serial.Number
	for _, s := range batches[0] {
		if usable(forestProof(s)) {
			present = s
			break
		}
	}
	for gen := serial.NewGenerator(0xAB5E, nil); absent.IsZero(); {
		s := gen.Next()
		if p := forestProof(s); p.Kind == ProofAbsence && p.Left != nil && p.Right != nil && usable(p) {
			absent = s
		}
	}
	if present.IsZero() {
		t.Fatal("no present probe in an untouched interior bucket")
	}

	for _, c := range cases {
		s := present
		if c.absent {
			s = absent
		}
		prove := srcs[c.kind][c.backing]
		st, err := prove(s)
		if err != nil {
			t.Fatal(err)
		}
		if isAbsence := st.Proof.Kind != ProofPresence; isAbsence != c.absent {
			t.Fatalf("%s/%v: probe kind %v, want absent=%v", c.backing, c.kind, st.Proof.Kind, c.absent)
		}
		if c.absent && (st.Proof.Left == nil || st.Proof.Right == nil) {
			t.Fatalf("%s/%v: absent probe is not bounded by two leaves", c.backing, c.kind)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := prove(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s/%v/absent=%v: Prove allocs/op = %.1f, pinned at %.0f", c.backing, c.kind, c.absent, allocs, c.want)
		}
	}
}
