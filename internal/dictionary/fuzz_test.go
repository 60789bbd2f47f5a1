package dictionary

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// FuzzDecodeProof hardens the proof decoder against hostile or corrupted
// bodies: truncations at every depth, bit flips, length-field lies, and
// spine-flag abuse. The seed corpus covers every proof shape of both
// layouts — presence, two-leaf absence, both boundary absences, the empty
// dictionary — with and without the versioned SpineSegment extension, plus
// classic malformations.
func FuzzDecodeProof(f *testing.F) {
	gen := serial.NewGenerator(0xF022, nil)
	sorted := NewTree()
	forest := NewTreeWithLayout(LayoutForest)
	batch := gen.NextN(600)
	if err := sorted.InsertBatch(batch); err != nil {
		f.Fatal(err)
	}
	if err := forest.InsertBatch(batch); err != nil {
		f.Fatal(err)
	}
	probes := []serial.Number{
		batch[0], batch[300], // presence
		gen.Next(), gen.Next(), // two-leaf absence (almost surely)
		serial.FromUint64(0), // left boundary
		mustMaxSerial(),      // right boundary
	}
	for _, s := range probes {
		f.Add(sorted.Prove(s).Encode()) // pre-forest encoding, no spine flag
		f.Add(forest.Prove(s).Encode()) // spine-flagged encoding
	}
	empty := NewTree().Prove(batch[0]).Encode()
	f.Add(empty)
	spined := forest.Prove(batch[0]).Encode()
	f.Add(spined[:1])                               // kind byte only
	f.Add(spined[:len(spined)/2])                   // mid-spine truncation
	f.Add(spined[:len(spined)-1])                   // one byte short
	f.Add(append(append([]byte{}, spined...), 0))   // trailing garbage
	f.Add([]byte{byte(ProofPresence) | 0x80, 0, 0}) // spine flag, no spine
	f.Add([]byte{0xff, 0x01, 0x02})                 // unknown kind + junk
	f.Add([]byte{2, 1, 0xff, 0xff, 0xff, 0xff})     // length-field lie
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProof(data)
		if err != nil {
			return // rejection is always acceptable; panics/hangs are the bug
		}
		// Accepted input: the encoding must round-trip to an equivalent
		// proof — same kind, same spine presence, byte-identical re-encode.
		enc := p.Encode()
		again, err := DecodeProof(enc)
		if err != nil {
			t.Fatalf("accepted proof failed second decode: %v", err)
		}
		if again.Kind != p.Kind || (again.Spine == nil) != (p.Spine == nil) {
			t.Fatal("second decode changed proof shape")
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("re-encoding unstable:\n in: %x\nout: %x", enc, again.Encode())
		}
	})
}

// mustMaxSerial returns the largest representable serial (20 × 0xff).
func mustMaxSerial() serial.Number {
	b := make([]byte, serial.MaxLen)
	for i := range b {
		b[i] = 0xff
	}
	s, err := serial.New(b)
	if err != nil {
		panic(err)
	}
	return s
}

// withSectionCRCs returns a copy of a (possibly mutated) v2 checkpoint with
// the CRC of every in-bounds section recomputed, so that fuzz mutations
// reach the structural checks behind the checksums.
func withSectionCRCs(buf []byte) []byte {
	out := append([]byte(nil), buf...)
	if !IsStateV2(out) || len(out) < v2HeaderLen {
		return out
	}
	le := binary.LittleEndian
	n := int(le.Uint32(out[8:]))
	for i := 0; i < n && v2HeaderLen+(i+1)*v2TableEntry <= len(out); i++ {
		e := out[v2HeaderLen+i*v2TableEntry:]
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		if off <= uint64(len(out)) && length <= uint64(len(out))-off {
			le.PutUint32(e[4:], crc32.ChecksumIEEE(out[off:off+length]))
		}
	}
	return out
}

// FuzzOpenMappedState hardens the v2 checkpoint parser, the trust boundary
// of every -shared-data reader (it maps bytes another process wrote).
// Inputs have their section CRCs recomputed after mutation. Opening, then
// serving — pure-mapped, and with a WAL record overlaid — must never
// panic, and any status whose proof verifies under its signed root must
// be byte-identical to the honest heap replica's: corruption may cost
// availability, never produce a different verifiable answer.
func FuzzOpenMappedState(f *testing.F) {
	const now = int64(1_700_000_000)
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		f.Fatal(err)
	}
	pub := signer.Public()
	type honest struct {
		base, full *Snapshot // after the first batch; after the WAL record too
		wal        [][]byte
	}
	fixtures := map[LayoutKind]honest{}
	gen := serial.NewGenerator(0xF022, nil)
	batches := [][]serial.Number{gen.NextN(50), gen.NextN(30)}
	for _, kind := range []LayoutKind{LayoutSorted, LayoutForest, LayoutForestWithCap(16)} {
		a, err := NewAuthority(AuthorityConfig{CA: "CA1", Signer: signer, Delta: 10 * time.Second, Layout: kind}, now)
		if err != nil {
			f.Fatal(err)
		}
		r := NewReplicaWithLayout("CA1", pub, kind)
		var h honest
		for i, b := range batches {
			msg, err := a.Insert(b, now)
			if err != nil {
				f.Fatal(err)
			}
			if err := r.Update(msg); err != nil {
				f.Fatal(err)
			}
			if i == 0 {
				h.base = r.Snapshot()
				f.Add(r.PersistentStateV2())
			} else {
				h.wal = [][]byte{(&UpdateRecord{Msg: msg}).Encode()}
			}
		}
		h.full = r.Snapshot()
		fixtures[kind] = h
	}
	f.Add(NewReplicaWithLayout("CA1", pub, LayoutSorted).PersistentStateV2())
	probes := append([]serial.Number{batches[0][0], batches[0][25], batches[1][7], serial.FromUint64(0), mustMaxSerial()},
		serial.NewGenerator(0xAB5E, nil).NextN(4)...)

	f.Fuzz(func(t *testing.T, data []byte) {
		data = withSectionCRCs(data)
		st, err := OpenMappedState(data)
		if err != nil {
			return
		}
		h, ok := fixtures[st.Layout()]
		if !ok {
			return
		}
		for _, run := range []struct {
			wal  [][]byte
			want *Snapshot
		}{{nil, h.base}, {h.wal, h.full}} {
			ms, err := NewMappedSnapshot("CA1", pub, st.Layout(), data, run.wal, now, 1)
			if err != nil {
				continue
			}
			for _, s := range probes {
				ms.Revoked(s)
				got, err := ms.Prove(s)
				if err != nil {
					continue
				}
				if _, err := got.Proof.Verify(s, got.Root.Root, got.Root.N); err != nil {
					continue
				}
				want, err := run.want.Prove(s)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Encode(), want.Encode()) {
					t.Fatalf("verifiable status for %v differs from the honest replica's", s)
				}
			}
		}
	})
}
