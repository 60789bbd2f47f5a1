package storage

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// Incremental reads: MapTail must return exactly the records a fresh Map
// would add after the previous read, and ErrRemap whenever it cannot
// prove the records continue that read.

// appendRecs appends payloads fmt'd from prefix and the indices [from, to).
func appendRecs(t testing.TB, lg Log, prefix string, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := lg.Append([]byte(fmt.Sprintf("%s-%d", prefix, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// requireRecs asserts that got holds prefix-from … prefix-(to-1).
func requireRecs(t testing.TB, got [][]byte, prefix string, from, to int) {
	t.Helper()
	if len(got) != to-from {
		t.Fatalf("%d records, want %d (%q)", len(got), to-from, got)
	}
	for i, rec := range got {
		if want := fmt.Sprintf("%s-%d", prefix, from+i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

// testMapTailContract exercises MapTail against any backend: resumption
// from Map and from a previous MapTail, empty reads, and ErrRemap on a
// checkpoint install or an unresumable position.
func testMapTailContract(t *testing.T, b Backend, mp Mapper) {
	lg := openMust(t, b, "d")
	defer lg.Close()

	// No checkpoint yet: nothing identifies the log, so no resumption.
	appendRecs(t, lg, "pre", 0, 2)
	mc, err := mp.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	mc.Close()
	if _, err := mp.MapTail("d", mc.Pos); !errors.Is(err, ErrRemap) {
		t.Fatalf("tail of a checkpoint-less log: err = %v, want ErrRemap", err)
	}
	if _, err := mp.MapTail("d", WALPos{}); !errors.Is(err, ErrRemap) {
		t.Fatalf("tail from the zero position: err = %v, want ErrRemap", err)
	}

	if err := lg.Checkpoint([]byte("state-1")); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, lg, "rec", 0, 3)
	mc, err = mp.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	requireRecs(t, mc.WAL, "rec", 0, 3)

	// Nothing appended: an empty read that keeps the position.
	tl, err := mp.MapTail("d", mc.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.WAL) != 0 || tl.Pos != mc.Pos || tl.Stamp != mc.Stamp {
		t.Fatalf("idle tail: %d records, pos moved %v", len(tl.WAL), tl.Pos != mc.Pos)
	}

	// Two rounds of appends, each read from the previous tail's position.
	pos := mc.Pos
	for round, n := range []int{1, 4} {
		from := 3 + round*10
		appendRecs(t, lg, "rec", from, from+n)
		want, _ := mp.MapStamp("d")
		tl, err := mp.MapTail("d", pos)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		requireRecs(t, tl.WAL, "rec", from, from+n)
		if tl.Stamp != want {
			t.Fatalf("round %d: tail stamp differs from MapStamp", round)
		}
		pos = tl.Pos
	}

	// A checkpoint install invalidates every earlier position, even once
	// the WAL has regrown past it.
	if err := lg.Checkpoint([]byte("state-2")); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, lg, "post", 0, 12)
	for _, p := range []WALPos{mc.Pos, pos} {
		if _, err := mp.MapTail("d", p); !errors.Is(err, ErrRemap) {
			t.Fatalf("tail across a checkpoint install: err = %v, want ErrRemap", err)
		}
	}
	mc2, err := mp.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	requireRecs(t, mc2.WAL, "post", 0, 12)
	if tl, err := mp.MapTail("d", mc2.Pos); err != nil || len(tl.WAL) != 0 {
		t.Fatalf("tail right after re-map: %d records, err %v", len(tl.WAL), err)
	}
}

func TestFileMapTailContract(t *testing.T) {
	b := NewFileBackend(t.TempDir(), false)
	testMapTailContract(t, b, b)
}

func TestMemoryMapTailContract(t *testing.T) {
	m := NewMemory()
	testMapTailContract(t, m, m)
}

// TestMemoryMapTailRecreatedLog: a destroyed and recreated log must not
// be mistaken for the one a position was read from.
func TestMemoryMapTailRecreatedLog(t *testing.T) {
	m := NewMemory()
	lg := openMust(t, m, "d")
	if err := lg.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	mc, err := m.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Destroy(); err != nil {
		t.Fatal(err)
	}
	lg = openMust(t, m, "d")
	defer lg.Close()
	if err := lg.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, lg, "new", 0, 2)
	if _, err := m.MapTail("d", mc.Pos); !errors.Is(err, ErrRemap) {
		t.Fatalf("tail of a recreated log: err = %v, want ErrRemap", err)
	}
}

// walFile returns the WAL path of log name under a file backend rooted at dir.
func walFile(dir, name string) string {
	return filepath.Join(dir, url.QueryEscape(name), walName)
}

func appendRaw(t testing.TB, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileMapTailFrameInFlight: a frame the writer is still appending is
// not returned, the position stays at the last complete frame, and the
// next read picks the completed frame up.
func TestFileMapTailFrameInFlight(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir, false)
	lg := openMust(t, b, "d")
	defer lg.Close()
	if err := lg.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, lg, "rec", 0, 1)
	mc, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	frame := EncodeFrame(nil, mc.Pos.lsn+1, []byte("rec-1"))
	appendRaw(t, walFile(dir, "d"), frame[:7])
	tl, err := b.MapTail("d", mc.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.WAL) != 0 || tl.Pos != mc.Pos {
		t.Fatalf("torn frame returned %d records or moved the position", len(tl.WAL))
	}
	appendRaw(t, walFile(dir, "d"), frame[7:])
	tl, err = b.MapTail("d", tl.Pos)
	if err != nil {
		t.Fatal(err)
	}
	requireRecs(t, tl.WAL, "rec", 1, 2)
}

// TestFileMapTailRemapsOnRewrite: a WAL that shrank, or whose frames past
// the position do not continue its lsn, forces a re-map.
func TestFileMapTailRemapsOnRewrite(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir, false)
	lg := openMust(t, b, "d")
	if err := lg.Checkpoint([]byte("s")); err != nil {
		t.Fatal(err)
	}
	appendRecs(t, lg, "rec", 0, 3)
	lg.Close()
	mc, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	wal := walFile(dir, "d")

	// Shrunk.
	if err := os.Truncate(wal, mc.Pos.off-1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MapTail("d", mc.Pos); !errors.Is(err, ErrRemap) {
		t.Fatalf("shrunk WAL: err = %v, want ErrRemap", err)
	}
	// Regrown to the same offset, then a frame that skips an lsn, and one
	// that repeats a covered lsn.
	for _, lsn := range []uint64{mc.Pos.lsn + 2, mc.Pos.lsn} {
		if err := os.Truncate(wal, mc.Pos.off); err != nil {
			t.Fatal(err)
		}
		appendRaw(t, wal, EncodeFrame(nil, lsn, []byte("x")))
		if _, err := b.MapTail("d", mc.Pos); !errors.Is(err, ErrRemap) {
			t.Fatalf("frame with lsn %d after position %d: err = %v, want ErrRemap", lsn, mc.Pos.lsn, err)
		}
	}
}

// TestFileMapTailNotResumableAfterFallback: a Map served from the
// fallback checkpoint is not the state the stamp identifies.
func TestFileMapTailNotResumableAfterFallback(t *testing.T) {
	dir := t.TempDir()
	b := NewFileBackend(dir, false)
	lg := openMust(t, b, "d")
	defer lg.Close()
	if err := lg.Checkpoint([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint([]byte("new")); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, url.QueryEscape("d"), ckptName)
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}
	mc, err := b.Map("d")
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if !bytes.Equal(mc.State, []byte("old")) {
		t.Fatalf("mapped %q, want the fallback", mc.State)
	}
	if _, err := b.MapTail("d", mc.Pos); !errors.Is(err, ErrRemap) {
		t.Fatalf("tail after a fallback map: err = %v, want ErrRemap", err)
	}
}

// fuzzTemplate writes a log with covered frames, a checkpoint, and three
// records after it, and returns the checkpoint and WAL file contents.
func fuzzTemplate(f *testing.F) (ckpt, wal []byte) {
	dir := f.TempDir()
	lg, err := NewFileBackend(dir, false).Open("d")
	if err != nil {
		f.Fatal(err)
	}
	appendRecs(f, lg, "covered", 0, 2)
	if err := lg.Checkpoint([]byte("state")); err != nil {
		f.Fatal(err)
	}
	appendRecs(f, lg, "rec", 0, 3)
	lg.Close()
	ckpt, err = os.ReadFile(filepath.Join(dir, url.QueryEscape("d"), ckptName))
	if err != nil {
		f.Fatal(err)
	}
	wal, err = os.ReadFile(walFile(dir, "d"))
	if err != nil {
		f.Fatal(err)
	}
	return ckpt, wal
}

// FuzzMapTail appends fuzz-chosen frames to a valid WAL — valid, lsn
// gaps, repeats, bit flips, torn, or raw bytes — in two writes with a
// MapTail after each, then checks the incremental reads against a model
// of the frames and against a fresh full Map. The reader reads bytes
// another process wrote: it must never panic, never return a record past
// a bad frame, and never return a record a full Map would not.
func FuzzMapTail(f *testing.F) {
	ckpt, wal := fuzzTemplate(f)
	f.Add([]byte{0, 5, 0, 3, 0, 0}, uint16(7))
	f.Add([]byte{0, 2, 1, 0, 0, 4}, uint16(40))
	f.Add([]byte{0, 9, 3, 2, 0, 1}, uint16(20))
	f.Add([]byte{0, 1, 4, 9}, uint16(19))
	f.Add([]byte{2, 0, 0, 3}, uint16(0))
	f.Add([]byte{0, 3, 5, 0xff, 0xff, 0xff, 0xff, 1, 2}, uint16(30))
	f.Fuzz(func(t *testing.T, ops []byte, split uint16) {
		dir := t.TempDir()
		logDir := filepath.Join(dir, url.QueryEscape("d"))
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, ckptName), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		b := NewFileBackend(dir, false)
		mc0, err := b.Map("d")
		if err != nil {
			t.Fatal(err)
		}
		defer mc0.Close()
		requireRecs(t, mc0.WAL, "rec", 0, 3)

		// Build the appended bytes and the model's verdict: the records a
		// reader may return, and whether the first bad frame is a
		// well-formed lsn break (ErrRemap) rather than garbage (stop).
		var tail []byte
		var want [][]byte
		wantRemap, known, bad := false, true, false
		next := mc0.Pos.lsn + 1
		for i := 0; i < len(ops); i++ {
			arg := 0
			if i+1 < len(ops) {
				arg = int(ops[i+1])
			}
			payload := bytes.Repeat([]byte{byte(i)}, arg%40)
			switch ops[i] % 6 {
			case 0: // valid frame
				tail = EncodeFrame(tail, next, payload)
				if !bad {
					want = append(want, payload)
				}
				next++
			case 1: // lsn gap
				tail = EncodeFrame(tail, next+1+uint64(arg%3), payload)
				wantRemap = wantRemap || !bad
				bad = true
			case 2: // repeated (covered) lsn
				tail = EncodeFrame(tail, next-1-uint64(arg%2), payload)
				wantRemap = wantRemap || !bad
				bad = true
			case 3: // bit flip past the length prefix: the CRC must catch it
				fr := EncodeFrame(nil, next, payload)
				fr[4+arg%(len(fr)-4)] ^= 1 << (arg % 8)
				tail = append(tail, fr...)
				bad = true
			case 4: // torn frame, always last
				fr := EncodeFrame(nil, next, payload)
				tail = append(tail, fr[:arg%len(fr)]...)
				bad = true
				i = len(ops)
			case 5: // raw bytes, always last; only the full Map is an oracle
				tail = append(tail, ops[i+1:]...)
				known = known && bad
				i = len(ops)
			}
			i++ // the argument byte
		}

		cut := int(split) % (len(tail) + 1)
		var got [][]byte
		pos, remapped := mc0.Pos, false
		for _, part := range [][]byte{tail[:cut], tail[cut:]} {
			appendRaw(t, walFile(dir, "d"), part)
			tl, err := b.MapTail("d", pos)
			if errors.Is(err, ErrRemap) {
				remapped = true
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if tl.Pos.lsn != pos.lsn+uint64(len(tl.WAL)) {
				t.Fatalf("position lsn %d after %d records from %d", tl.Pos.lsn, len(tl.WAL), pos.lsn)
			}
			got = append(got, tl.WAL...)
			pos = tl.Pos
		}

		full, err := b.Map("d")
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		if len(got) > len(full.WAL)-3 {
			t.Fatalf("tail returned %d records, a full map only %d after the position", len(got), len(full.WAL)-3)
		}
		for i, rec := range got {
			if !bytes.Equal(rec, full.WAL[3+i]) {
				t.Fatalf("tail record %d = %x, full map has %x", i, rec, full.WAL[3+i])
			}
		}
		if !remapped && len(got) != len(full.WAL)-3 {
			t.Fatalf("tail returned %d records without ErrRemap, full map %d", len(got), len(full.WAL)-3)
		}
		if !known {
			return
		}
		if remapped != wantRemap {
			t.Fatalf("ErrRemap = %v, want %v", remapped, wantRemap)
		}
		if len(got) > len(want) || (!remapped && len(got) != len(want)) {
			t.Fatalf("tail returned %d records, model allows %d", len(got), len(want))
		}
		for i, rec := range got {
			if !bytes.Equal(rec, want[i]) {
				t.Fatalf("tail record %d = %x, want %x", i, rec, want[i])
			}
		}
	})
}

// TestScanFramesAliasing: records alias the scanned buffer but are capped
// at their payload, so a caller appending to one cannot overwrite the
// next frame.
func TestScanFramesAliasing(t *testing.T) {
	buf := EncodeFrame(EncodeFrame(nil, 1, []byte("a")), 2, []byte("b"))
	sc := scanFrames(buf, 0)
	if len(sc.records) != 2 || sc.good != int64(len(buf)) {
		t.Fatalf("scan: %d records, good %d of %d", len(sc.records), sc.good, len(buf))
	}
	for i, rec := range sc.records {
		if cap(rec) != len(rec) {
			t.Fatalf("record %d: cap %d beyond its %d-byte payload", i, cap(rec), len(rec))
		}
	}
}
