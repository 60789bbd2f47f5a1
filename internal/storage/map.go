package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/url"
	"os"
	"path/filepath"

	"ritm/internal/mmap"
)

// This file is the read-only side of the durable tier: mapping a log's
// state without opening it for writing. N co-located RA processes can
// point at one writer's data directory; each reader maps the current
// checkpoint (sharing physical pages via mmap where the platform allows)
// and polls a cheap Stamp to learn when the writer installed a new one.
//
// Readers never mutate anything — no torn-tail truncation, no WAL
// renumbering, no checkpoint repair. The writer's atomic-rename install
// discipline is what makes this safe: a mapped checkpoint file is never
// overwritten in place, so a live mapping stays byte-stable while the
// writer installs its successor, and the reader simply re-maps on the
// next stamp change.
//
// Between checkpoint installs the writer only appends, so a reader that
// remembers where its last read ended (WALPos) can resume there with
// MapTail and read just the new records, instead of re-mapping and
// re-reading the whole WAL suffix on every stamp change.

// Mapper is the optional read-only extension of Backend. Both built-in
// backends implement it: FileBackend maps checkpoint files (mmap on
// platforms that support it), Memory hands out copies guarded by a
// version counter.
type Mapper interface {
	// Map returns the newest valid checkpoint state and the WAL records
	// appended after it, without opening the log for writing. A log with
	// no durable state yet yields an empty (nil-State) checkpoint.
	Map(name string) (*MappedCheckpoint, error)
	// MapStamp fingerprints the log's durable state. It is cheap (two
	// stats for the file backend); an unchanged stamp means a prior Map
	// is still current, a changed one means the reader should re-Map —
	// or, while the checkpoint is unchanged, MapTail.
	MapStamp(name string) (Stamp, error)
	// MapTail returns the WAL records appended after pos, the position a
	// previous Map or MapTail of the same log ended at. It returns
	// ErrRemap whenever the records cannot be proven to continue pos:
	// the checkpoint was replaced, the WAL shrank or was rewritten, or
	// a frame breaks the lsn sequence. The caller then Maps afresh.
	MapTail(name string, pos WALPos) (*MappedTail, error)
}

// ErrRemap reports that an incremental read cannot resume from the given
// position; only a full Map yields a consistent view.
var ErrRemap = errors.New("storage: log moved past the read position; full re-map needed")

// Stamp is a comparable fingerprint of a log's durable state, used by
// read-only consumers to detect writer activity. Opaque: compare with
// ==, do not interpret.
type Stamp struct {
	ckpt    ckptID
	walSize int64 // file backend: WAL size; Memory: mutation counter
}

// ckptID identifies one installed checkpoint: its file's size and
// modification time for the file backend, a backend-wide install counter
// for Memory. The zero value means "no checkpoint".
type ckptID struct {
	size, mod int64
}

// WALPos is where a Map or MapTail read of a log's WAL ended: the
// checkpoint the records follow, the byte offset just past the last
// complete, checksum-valid frame returned, and that frame's lsn (the
// checkpoint's when none was). Opaque; the zero value is not resumable.
type WALPos struct {
	ckpt ckptID
	off  int64
	lsn  uint64
	ok   bool // false when the read cannot be resumed (no or fallback checkpoint, lsn hole)
}

// MappedTail is the result of an incremental read.
type MappedTail struct {
	// WAL holds the payloads of the records appended after the read
	// position, in order (heap-allocated, like MappedCheckpoint.WAL).
	WAL [][]byte
	// Stamp fingerprints the durable state, taken before the WAL was
	// read — same rule as MappedCheckpoint.Stamp.
	Stamp Stamp
	// Pos is where this read ended; pass it to the next MapTail.
	Pos WALPos
}

// MappedCheckpoint is one read-only view of a log's durable state.
type MappedCheckpoint struct {
	// State is the newest valid checkpoint payload, nil if none was ever
	// installed. For the file backend it aliases the mapping — valid
	// only until Close, shared with every other reader of the same file.
	State []byte
	// WAL holds the decoded payloads of the records appended after the
	// checkpoint, in order. Always heap-allocated (the WAL file mutates
	// in place, so aliasing it would not be stable).
	WAL [][]byte
	// Stamp fingerprints the durable state this view was taken from,
	// taken before the files were read: if MapStamp still returns it,
	// the view is current (a concurrent install can only make the stamp
	// newer than the view, never the reverse).
	Stamp Stamp
	// SharedPages reports whether State aliases a file mapping shared
	// with other processes (false for the heap fallback and Memory).
	SharedPages bool
	// Pos is where this view's WAL read ended; MapTail resumes there.
	Pos WALPos

	mapping *mmap.Mapping
}

// Close releases the mapping. State must not be touched after. Safe to
// call twice, and on a checkpoint with no mapping.
func (c *MappedCheckpoint) Close() error {
	if c.mapping == nil {
		return nil
	}
	m := c.mapping
	c.mapping = nil
	c.State = nil
	return m.Close()
}

// Map implements Mapper.
func (b *FileBackend) Map(name string) (*MappedCheckpoint, error) {
	if b.Dir == "" {
		return nil, fmt.Errorf("storage: file backend has no root directory")
	}
	dir := filepath.Join(b.Dir, url.QueryEscape(name))
	stamp, err := b.MapStamp(name)
	if err != nil {
		return nil, err
	}

	mc := &MappedCheckpoint{Stamp: stamp}
	var ckptLSN uint64
	fromCur := true // the mapped checkpoint is the one the stamp identifies
	m, state, lsn, err := mapCheckpoint(filepath.Join(dir, ckptName))
	if err != nil {
		// Newest damaged or missing mid-install (the window between the
		// cur→prev and tmp→cur renames has no cur at all): the fallback
		// plus the intact WAL is still a consistent prefix, same as
		// writer-side recovery. Only a doubly-missing pair means a
		// genuinely fresh log.
		curMissing := os.IsNotExist(err)
		fromCur = false
		m, state, lsn, err = mapCheckpoint(filepath.Join(dir, ckptPrevName))
		if err != nil && os.IsNotExist(err) && !curMissing {
			err = fmt.Errorf("%w: checkpoint damaged and no fallback", ErrCorrupt)
		}
	}
	switch {
	case err == nil:
		mc.mapping, mc.State, ckptLSN = m, state, lsn
		mc.SharedPages = m.Mapped()
	case os.IsNotExist(err):
		// Fresh log: no checkpoint yet, possibly WAL records.
	default:
		return nil, fmt.Errorf("storage: map %q: %w", name, err)
	}

	buf, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil && !os.IsNotExist(err) {
		mc.Close()
		return nil, fmt.Errorf("storage: map %q: %w", name, err)
	}
	// Records covered by the checkpoint (lsn ≤ ckptLSN) are skipped; a
	// torn tail — including a frame the writer is appending right now —
	// ends the scan. Readers tolerate, never repair.
	sc := scanFrames(buf, ckptLSN)
	mc.WAL = sc.records
	// A fallback checkpoint is not the one the stamp identifies, a hole
	// leaves frames past the kept prefix, and a log without a checkpoint
	// has nothing to tell it from a destroyed and recreated one: none of
	// these reads is resumable.
	mc.Pos = WALPos{
		ckpt: stamp.ckpt,
		off:  sc.good,
		lsn:  ckptLSN + uint64(len(sc.records)),
		ok:   fromCur && mc.State != nil && !sc.holed,
	}
	return mc, nil
}

// MapTail implements Mapper: it resumes at the end of the last complete
// frame the previous read returned, not at the stamped WAL size, and
// accepts only frames that continue the lsn sequence exactly.
func (b *FileBackend) MapTail(name string, pos WALPos) (*MappedTail, error) {
	stamp, err := b.MapStamp(name)
	if err != nil {
		return nil, err
	}
	if !pos.ok || stamp.ckpt != pos.ckpt || stamp.walSize < pos.off {
		return nil, ErrRemap
	}
	f, err := os.Open(filepath.Join(b.Dir, url.QueryEscape(name), walName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrRemap
		}
		return nil, fmt.Errorf("storage: map tail %q: %w", name, err)
	}
	buf, err := io.ReadAll(io.NewSectionReader(f, pos.off, math.MaxInt64-pos.off))
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("storage: map tail %q: %w", name, err)
	}
	// Past pos every frame must be the next lsn: a covered or skipped lsn
	// means the file was truncated and rewritten since the last read (a
	// checkpoint install racing the stamp, or a recovery rewrite).
	sc := scanFrames(buf, pos.lsn)
	if sc.holed || sc.stale {
		return nil, ErrRemap
	}
	next := pos
	next.off += sc.good
	next.lsn += uint64(len(sc.records))
	return &MappedTail{WAL: sc.records, Stamp: stamp, Pos: next}, nil
}

// MapStamp implements Mapper.
func (b *FileBackend) MapStamp(name string) (Stamp, error) {
	if b.Dir == "" {
		return Stamp{}, fmt.Errorf("storage: file backend has no root directory")
	}
	dir := filepath.Join(b.Dir, url.QueryEscape(name))
	var s Stamp
	if fi, err := os.Stat(filepath.Join(dir, ckptName)); err == nil {
		s.ckpt = ckptID{size: fi.Size(), mod: fi.ModTime().UnixNano()}
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err == nil {
		s.walSize = fi.Size()
	}
	return s, nil
}

// mapCheckpoint maps one checkpoint file and validates its framing and
// checksum, returning the mapping, the state payload (aliasing the
// mapping), and the lsn the checkpoint covers.
func mapCheckpoint(path string) (*mmap.Mapping, []byte, uint64, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	buf := m.Data()
	headerLen := len(checkpointMagic) + 12
	if len(buf) < headerLen+4 ||
		string(buf[:len(checkpointMagic)]) != string(checkpointMagic) {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: bad checkpoint framing", ErrCorrupt)
	}
	body := buf[len(checkpointMagic):]
	lsn := binary.BigEndian.Uint64(body[:8])
	n := binary.BigEndian.Uint32(body[8:12])
	if uint64(n) > maxRecordLen || len(body) != 12+int(n)+4 {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: bad checkpoint length", ErrCorrupt)
	}
	state := body[12 : 12+n]
	if crc32.ChecksumIEEE(body[:12+n]) != binary.BigEndian.Uint32(body[12+n:]) {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return m, state, lsn, nil
}

// Map implements Mapper: Memory hands out copies (there is no medium to
// share pages of).
func (m *Memory) Map(name string) (*MappedCheckpoint, error) {
	m.mu.Lock()
	st, ok := m.logs[name]
	m.mu.Unlock()
	if !ok {
		return &MappedCheckpoint{}, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	mc := &MappedCheckpoint{Stamp: st.stamp()}
	if st.checkpoint != nil {
		mc.State = append([]byte(nil), st.checkpoint...)
	}
	for _, rec := range st.wal {
		mc.WAL = append(mc.WAL, append([]byte(nil), rec.Payload...))
	}
	mc.Pos = WALPos{ckpt: mc.Stamp.ckpt, lsn: st.nextLSN - 1, ok: st.checkpoint != nil}
	return mc, nil
}

// MapStamp implements Mapper.
func (m *Memory) MapStamp(name string) (Stamp, error) {
	m.mu.Lock()
	st, ok := m.logs[name]
	m.mu.Unlock()
	if !ok {
		return Stamp{}, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stamp(), nil
}

// MapTail implements Mapper.
func (m *Memory) MapTail(name string, pos WALPos) (*MappedTail, error) {
	m.mu.Lock()
	st, ok := m.logs[name]
	m.mu.Unlock()
	if !ok || !pos.ok {
		return nil, ErrRemap
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	t := &MappedTail{Stamp: st.stamp(), Pos: pos}
	if t.Stamp.ckpt != pos.ckpt {
		return nil, ErrRemap
	}
	for _, rec := range st.wal {
		if rec.LSN <= pos.lsn {
			continue
		}
		if rec.LSN != t.Pos.lsn+1 {
			return nil, ErrRemap
		}
		t.WAL = append(t.WAL, append([]byte(nil), rec.Payload...))
		t.Pos.lsn++
	}
	return t, nil
}

// stamp fingerprints the log. Caller holds st.mu.
func (st *memoryState) stamp() Stamp {
	return Stamp{ckpt: ckptID{mod: int64(st.ckptID)}, walSize: int64(st.version)}
}
