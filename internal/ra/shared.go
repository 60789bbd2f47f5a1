package ra

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/storage"
)

// This file is the reader half of the shared replica store: N co-located
// RA processes point at ONE writer's data directory. The writer is a
// normal RA (Storage configured, fetcher running) that pulls from the
// dissemination network, verifies, WAL-appends, and checkpoints; readers
// (StoreOptions.SharedData) never open the logs for writing — they map
// the current checkpoint (physical pages shared across processes via
// mmap), overlay the WAL suffix as a small heap delta, and poll a cheap
// stamp to learn when the writer moved. The paper's RA is an untrusted
// prover (§V), so a reader trusts its mapping no more than the writer
// trusted the network: every signed root is re-verified on map, and
// corruption can only cost availability, never forge a status.

// servingSnapshot is the per-generation read contract the shared path
// serves statuses from. Both dictionary.MappedSnapshot (v2 checkpoints,
// zero-copy) and dictionary.Snapshot (the heap fallback for a writer
// that has not rewritten its checkpoint as v2 yet) satisfy it.
type servingSnapshot interface {
	Prove(sn serial.Number) (*dictionary.Status, error)
	Root() *dictionary.SignedRoot
	Count() uint64
}

// sharedState is one published (snapshot, generation) pair. Publishing
// them together keeps the status cache sound: a cached entry's
// generation always labels the snapshot it was actually computed from.
type sharedState struct {
	snap servingSnapshot
	gen  uint64
}

// retainedMappings bounds how many superseded checkpoint mappings a
// sharedDict keeps alive before closing the oldest. A mapping must
// outlive every Prove that started against it — against any snapshot
// read from it, extensions included; Proves are microseconds and
// checkpoint installs are many refreshes apart, so a four-mapping grace
// is beyond conservative.
const retainedMappings = 4

// sharedDict serves one CA's dictionary from another process's durable
// log, read-only. It is the shared-mode analog of a replica: the store
// routes Status/Prove/LatestRoot through it, and the sync loop calls
// refresh instead of pulling from an origin.
type sharedDict struct {
	ca     dictionary.CAID
	pub    ed25519.PublicKey
	layout dictionary.LayoutKind
	mapper storage.Mapper
	name   string
	now    func() time.Time

	state atomic.Pointer[sharedState]

	mu        sync.Mutex // serializes refresh and close
	stamp     storage.Stamp
	haveStamp bool
	pos       storage.WALPos // where the last read of the writer's WAL ended
	closed    bool
	current   *storage.MappedCheckpoint   // mapping backing state's snapshot (nil for heap fallback)
	retired   []*storage.MappedCheckpoint // superseded mappings, grace-period before close
}

// newSharedDict builds the reader for one CA and performs the initial
// map, so a freshly added CA serves immediately when the writer already
// has state.
func newSharedDict(ca dictionary.CAID, pub ed25519.PublicKey, layout dictionary.LayoutKind, mapper storage.Mapper, now func() time.Time) (*sharedDict, error) {
	d := &sharedDict{ca: ca, pub: pub, layout: layout, mapper: mapper, name: string(ca), now: now}
	if err := d.refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

// CurrentGeneration implements cacheSource.
func (d *sharedDict) CurrentGeneration() uint64 {
	if st := d.state.Load(); st != nil {
		return st.gen
	}
	return 0
}

// load returns the current (snapshot, generation), or nil before the
// writer has published anything.
func (d *sharedDict) load() *sharedState { return d.state.Load() }

// refresh brings the reader up to the writer's durable state if its
// stamp moved, publishing a new snapshot generation. While the writer's
// checkpoint is unchanged it reads only the WAL records appended since
// the last refresh and extends the current snapshot by them; a new
// checkpoint, or anything the tail read or the extension cannot vouch
// for, takes a full re-map. It is cheap when nothing changed (two stats
// on the file backend) and safe to call concurrently.
func (d *sharedDict) refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("ra: shared dictionary %s is closed", d.ca)
	}
	stamp, err := d.mapper.MapStamp(d.name)
	if err != nil {
		return fmt.Errorf("ra: stamp shared %s: %w", d.ca, err)
	}
	if d.haveStamp && stamp == d.stamp {
		return nil
	}
	gen := d.CurrentGeneration() + 1
	now := d.now().Unix()
	if d.extend(gen, now) {
		return nil
	}
	mc, err := d.mapper.Map(d.name)
	if err != nil {
		return fmt.Errorf("ra: map shared %s: %w", d.ca, err)
	}

	var snap servingSnapshot
	keepMapping := false
	if mc.State != nil && dictionary.IsStateV2(mc.State) {
		ms, err := dictionary.NewMappedSnapshot(d.ca, d.pub, d.layout, mc.State, mc.WAL, now, gen)
		if err != nil {
			mc.Close()
			return fmt.Errorf("ra: open shared %s: %w", d.ca, err)
		}
		snap, keepMapping = ms, true
	} else {
		// v1 checkpoint (writer not restarted since the v2 upgrade), or no
		// checkpoint at all yet: rebuild on the heap from a private copy.
		// The copy lets the mapping close immediately — heap restore may
		// retain decoded sub-slices — and costs one allocation on a path
		// that disappears as soon as the writer checkpoints in v2.
		state := append([]byte(nil), mc.State...)
		wal := mc.WAL
		mc.Close()
		replica, err := dictionary.RecoverReplicaLog(readonlyLog{state: state, wal: wal}, d.ca, d.pub, d.layout, now)
		if err != nil {
			return fmt.Errorf("ra: open shared %s: %w", d.ca, err)
		}
		snap = replica.Snapshot()
	}

	// Superseded mappings rotate out only here, when a new one is taken:
	// every snapshot extended from a mapping reads that mapping, so it
	// lives as long as the mapping does.
	if keepMapping {
		if d.current != nil {
			d.retired = append(d.retired, d.current)
		}
		d.current = mc
		for len(d.retired) > retainedMappings {
			d.retired[0].Close()
			d.retired = d.retired[1:]
		}
	} else if d.current != nil {
		d.retired = append(d.retired, d.current)
		d.current = nil
	}
	d.state.Store(&sharedState{snap: snap, gen: gen})
	d.stamp, d.haveStamp, d.pos = mc.Stamp, true, mc.Pos
	return nil
}

// extend is refresh's tail path: it reads the WAL records appended since
// the last read and extends the current mapped snapshot by them, reusing
// the current mapping. It reports false — leaving everything unchanged —
// when the current snapshot is not mapped (heap fallback) or when the
// tail read or the extension fails for any reason; the caller re-maps,
// which either recovers or reports the error the same way a re-map
// always did.
func (d *sharedDict) extend(gen uint64, now int64) bool {
	st := d.state.Load()
	if st == nil {
		return false
	}
	prev, ok := st.snap.(*dictionary.MappedSnapshot)
	if !ok {
		return false
	}
	tail, err := d.mapper.MapTail(d.name, d.pos)
	if err != nil {
		return false
	}
	ms, err := prev.Extend(tail.WAL, now, gen)
	if err != nil {
		return false
	}
	d.state.Store(&sharedState{snap: ms, gen: gen})
	d.stamp, d.pos = tail.Stamp, tail.Pos
	return true
}

// mappedBytes reports the size of the currently mapped checkpoint (0 for
// the heap fallback); benchmarks use it to attribute file-backed
// residency separately from heap.
func (d *sharedDict) mappedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.current == nil {
		return 0
	}
	return len(d.current.State)
}

// close releases every retained mapping. Proves in flight at close are
// the caller's problem, as with Store.Close and the durable logs.
func (d *sharedDict) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var firstErr error
	for _, mc := range d.retired {
		if err := mc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.retired = nil
	if d.current != nil {
		if err := d.current.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		d.current = nil
	}
	return firstErr
}

// readonlyLog adapts an already-read (checkpoint, WAL) pair to the
// storage.Log interface so RecoverReplicaLog can rebuild from it. The
// mutating methods succeed as no-ops: recovery's v1→v2 checkpoint
// rewrite is discarded — the files belong to the writer process, and the
// reader's rebuilt state is equivalent either way.
type readonlyLog struct {
	state []byte
	wal   [][]byte
}

func (l readonlyLog) Load() ([]byte, [][]byte, error) { return l.state, l.wal, nil }
func (l readonlyLog) Append([]byte) error             { return nil }
func (l readonlyLog) Checkpoint([]byte) error         { return nil }
func (l readonlyLog) Close() error                    { return nil }
func (l readonlyLog) Destroy() error                  { return nil }
