package dictionary

import (
	"crypto/ed25519"
	"fmt"
	"sort"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Mapped serving: LayoutView implementations that prove directly over a v2
// checkpoint's bytes (typically an mmap'd file), plus MappedSnapshot — the
// read side of the Snapshot contract for processes that share one
// checkpoint directory instead of owning a heap replica.
//
// The mapped views produce proofs BYTE-IDENTICAL to their heap
// counterparts: the binary searches, audit-path walks, and boundary cases
// below mirror sortedView.Prove / forestView.Prove line for line, only
// reading leaves and hashes out of the mapped arrays instead of Go slices.
// The cross-layout property suite pins this equivalence.
//
// WAL overlay. A checkpoint lags the WAL by up to CheckpointEvery records.
// A MappedSnapshot therefore applies the WAL suffix as a small in-heap
// delta on top of the mapped base:
//
//   - forest: only the buckets an overlaid batch touches are materialized
//     onto the heap (≤ cap leaves each); untouched buckets keep serving
//     from the map. The spine is rebuilt in heap over all bucket nodes —
//     O(#buckets), and deterministic, so the recomputed root must equal
//     each record's CA-signed root, which is verified loudly.
//   - sorted: the whole structure is materialized first (a sorted-layout
//     insert rewrites the arrays to the right of the insertion point, so
//     there is no small delta to isolate — the documented O(n) overlay
//     cost; deployments that co-locate RAs are expected to run the forest
//     layout).
//
// When the WAL suffix is empty — the steady state right after the writer's
// checkpoint — the snapshot serves pure-mapped with zero dictionary heap.
//
// Extension. Between the writer's checkpoints a reader does not rebuild
// the overlay from the whole suffix on every refresh: Extend derives the
// next snapshot from the current one plus only the records appended since,
// inserting into a copy of its overlay header (fresh bucket lists, fresh
// or copy-on-write arrays), so older snapshots stay byte-stable while they
// keep serving.

// mustLeaf materializes sorted leaf i; OpenMappedState validated every
// leaf record, so failure here is impossible by construction.
func (st *MappedState) mustLeaf(i int) Leaf {
	lf, err := st.leafAt(i)
	if err != nil {
		panic(err)
	}
	return lf
}

// mustNumber converts validated canonical serial bytes (possibly empty =
// unbounded bucket bound) into a serial.Number, copying.
func mustNumber(raw []byte) serial.Number {
	if len(raw) == 0 {
		return serial.Number{}
	}
	s, err := serial.New(raw)
	if err != nil {
		panic(err)
	}
	return s
}

// mappedSortedView proves over the mapped sorted layout. It mirrors
// sortedView.Prove exactly.
type mappedSortedView struct {
	st *MappedState
}

func (v mappedSortedView) Root() cryptoutil.Hash { return v.st.treeRoot }

func (v mappedSortedView) Revoked(s serial.Number) (uint64, bool) {
	lo := v.st.searchLeaf(s)
	if lo < v.st.count {
		if raw, num := v.st.leafRaw(lo); compareRaw(raw, s.Raw()) == 0 {
			return num, true
		}
	}
	return 0, false
}

func (v mappedSortedView) Prove(s serial.Number) *Proof {
	st := v.st
	if st.count == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
	return st.proveRun(s, 0, st.count, st.searchLeaf(s), st.sortedLevels(), nil, nil, nil, 0)
}

// mappedForestView proves over the mapped forest layout, mirroring
// forestView.Prove.
type mappedForestView struct {
	st *MappedState
}

func (v mappedForestView) Root() cryptoutil.Hash { return v.st.treeRoot }

func (v mappedForestView) Revoked(s serial.Number) (uint64, bool) {
	st := v.st
	if st.nb == 0 {
		return 0, false
	}
	m := st.bucketMeta(st.bucketFor(s))
	idx := st.bucketSearch(m, s)
	if idx < m.leafCount {
		if raw, num := st.leafRaw(m.leafStart + idx); compareRaw(raw, s.Raw()) == 0 {
			return num, true
		}
	}
	return 0, false
}

func (v mappedForestView) Prove(s serial.Number) *Proof {
	st := v.st
	if st.nb == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
	bi := st.bucketFor(s)
	m := st.bucketMeta(bi)
	sp := SpineSegment{
		BucketIndex: uint64(bi),
		NumBuckets:  uint64(st.nb),
		LeafCount:   uint64(m.leafCount),
		Lo:          mustNumber(m.lo),
		Hi:          mustNumber(m.hi),
	}
	return st.proveRun(s, m.leafStart, m.leafCount, st.bucketSearch(m, s), st.bucketLevels(m), &sp, nil, st.spineLevels(), bi)
}

// mappedView returns the pure-mapped LayoutView for the checkpoint.
func (st *MappedState) mappedView() LayoutView {
	if st.layout.base() == LayoutForest {
		return mappedForestView{st}
	}
	return mappedSortedView{st}
}

// overlay is the mutable in-heap delta a WAL suffix builds on top of a
// mapped base. Implementations are single-threaded: a MappedSnapshot
// constructs its overlay once and never mutates it again; Extend inserts
// into a clone.
type overlay interface {
	insert(batch []Leaf)
	rootHash() cryptoutil.Hash
	layoutView() LayoutView
	revoked(s serial.Number) bool
	// clone returns an overlay with the same content whose inserts leave
	// the receiver — and every view it handed out — untouched.
	clone() overlay
}

// ovSorted is the sorted layout's overlay: a full heap materialization of
// the mapped base, then ordinary copy-on-write inserts.
type ovSorted struct {
	l *sortedLayout
}

func newOvSorted(st *MappedState) *ovSorted {
	leaves := make([]Leaf, st.count)
	for i := range leaves {
		leaves[i] = st.mustLeaf(i)
	}
	levels := make([][]cryptoutil.Hash, len(st.levelSizes))
	for li, size := range st.levelSizes {
		lvl := make([]cryptoutil.Hash, size)
		for i := 0; i < size; i++ {
			lvl[i] = hashAt(st.levels, st.levelOffs[li], i)
		}
		levels[li] = lvl
	}
	l := &sortedLayout{leaves: leaves, levels: levels}
	if len(levels) > 0 {
		l.leafHashes = levels[0]
	}
	return &ovSorted{l: l}
}

// clone copies the layout header. The copy shares every array with the
// views already handed out, so it starts exposed (owned cleared): its
// first insert merges copy-on-write, and only arrays built since then are
// extended in place.
func (o *ovSorted) clone() overlay {
	l := *o.l
	l.owned = false
	return &ovSorted{l: &l}
}

func (o *ovSorted) insert(batch []Leaf)       { o.l.insert(batch) }
func (o *ovSorted) rootHash() cryptoutil.Hash { return o.l.rootHash() }
func (o *ovSorted) layoutView() LayoutView    { return o.l.view() }

// revoked reads the layout without view(), which would expose the arrays
// and cost every later insert of this construction a full copy.
func (o *ovSorted) revoked(s serial.Number) bool {
	_, ok := miniTree{leaves: o.l.leaves, levels: o.l.levels}.revoked(s)
	return ok
}

// ovBucket is one bucket of the forest overlay: either still mapped
// (mi ≥ 0) or materialized on the heap because an overlaid batch touched
// it. Metadata needed for routing and the spine is held inline either way.
type ovBucket struct {
	lo, hi serial.Number
	count  int
	node   cryptoutil.Hash
	mi     int // mapped bucket-directory index; -1 when heap
	heap   *forestBucket
}

// ovForest is the forest layout's overlay: the hybrid bucket list plus a
// heap-rebuilt spine. Untouched buckets keep serving from the map, so the
// heap cost is O(touched buckets · cap + #buckets), not O(n).
type ovForest struct {
	st          *MappedState
	cap, target int
	buckets     []ovBucket
	spine       [][]cryptoutil.Hash
	root        cryptoutil.Hash
	stale       bool // spine/root out of date after insert
}

func newOvForest(st *MappedState) *ovForest {
	cap := st.layout.ForestCap()
	if cap == 0 {
		cap = DefaultForestBucketCap
	}
	f := &ovForest{st: st, cap: cap, target: cap * 3 / 4, root: st.treeRoot}
	f.buckets = make([]ovBucket, st.nb)
	for bi := 0; bi < st.nb; bi++ {
		m := st.bucketMeta(bi)
		f.buckets[bi] = ovBucket{
			lo:    mustNumber(m.lo),
			hi:    mustNumber(m.hi),
			count: m.leafCount,
			node:  m.node,
			mi:    bi,
		}
	}
	if st.nb > 0 {
		f.stale = true // spine not yet materialized; built on first ensure
	}
	return f
}

// materialize returns a bucket's leaves and leaf hashes, copying them out
// of the map when the bucket has not been touched yet.
func (f *ovForest) materialize(b ovBucket) ([]Leaf, []cryptoutil.Hash) {
	if b.heap != nil {
		return b.heap.tree.leaves, b.heap.leafHashes()
	}
	m := f.st.bucketMeta(b.mi)
	leaves := make([]Leaf, m.leafCount)
	hashes := make([]cryptoutil.Hash, m.leafCount)
	for i := 0; i < m.leafCount; i++ {
		leaves[i] = f.st.mustLeaf(m.leafStart + i)
		hashes[i] = hashAt(f.st.levels, 0, m.leafStart+i)
	}
	return leaves, hashes
}

// clone copies the overlay header. insert builds a fresh bucket list and
// fresh heap buckets, and ensure a fresh spine, so the copy never writes
// to anything the receiver's views read.
func (f *ovForest) clone() overlay {
	c := *f
	return &c
}

// heapOvBucket builds a heap bucket from merged leaves, exactly like
// forestLayout.buildBucket: interior nodes left of firstChanged are copied
// from oldLevels (nil = build from scratch) into fresh arrays, and since
// buildLevels is deterministic in the leaf hashes the nodes are identical
// either way.
func heapOvBucket(lo, hi serial.Number, leaves []Leaf, hashes []cryptoutil.Hash, oldLevels [][]cryptoutil.Hash, firstChanged int) ovBucket {
	levels, _ := buildLevels(hashes, oldLevels, firstChanged)
	fb := &forestBucket{lo: lo, hi: hi, tree: miniTree{leaves: leaves, levels: levels}}
	fb.node = cryptoutil.HashBucket(lo.Raw(), hi.Raw(), uint64(len(leaves)), fb.tree.root())
	return ovBucket{lo: lo, hi: hi, count: len(leaves), node: fb.node, mi: -1, heap: fb}
}

// appendChunks splits an oversized merged run exactly like
// forestLayout.chunkBuckets, appending the resulting heap buckets to dst.
func (f *ovForest) appendChunks(dst []ovBucket, lo, hi serial.Number, leaves []Leaf, hashes []cryptoutil.Hash) []ovBucket {
	chunks := (len(leaves) + f.target - 1) / f.target
	size := (len(leaves) + chunks - 1) / chunks
	for start := 0; start < len(leaves); start += size {
		end := min(start+size, len(leaves))
		clo, chi := lo, hi
		if start > 0 {
			clo = leaves[start].Serial
		}
		if end < len(leaves) {
			chi = leaves[end].Serial
		}
		dst = append(dst, heapOvBucket(clo, chi, leaves[start:end], hashes[start:end], nil, 0))
	}
	return dst
}

// insert merges one sorted, numbered sub-batch — the same cursor walk,
// merge, and split logic as forestLayout.insert, materializing only the
// buckets the batch lands in.
func (f *ovForest) insert(batch []Leaf) {
	if len(batch) == 0 {
		return
	}
	f.stale = true
	if len(f.buckets) == 0 {
		merged, mergedHashes, _, _ := mergeLeaves(nil, nil, batch)
		f.buckets = f.appendChunks(nil, serial.Number{}, serial.Number{}, merged, mergedHashes)
		return
	}
	next := make([]ovBucket, 0, len(f.buckets)+1)
	j := 0
	for _, b := range f.buckets {
		start := j
		for j < len(batch) && (b.hi.IsZero() || batch[j].Serial.Compare(b.hi) < 0) {
			j++
		}
		if start == j {
			next = append(next, b)
			continue
		}
		oldLeaves, oldHashes := f.materialize(b)
		merged, mergedHashes, firstChanged, _ := mergeLeaves(oldLeaves, oldHashes, batch[start:j])
		if len(merged) <= f.cap {
			// A heap bucket reuses its levels left of the first changed
			// leaf, as the writer does; a bucket still on the map has no
			// heap levels to reuse and is built in full.
			var oldLevels [][]cryptoutil.Hash
			if b.heap != nil {
				oldLevels = b.heap.tree.levels
			}
			next = append(next, heapOvBucket(b.lo, b.hi, merged, mergedHashes, oldLevels, firstChanged))
		} else {
			next = f.appendChunks(next, b.lo, b.hi, merged, mergedHashes)
		}
	}
	f.buckets = next
}

// ensure rebuilds the spine and root after inserts. buildLevels over the
// full bucket-node array is deterministic, so the result is identical to
// the writer's incrementally maintained spine — which is what lets the
// recomputed root be checked against each record's CA-signed root.
func (f *ovForest) ensure() {
	if !f.stale {
		return
	}
	f.stale = false
	if len(f.buckets) == 0 {
		f.spine = nil
		f.root = EmptyRoot
		return
	}
	spine0 := make([]cryptoutil.Hash, len(f.buckets))
	for i, b := range f.buckets {
		spine0[i] = b.node
	}
	f.spine, _ = buildLevels(spine0, nil, 0)
	f.root = cryptoutil.HashForestRoot(uint64(len(f.buckets)), f.spine[len(f.spine)-1][0])
}

func (f *ovForest) rootHash() cryptoutil.Hash {
	f.ensure()
	if len(f.buckets) == 0 {
		return EmptyRoot
	}
	return f.root
}

func (f *ovForest) layoutView() LayoutView {
	f.ensure()
	return ovForestView{f}
}

func (f *ovForest) revoked(s serial.Number) bool {
	_, ok := ovForestView{f}.Revoked(s)
	return ok
}

// ovForestView is the frozen proving view of a forest overlay. The
// overlay is never mutated after its MappedSnapshot is constructed, so
// the view is safe for unsynchronized concurrent use like every other
// LayoutView.
type ovForestView struct {
	f *ovForest
}

func (v ovForestView) Root() cryptoutil.Hash {
	if len(v.f.buckets) == 0 {
		return EmptyRoot
	}
	return v.f.root
}

func (v ovForestView) bucketFor(s serial.Number) int {
	bs := v.f.buckets
	return sort.Search(len(bs), func(i int) bool {
		return !bs[i].lo.IsZero() && bs[i].lo.Compare(s) > 0
	}) - 1
}

func (v ovForestView) Revoked(s serial.Number) (uint64, bool) {
	if len(v.f.buckets) == 0 {
		return 0, false
	}
	b := v.f.buckets[v.bucketFor(s)]
	if b.heap != nil {
		return b.heap.tree.revoked(s)
	}
	st := v.f.st
	m := st.bucketMeta(b.mi)
	idx := st.bucketSearch(m, s)
	if idx < m.leafCount {
		if raw, num := st.leafRaw(m.leafStart + idx); compareRaw(raw, s.Raw()) == 0 {
			return num, true
		}
	}
	return 0, false
}

func (v ovForestView) Prove(s serial.Number) *Proof {
	if len(v.f.buckets) == 0 {
		return &Proof{Kind: ProofAbsenceEmpty}
	}
	bi := v.bucketFor(s)
	b := v.f.buckets[bi]
	sp := SpineSegment{
		BucketIndex: uint64(bi),
		NumBuckets:  uint64(len(v.f.buckets)),
		LeafCount:   uint64(b.count),
		Lo:          b.lo,
		Hi:          b.hi,
	}
	if b.heap == nil {
		st := v.f.st
		m := st.bucketMeta(b.mi)
		return st.proveRun(s, m.leafStart, m.leafCount, st.bucketSearch(m, s), st.bucketLevels(m), &sp, v.f.spine, nil, bi)
	}
	return b.heap.tree.proveLocal(s, &sp, v.f.spine, bi)
}

// MappedSnapshot is one immutable version of a dictionary served from a
// mapped v2 checkpoint plus an in-heap WAL-suffix overlay. It implements
// the read side of the Snapshot contract — Prove, Revoked, Root,
// Freshness, Generation — without holding the issuance log or the serial
// index on the heap, which is what makes the marginal memory cost of an
// additional co-located RA O(overlay) instead of O(n).
//
// Construction verifies what the serving role requires: the embedded
// signed root's signature against the trust anchor, its agreement with
// the checkpoint's structural root and count (done by OpenMappedState),
// and — for every overlaid WAL record — that the recomputed root equals
// the record's CA-signed root, the same acceptance rule Replica.Update
// applies to a message fresh off the network.
//
// Like Snapshot, a constructed MappedSnapshot is immutable and safe for
// unsynchronized concurrent use. The caller owns the lifetime of the
// mapped checkpoint bytes, which must outlive the snapshot and every
// snapshot Extended from it.
type MappedSnapshot struct {
	ca        CAID
	pub       ed25519.PublicKey
	layout    LayoutKind
	st        *MappedState // the mapped base
	ov        overlay      // WAL delta over st; nil while pure-mapped
	view      LayoutView
	count     uint64
	root      *SignedRoot
	rootEnc   []byte // memoized root encoding; spliced into statuses
	freshness cryptoutil.Hash
	freshPer  int
	// pending is the newest freshness value seen since the last root
	// change that did not verify at its time of reading (zero if none).
	// Extend retries it at the new time, so a chain of extensions adopts
	// what a one-shot NewMappedSnapshot at that time would.
	pending  cryptoutil.Hash
	gen      uint64
	overlaid int // WAL update records applied on top of the base
}

// NewMappedSnapshot opens state (a v2 checkpoint payload, typically
// mmap'd), overlays the WAL suffix, and returns the resulting serving
// snapshot. pub is the trust anchor; layout must equal the persisted
// descriptor. now is the Unix time used to evaluate freshness statements;
// gen is the reader-assigned generation (readers bump it per re-map, which
// preserves the strictly-increasing cache contract locally).
func NewMappedSnapshot(ca CAID, pub ed25519.PublicKey, layout LayoutKind, state []byte, wal [][]byte, now int64, gen uint64) (*MappedSnapshot, error) {
	st, err := OpenMappedState(state)
	if err != nil {
		return nil, err
	}
	if st.layout != layout {
		return nil, fmt.Errorf("dictionary: %s persisted with layout %v, configured for %v (the layout — bucket capacity included — is part of the committed state; wipe the data dir to change it)",
			ca, st.layout, layout)
	}
	root := st.root
	if root != nil {
		if root.CA != ca {
			return nil, fmt.Errorf("dictionary: checkpoint root names %s, mapping for %s", root.CA, ca)
		}
		if err := root.VerifySignature(pub); err != nil {
			return nil, fmt.Errorf("dictionary: mapped checkpoint for %s: %w", ca, err)
		}
	}

	s := &MappedSnapshot{ca: ca, pub: pub, layout: layout, st: st, count: st.Count(), root: root, gen: gen}
	// Base freshness, best-effort like RestoreReplica: apply adopts the
	// recorded value (as a pending statement) if it chains to the anchor
	// at any period up to the current one; otherwise the anchor (the
	// period-0 statement) serves until the writer refreshes.
	if root != nil {
		s.freshness = root.Anchor
		s.pending = st.freshness
	}
	if err := s.apply(wal, now); err != nil {
		return nil, err
	}
	return s, nil
}

// Extend derives the snapshot for s's state plus wal, the WAL records
// appended after the ones s was built from, under the same acceptance
// rule as NewMappedSnapshot: the result is the snapshot NewMappedSnapshot
// would build over the whole suffix, at the cost of the new records only.
// s stays valid and unchanged — the overlay is copied before it is
// extended, and no insert writes to an array s can read — so Proves may
// run on it concurrently. The result reads the same mapped checkpoint as
// s.
func (s *MappedSnapshot) Extend(wal [][]byte, now int64, gen uint64) (*MappedSnapshot, error) {
	next := *s
	next.gen = gen
	if s.ov != nil {
		next.ov = s.ov.clone()
	}
	if err := next.apply(wal, now); err != nil {
		return nil, err
	}
	return &next, nil
}

// apply overlays WAL records onto s (under construction) and seals its
// view and root encoding.
func (s *MappedSnapshot) apply(wal [][]byte, now int64) error {
	ca, st, root0 := s.ca, s.st, s.root
	s.adoptFreshness(s.pending, now)
	have := s.count
	currentRoot := func() cryptoutil.Hash {
		if s.ov != nil {
			return s.ov.rootHash()
		}
		return st.treeRoot
	}
	for i, raw := range wal {
		if IsFreshnessRecord(raw) {
			rec, err := DecodeFreshnessRecord(raw)
			if err != nil {
				return fmt.Errorf("dictionary: decode WAL record %d for %s: %w", i, ca, err)
			}
			// Adopt any strictly newer statement (the writer appended it at
			// its own pull time, arbitrarily many periods before this map).
			s.adoptFreshness(rec.Value, now)
			continue
		}
		rec, err := DecodeUpdateRecord(raw)
		if err != nil {
			return fmt.Errorf("dictionary: decode WAL record %d for %s: %w", i, ca, err)
		}
		msg := rec.Msg
		if msg == nil || msg.Root == nil {
			return fmt.Errorf("dictionary: WAL record %d for %s carries no signed root", i, ca)
		}
		if msg.Root.CA != ca {
			return fmt.Errorf("dictionary: WAL record %d root names %s, mapping for %s", i, msg.Root.CA, ca)
		}
		if err := msg.Root.VerifySignature(s.pub); err != nil {
			return fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, err)
		}
		switch n := msg.Root.N; {
		case n < have:
			// Entirely covered by the checkpoint (crash between install and
			// WAL truncation); nothing to verify against.
			continue
		case n == have:
			if !msg.Root.Root.Equal(currentRoot()) {
				return fmt.Errorf("dictionary: WAL record %d for %s: %w: rotated root differs at n=%d", i, ca, ErrRootMismatch, have)
			}
			if msg.Root.Equal(s.root) {
				continue // re-delivered root; keep the freshness state
			}
		default:
			missing := n - have
			if uint64(len(msg.Serials)) < missing {
				return fmt.Errorf("dictionary: WAL record %d for %s: %w: record covers up to %d, base has %d, batch of %d",
					i, ca, ErrDesynchronized, n, have, len(msg.Serials))
			}
			serials := msg.Serials[uint64(len(msg.Serials))-missing:]
			if s.ov == nil {
				if s.layout.base() == LayoutForest {
					s.ov = newOvForest(st)
				} else {
					s.ov = newOvSorted(st)
				}
			}
			if err := overlayRecord(s.ov, serials, have, rec.Bounds); err != nil {
				return fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, err)
			}
			have = n
			if !s.ov.rootHash().Equal(msg.Root.Root) {
				return fmt.Errorf("dictionary: WAL record %d for %s: %w", i, ca, ErrRootMismatch)
			}
			s.overlaid++
		}
		s.root = msg.Root
		s.freshness = msg.Root.Anchor
		s.freshPer = 0
		s.pending = cryptoutil.Hash{}
	}

	s.count = have
	if s.root != nil && (s.rootEnc == nil || s.root != root0) {
		// One root encoding per root; see Snapshot.rootEnc.
		s.rootEnc = s.root.Encode()
	}
	if s.ov != nil {
		s.view = s.ov.layoutView()
	} else {
		s.view = st.mappedView()
	}
	return nil
}

// adoptFreshness adopts value if it is a strictly newer statement on the
// current root's chain, valid at now; otherwise it is kept pending for a
// later Extend to retry.
func (s *MappedSnapshot) adoptFreshness(value cryptoutil.Hash, now int64) {
	if s.root == nil || value.IsZero() {
		return
	}
	if k := freshnessGap(value, s.freshness, s.root.Period(now)-s.freshPer); k > 0 {
		s.freshness = value
		s.freshPer += k
		s.pending = cryptoutil.Hash{}
		return
	}
	s.pending = value
}

// overlayRecord replays one update record's serial suffix into the
// overlay as the sub-batches delimited by bounds — mirroring
// Replica.insertSubBatches, including the absolute-count bounds
// semantics.
func overlayRecord(ov overlay, serials []serial.Number, have uint64, bounds []uint64) error {
	start := uint64(0)
	end := have + uint64(len(serials))
	for _, b := range bounds {
		if b <= have+start || b >= end {
			continue
		}
		cut := b - have
		if err := overlayBatch(ov, serials[start:cut], have+start); err != nil {
			return err
		}
		start = cut
	}
	return overlayBatch(ov, serials[start:], have+start)
}

// overlayBatch numbers, validates, sorts, and inserts one sub-batch, the
// overlay analog of Tree.InsertBatch. Duplicates are rejected loudly —
// they would fail the signed-root check anyway, but a named error beats a
// bare mismatch.
func overlayBatch(ov overlay, serials []serial.Number, have uint64) error {
	if len(serials) == 0 {
		return nil
	}
	leaves := make([]Leaf, len(serials))
	for i, s := range serials {
		if s.IsZero() {
			return fmt.Errorf("dictionary: insert of zero-value serial")
		}
		if ov.revoked(s) {
			return fmt.Errorf("%w: %v", ErrDuplicateSerial, s)
		}
		leaves[i] = Leaf{Serial: s, Num: have + 1 + uint64(i)}
	}
	sortLeaves(leaves)
	for i := 1; i < len(leaves); i++ {
		if leaves[i].Serial.Equal(leaves[i-1].Serial) {
			return fmt.Errorf("%w: %v appears twice in batch", ErrDuplicateSerial, leaves[i].Serial)
		}
	}
	ov.insert(leaves)
	return nil
}

// CA returns the CA whose dictionary the snapshot serves.
func (s *MappedSnapshot) CA() CAID { return s.ca }

// Layout returns the snapshot's commitment layout.
func (s *MappedSnapshot) Layout() LayoutKind { return s.layout }

// Generation returns the reader-assigned publication counter; see
// Snapshot.Generation for the cache contract it carries.
func (s *MappedSnapshot) Generation() uint64 { return s.gen }

// Count returns the number of revocations served.
func (s *MappedSnapshot) Count() uint64 { return s.count }

// Root returns the signed root proofs verify against (nil before the
// dictionary's first publication).
func (s *MappedSnapshot) Root() *SignedRoot { return s.root }

// RootHash returns the structural root of the served version.
func (s *MappedSnapshot) RootHash() cryptoutil.Hash { return s.view.Root() }

// Freshness returns the freshness-statement value current at mapping time.
func (s *MappedSnapshot) Freshness() cryptoutil.Hash { return s.freshness }

// FreshnessPeriod returns the period the freshness value verified for.
func (s *MappedSnapshot) FreshnessPeriod() int { return s.freshPer }

// OverlayRecords returns how many WAL update records are overlaid in heap
// on top of the mapped base — 0 means pure-mapped serving.
func (s *MappedSnapshot) OverlayRecords() int { return s.overlaid }

// Revoked reports whether sn is revoked in this version.
func (s *MappedSnapshot) Revoked(sn serial.Number) bool {
	_, ok := s.view.Revoked(sn)
	return ok
}

// Prove produces the revocation status for sn from the mapped version —
// same contract as Snapshot.Prove, same proofs byte for byte.
func (s *MappedSnapshot) Prove(sn serial.Number) (*Status, error) {
	if s.root == nil {
		return nil, fmt.Errorf("%w: replica has no signed root", ErrDesynchronized)
	}
	return &Status{
		Proof:     s.view.Prove(sn),
		Root:      s.root,
		Freshness: s.freshness,
		rootEnc:   s.rootEnc,
	}, nil
}

// restoreReplicaV2 rebuilds a full heap Replica from a v2 checkpoint by
// materializing the persisted structure — copying leaves, hash levels,
// buckets, and spine straight off the checkpoint with ZERO rehashing —
// instead of replaying the issuance log. This is the map-don't-replay
// restart path: its cost is O(n) memory copies (plus the signature and
// structural-root checks), not the O(n) hashing of RestoreReplica.
// Nothing in the returned replica aliases the checkpoint buffer.
func restoreReplicaV2(ca CAID, pub ed25519.PublicKey, st *MappedState, now int64) (*Replica, error) {
	r := NewReplicaWithLayout(ca, pub, st.layout)
	if st.root == nil {
		return r, nil // validated empty (openRoot enforces root-for-content)
	}
	if st.root.CA != ca {
		return nil, fmt.Errorf("dictionary: restore %s: checkpoint root names %s", ca, st.root.CA)
	}
	if err := st.root.VerifySignature(pub); err != nil {
		return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
	}

	log, err := st.materializeLog()
	if err != nil {
		return nil, fmt.Errorf("dictionary: restore %s: %w", ca, err)
	}
	bySerial := make(map[string]uint64, st.count)
	leaves := make([]Leaf, st.count)
	hashes := make([]cryptoutil.Hash, st.count)
	for i := 0; i < st.count; i++ {
		leaves[i] = st.mustLeaf(i)
		hashes[i] = hashAt(st.levels, 0, i)
		bySerial[string(leaves[i].Serial.Raw())] = leaves[i].Num
	}

	var commit Layout
	if st.layout.base() == LayoutForest {
		f := newForestLayout(st.layout)
		f.buckets = make([]*forestBucket, st.nb)
		for bi := 0; bi < st.nb; bi++ {
			m := st.bucketMeta(bi)
			sizes := levelSizesFor(m.leafCount)
			levels := make([][]cryptoutil.Hash, len(sizes))
			levels[0] = hashes[m.leafStart : m.leafStart+m.leafCount]
			off := m.levelsOff
			for li := 1; li < len(sizes); li++ {
				lvl := make([]cryptoutil.Hash, sizes[li])
				for k := range lvl {
					lvl[k] = hashAt(st.blob, off, k)
				}
				off += sizes[li] * cryptoutil.HashSize
				levels[li] = lvl
			}
			f.buckets[bi] = &forestBucket{
				lo:   mustNumber(m.lo),
				hi:   mustNumber(m.hi),
				tree: miniTree{leaves: leaves[m.leafStart : m.leafStart+m.leafCount], levels: levels},
				node: m.node,
			}
		}
		f.spine = make([][]cryptoutil.Hash, len(st.spineSize))
		for li, size := range st.spineSize {
			lvl := make([]cryptoutil.Hash, size)
			for k := range lvl {
				lvl[k] = hashAt(st.spine, st.spineOffs[li], k)
			}
			f.spine[li] = lvl
		}
		f.root = st.treeRoot
		commit = f
	} else {
		l := &sortedLayout{leaves: leaves, leafHashes: hashes}
		l.levels = make([][]cryptoutil.Hash, len(st.levelSizes))
		if len(l.levels) > 0 {
			l.levels[0] = hashes
		}
		for li := 1; li < len(st.levelSizes); li++ {
			lvl := make([]cryptoutil.Hash, st.levelSizes[li])
			for k := range lvl {
				lvl[k] = hashAt(st.levels, st.levelOffs[li], k)
			}
			l.levels[li] = lvl
		}
		commit = l
	}

	r.tree = &Tree{commit: commit, bySerial: bySerial, log: log, bounds: st.Batches()}
	r.root = st.root
	r.freshness = st.root.Anchor
	if !st.freshness.IsZero() {
		if k := freshnessGap(st.freshness, r.freshness, st.root.Period(now)); k > 0 {
			r.freshness = st.freshness
			r.freshPer = k
		}
	}
	r.publish()
	return r, nil
}
