package dictionary

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// LayoutKind is a layout descriptor: the commitment structure behind a
// dictionary tree, plus the structure's shape parameters (today: the
// forest's bucket capacity). It is a single comparable value so that every
// configuration surface that already carried "which layout" — authority
// configs, replica constructors, -layout flags, persisted checkpoints —
// carries the full proof-shape contract with no extra plumbing.
//
// The descriptor changes the root hash a dictionary commits to — authority
// and replica MUST be configured with the same descriptor or every
// replayed update fails with ErrRootMismatch (the signed-root match
// contract of Fig 2 is per-layout, and bucketization depends on the cap).
// The issuance log, the dissemination wire formats, and the sync protocol
// are layout-agnostic: only roots and proofs differ.
//
// Encoding: the low 8 bits are the structure kind; the bits above carry
// the forest bucket capacity (0 = the 256-leaf default). LayoutForest ==
// LayoutForestWithCap(DefaultForestBucketCap), so code comparing against
// the named constants keeps working for default-capacity deployments.
type LayoutKind uint32

// Supported layouts.
const (
	// LayoutSorted is one flat sorted hash tree over all leaves. Inserts at
	// the right edge of the serial space cost O(k·log n); inserts anywhere
	// else shift every leaf to their right and cost up to O(n) rehashing.
	// Proofs are the classic single audit path.
	LayoutSorted LayoutKind = iota
	// LayoutForest partitions the leaves by serial range into bounded
	// buckets (split on overflow), each a small sorted hash tree, with a
	// spine tree over the bucket commitments. An insert rehashes only its
	// bucket plus a spine path, so a k-insert batch costs O(k·log n)
	// amortized for ANY serial distribution — the uniform (random-serial)
	// case that costs the sorted layout O(n) per batch. Proofs carry an
	// extra SpineSegment. Buckets hold at most DefaultForestBucketCap
	// leaves; LayoutForestWithCap tunes the bound.
	LayoutForest
)

// DefaultForestBucketCap is the forest bucket capacity selected by plain
// LayoutForest. 256 keeps the in-bucket rehash of one insert two to three
// orders of magnitude below the whole-dictionary rehash the sorted layout
// pays, while the proof (in-bucket path + spine path) stays within a hash
// or two of the sorted layout's single path: log₂(cap) + log₂(n/cap) ≈
// log₂(n).
const DefaultForestBucketCap = 256

// Forest bucket capacity bounds. The minimum keeps the ¾-fill split
// target at least one leaf; the maximum is what fits in the descriptor.
const (
	minForestCap = 4
	maxForestCap = 1<<24 - 1
)

// layoutKindMask extracts the structure kind from a descriptor.
const layoutKindMask LayoutKind = 0xff

// LayoutForestWithCap returns the forest layout descriptor with buckets of
// at most cap leaves — the tuning knob for corpora whose batch sizes or
// proof-size budgets differ from the default's sweet spot (larger caps:
// fewer, taller buckets, smaller spine; smaller caps: cheaper inserts,
// more spine). cap is clamped to [4, 2²⁴−1]; cap 0 or
// DefaultForestBucketCap normalizes to plain LayoutForest, so descriptor
// equality means proof-shape equality. The capacity is part of the root
// commitment contract: every replica, and every persisted checkpoint,
// carries it.
func LayoutForestWithCap(cap int) LayoutKind {
	switch {
	case cap <= 0 || cap == DefaultForestBucketCap:
		return LayoutForest
	case cap < minForestCap:
		cap = minForestCap
	case cap > maxForestCap:
		cap = maxForestCap
	}
	return LayoutForest | LayoutKind(cap)<<8
}

// base returns the structure kind without shape parameters.
func (k LayoutKind) base() LayoutKind { return k & layoutKindMask }

// ForestCap returns the forest bucket capacity the descriptor selects
// (DefaultForestBucketCap for plain LayoutForest), or 0 for non-forest
// layouts.
func (k LayoutKind) ForestCap() int {
	if k.base() != LayoutForest {
		return 0
	}
	if cap := int(k >> 8); cap != 0 {
		return cap
	}
	return DefaultForestBucketCap
}

// String returns the layout's flag/config name.
func (k LayoutKind) String() string {
	switch k.base() {
	case LayoutSorted:
		return "sorted"
	case LayoutForest:
		if cap := int(k >> 8); cap != 0 {
			return fmt.Sprintf("forest:%d", cap)
		}
		return "forest"
	default:
		return fmt.Sprintf("LayoutKind(%d)", uint32(k))
	}
}

// ParseLayout maps a flag/config name to its LayoutKind. The forest's
// bucket capacity may be given inline as "forest:512".
func ParseLayout(s string) (LayoutKind, error) {
	switch s {
	case "sorted", "":
		return LayoutSorted, nil
	case "forest":
		return LayoutForest, nil
	}
	if rest, ok := strings.CutPrefix(s, "forest:"); ok {
		cap, err := strconv.Atoi(rest)
		if err != nil || cap < minForestCap || cap > maxForestCap {
			return 0, fmt.Errorf("dictionary: forest bucket capacity %q (want %d–%d)", rest, minForestCap, maxForestCap)
		}
		return LayoutForestWithCap(cap), nil
	}
	return 0, fmt.Errorf("dictionary: unknown layout %q (want sorted, forest, or forest:<cap>)", s)
}

// Layouts lists every supported layout; benches and CLIs iterate it.
func Layouts() []LayoutKind { return []LayoutKind{LayoutSorted, LayoutForest} }

// Layout is the pluggable commitment structure behind a Tree: it owns the
// hashed representation (leaves, interior nodes, roots) while the Tree keeps
// the layout-independent state (serial index, issuance log, validation).
// Implementations live in this package and are selected by LayoutKind; all
// of them follow the same copy-on-write discipline as the original sorted
// tree — insert never writes into arrays reachable from a previously
// returned view, so published Snapshots stay immutable forever.
//
// Scratch-arena discipline: copy-on-write only requires fresh arrays for
// state that somebody outside the layout can still reach. Each layout
// therefore tracks exposure explicitly — arrays built by insert are
// *private* until view or checkpoint hands a reference out, and a second
// insert in the same private window (a multi-sub-batch replay between one
// Replica checkpoint and the next publish) merges into them in place with
// zero reallocation. The accounting is exact, not heuristic: at most two
// versions are ever live per tree — the last exposed one (pinned by
// whatever snapshot or checkpoint observed it) and the private pending one
// — and only the private buffer is ever written. Exposure is one-way per
// array generation; restore after a rejected update reinstates exposed
// arrays and drops the private scratch.
type Layout interface {
	// kind identifies the layout.
	kind() LayoutKind
	// insert merges a batch of pre-validated leaves, sorted by serial and
	// carrying their final revocation numbers, into the structure.
	insert(batch []Leaf)
	// view returns the current immutable version and marks the arrays
	// behind it exposed: no later insert may write them in place.
	view() LayoutView
	// rootHash returns the current root (EmptyRoot when empty) WITHOUT
	// exposing the arrays — the replica's post-replay root check must not
	// end the private window a multi-batch replay is still inside.
	rootHash() cryptoutil.Hash
	// hashedNodes returns the cumulative number of hash computations (leaf,
	// interior, bucket, and root hashes) performed by inserts — the cost
	// metric BenchmarkUniformInsert compares across layouts.
	hashedNodes() uint64
	// memoryFootprint estimates resident bytes of the hashed structure.
	memoryFootprint() int
	// checkpoint captures the current version's state; restore rewinds to
	// it. Both are O(1) thanks to copy-on-write: a checkpoint is just the
	// slice headers of the current version.
	checkpoint() layoutState
	// restore rewinds the layout to a state captured by checkpoint.
	restore(layoutState)
	// revoked reports whether s is a leaf WITHOUT exposing the arrays (the
	// WAL overlay checks duplicates between inserts of one private window).
	revoked(s serial.Number) bool
	// clone returns a layout with the same content whose inserts write to
	// no array the receiver or any view it handed out can reach.
	clone() Layout
}

// LayoutView is one immutable version of a layout's proving state. All
// methods are read-only and safe for unsynchronized concurrent use.
type LayoutView interface {
	// Root returns the version's root hash (EmptyRoot when empty).
	Root() cryptoutil.Hash
	// Revoked reports whether s is a leaf, and its revocation number.
	Revoked(s serial.Number) (uint64, bool)
	// Prove produces a presence or absence proof for s that verifies
	// against Root() (and, for the sorted layout, the leaf count).
	Prove(s serial.Number) *Proof
}

// layoutState is an opaque checkpoint; each layout returns its own type.
type layoutState interface{}

// newLayout constructs an empty layout of the given descriptor.
func newLayout(kind LayoutKind) Layout {
	switch kind.base() {
	case LayoutForest:
		return newForestLayout(kind)
	default:
		return &sortedLayout{}
	}
}

// miniTree is the one proving core: a sorted leaf run with its hash
// levels, level 0 (leaf hashes) first, up to the root. It serves the
// sorted layout's whole dictionary, each forest bucket, and (levels only)
// the forest spine, and its backing is either heap slices or a v2
// checkpoint's little-endian bytes (typically an mmap'd file):
//
//   - heap: leaves and levels, as built by insert;
//   - mapped: recs holds the leaf records, hashes level 0, and upper the
//     levels ≥ 1 concatenated. Level sizes follow by halving from the
//     width, the shape contract shared with buildLevels.
//
// Every accessor takes a plain branch on the backing, so heap, mapped and
// overlay serving run the same search, presence/absence switch, audit-path
// walk and leaf fill, and produce byte-identical proofs. A miniTree is
// immutable once built.
type miniTree struct {
	leaves []Leaf
	levels [][]cryptoutil.Hash
	recs   []byte // mapped leaf records, v2LeafRecSize each
	hashes []byte // mapped level 0
	upper  []byte // mapped levels ≥ 1
}

// size returns the number of leaves.
func (t *miniTree) size() int {
	if t.recs != nil {
		return len(t.recs) / v2LeafRecSize
	}
	return len(t.leaves)
}

// width returns the node count of level 0: the leaf count, or the bucket
// count of a spine.
func (t *miniTree) width() int {
	if t.hashes != nil {
		return len(t.hashes) / cryptoutil.HashSize
	}
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// node returns node i of level lvl; off is the level's byte offset within
// upper (mapped levels ≥ 1 only).
func (t *miniTree) node(lvl, off, i int) cryptoutil.Hash {
	switch {
	case t.hashes == nil:
		return t.levels[lvl][i]
	case lvl == 0:
		return hashAt(t.hashes, 0, i)
	default:
		return hashAt(t.upper, off, i)
	}
}

// root returns the tree root; callers guarantee a non-empty tree. The
// mapped root is the last node of upper (or the only node of level 0).
func (t *miniTree) root() cryptoutil.Hash {
	switch {
	case t.hashes == nil:
		return t.levels[len(t.levels)-1][0]
	case len(t.upper) == 0:
		return hashAt(t.hashes, 0, 0)
	default:
		return hashAt(t.upper, len(t.upper)-cryptoutil.HashSize, 0)
	}
}

// raw returns leaf i's serial bytes and revocation number; a mapped serial
// aliases the checkpoint.
func (t *miniTree) raw(i int) ([]byte, uint64) {
	if t.recs == nil {
		return t.leaves[i].Serial.Raw(), t.leaves[i].Num
	}
	rec := t.recs[i*v2LeafRecSize : (i+1)*v2LeafRecSize]
	return rec[12 : 12+rec[8]], binary.LittleEndian.Uint64(rec)
}

// leaf returns leaf i. A mapped serial is copied: the checkpoint may be
// unmapped while a cached Status still holds a proof built from it.
func (t *miniTree) leaf(i int) Leaf {
	if t.recs == nil {
		return t.leaves[i]
	}
	return t.copyLeaf(i)
}

// copyLeaf is leaf's mapped case, kept out of line so leaf inlines.
func (t *miniTree) copyLeaf(i int) Leaf {
	raw, num := t.raw(i)
	return Leaf{Serial: mustNumber(raw), Num: num}
}

// search returns the index of the first leaf with serial ≥ s.
func (t *miniTree) search(s serial.Number) int {
	raw := s.Raw()
	lo, hi := 0, t.size()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leaf, _ := t.raw(mid); compareRaw(leaf, raw) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// revoked reports whether s is a leaf, and its revocation number.
func (t *miniTree) revoked(s serial.Number) (uint64, bool) {
	if i := t.search(s); i < t.size() {
		if raw, num := t.raw(i); compareRaw(raw, s.Raw()) == 0 {
			return num, true
		}
	}
	return 0, false
}

// materialize returns a heap copy of a mapped tree (a heap tree as is):
// the writer-side insert, the WAL overlay and the map-don't-replay restore
// all build on heap arrays.
func (t *miniTree) materialize() miniTree {
	w := t.width()
	if t.hashes == nil || w == 0 {
		return miniTree{leaves: t.leaves, levels: t.levels}
	}
	var out miniTree
	if n := t.size(); n > 0 {
		out.leaves = make([]Leaf, n)
		for i := range out.leaves {
			out.leaves[i] = t.leaf(i)
		}
	}
	out.levels = make([][]cryptoutil.Hash, 0, 1+bitsLen(w))
	for lvl, off := 0, 0; ; lvl++ {
		level := make([]cryptoutil.Hash, w)
		for i := range level {
			level[i] = t.node(lvl, off, i)
		}
		out.levels = append(out.levels, level)
		if w == 1 {
			return out
		}
		if lvl > 0 {
			off += w * cryptoutil.HashSize
		}
		w = (w + 1) / 2
	}
}

// proofArena bundles a Proof with its leaf structs, spine segment, and a
// single shared backing array for every audit path in the proof. Status
// proving is the RA's hot path — each proof used to cost one heap object
// per struct plus one slice per path (7+ allocations for a forest
// absence); the arena packs all of it into two (the arena itself and the
// path array), sized exactly up front so append never reallocates.
type proofArena struct {
	proof  Proof
	leaves [2]ProofLeaf
	spine  SpineSegment
	nleaf  int
	paths  []cryptoutil.Hash
}

func newProofArena(kind ProofKind, pathCap int) *proofArena {
	a := &proofArena{}
	a.proof.Kind = kind
	if pathCap > 0 {
		a.paths = make([]cryptoutil.Hash, 0, pathCap)
	}
	return a
}

// appendPath appends the audit path for level-0 position idx of t to the
// shared array and returns the capped segment holding it. An odd
// rightmost node has no sibling: it is promoted, with no path element.
func (a *proofArena) appendPath(t *miniTree, idx int) []cryptoutil.Hash {
	w := t.width()
	if idx < 0 || idx >= w {
		return nil
	}
	start := len(a.paths)
	for lvl, off := 0, 0; w > 1; lvl++ {
		if sib := idx ^ 1; sib < w {
			a.paths = append(a.paths, t.node(lvl, off, sib))
		}
		if lvl > 0 {
			off += w * cryptoutil.HashSize
		}
		idx /= 2
		w = (w + 1) / 2
	}
	return a.paths[start:len(a.paths):len(a.paths)]
}

// fillLeaf populates the arena's next inline ProofLeaf from leaf idx of t.
func (a *proofArena) fillLeaf(t *miniTree, idx int) *ProofLeaf {
	pl := &a.leaves[a.nleaf]
	a.nleaf++
	lf := t.leaf(idx)
	pl.Serial = lf.Serial
	pl.Num = lf.Num
	pl.Index = uint64(idx)
	pl.Path = a.appendPath(t, idx)
	return pl
}

// prove runs the presence/absence switch over the tree's leaves, building
// the whole proof in one arena. sp, when non-nil, is the spine segment
// metadata (Path unset); spine and spineIdx locate the bucket's audit
// path. Callers guarantee at least one leaf.
func (t *miniTree) prove(s serial.Number, sp *SpineSegment, spine *miniTree, spineIdx int) *Proof {
	n := t.size()
	lo := t.search(s)
	kind := ProofAbsence
	li, ri := -1, -1
	equal := false
	if lo < n {
		raw, _ := t.raw(lo)
		equal = compareRaw(raw, s.Raw()) == 0
	}
	switch {
	case equal:
		kind, li = ProofPresence, lo
	case lo == 0:
		// s precedes every leaf: the first leaf bounds it from above.
		ri = 0
	case lo == n:
		// s follows every leaf: the last leaf bounds it from below.
		li = n - 1
	default:
		// s falls strictly between two adjacent leaves.
		li, ri = lo-1, lo
	}
	perLeaf := bitsLen(n)
	pathCap := 0
	if li >= 0 {
		pathCap += perLeaf
	}
	if ri >= 0 {
		pathCap += perLeaf
	}
	if sp != nil {
		pathCap += bitsLen(spine.width())
	}
	a := newProofArena(kind, pathCap)
	if li >= 0 {
		a.proof.Left = a.fillLeaf(t, li)
	}
	if ri >= 0 {
		a.proof.Right = a.fillLeaf(t, ri)
	}
	if sp != nil {
		a.spine = *sp
		a.spine.Path = a.appendPath(spine, spineIdx)
		a.proof.Spine = &a.spine
	}
	return &a.proof
}

// arenaHeadroom returns the extra capacity a fresh rebuild array carries
// beyond its content so that follow-up merges within the same private
// window (before the next view/checkpoint exposes the arrays) can extend
// it in place instead of reallocating.
func arenaHeadroom(n int) int { return n/8 + 4 }

// mergeLeaves merges a sorted batch of new leaves into the sorted existing
// run, hashing the new leaves as it goes. It writes into fresh arrays
// (copy-on-write): the previous version's arrays — possibly aliased by a
// published view — are never touched. Unchanged runs between insertion
// points are copied whole (one memmove per run, not one append per leaf),
// and the arrays carry arenaHeadroom slack so the in-place variant below
// can extend them on the next merge of the same private window. It returns
// the merged arrays, the merged index of the first new leaf (-1 for an
// empty batch), and the number of leaf hashes computed.
func mergeLeaves(oldLeaves []Leaf, oldHashes []cryptoutil.Hash, batch []Leaf) (merged []Leaf, mergedHashes []cryptoutil.Hash, firstChanged int, hashOps uint64) {
	total := len(oldLeaves) + len(batch)
	merged = make([]Leaf, 0, total+arenaHeadroom(total))
	mergedHashes = make([]cryptoutil.Hash, 0, cap(merged))
	firstChanged = -1
	i := 0
	for j := 0; j < len(batch); j++ {
		run := i
		for run < len(oldLeaves) && oldLeaves[run].Serial.Compare(batch[j].Serial) < 0 {
			run++
		}
		if run > i {
			merged = append(merged, oldLeaves[i:run]...)
			mergedHashes = append(mergedHashes, oldHashes[i:run]...)
			i = run
		}
		if firstChanged < 0 {
			firstChanged = len(merged)
		}
		merged = append(merged, batch[j])
		mergedHashes = append(mergedHashes, batch[j].hash())
		hashOps++
	}
	merged = append(merged, oldLeaves[i:]...)
	mergedHashes = append(mergedHashes, oldHashes[i:]...)
	return merged, mergedHashes, firstChanged, hashOps
}

// mergeLeavesInPlace is mergeLeaves for arrays the caller owns privately
// (built since the last view/checkpoint, so no snapshot can reach them):
// the batch is merged backward into the existing backing arrays with zero
// allocation. The caller guarantees cap(leaves) and cap(hashes) hold
// len(leaves)+len(batch). Results are identical to mergeLeaves.
func mergeLeavesInPlace(leaves []Leaf, hashes []cryptoutil.Hash, batch []Leaf) (merged []Leaf, mergedHashes []cryptoutil.Hash, firstChanged int, hashOps uint64) {
	n, k := len(leaves), len(batch)
	leaves = leaves[:n+k]
	hashes = hashes[:n+k]
	firstChanged = -1
	// Backward merge: the write cursor w stays strictly ahead of the old
	// read cursor i until the batch is exhausted, so no unread old leaf is
	// ever overwritten; the untouched old prefix is already in place.
	i, w := n-1, n+k-1
	for j := k - 1; j >= 0; w-- {
		if i >= 0 && leaves[i].Serial.Compare(batch[j].Serial) > 0 {
			leaves[w] = leaves[i]
			hashes[w] = hashes[i]
			i--
		} else {
			leaves[w] = batch[j]
			hashes[w] = batch[j].hash()
			hashOps++
			firstChanged = w
			j--
		}
	}
	return leaves, hashes, firstChanged, hashOps
}

// buildLevels recomputes the interior levels over leafHashes, reusing every
// node left of leaf index firstChanged from oldLevels: those nodes cover
// only unchanged, unshifted leaves, so their values — including the
// odd-promotion rule, which depends only on indices below them — are
// identical. Fresh arrays are allocated for every level, never written
// through oldLevels, preserving snapshot immutability. It returns the new
// levels (levels[0] aliases leafHashes) and the number of interior hashes
// computed.
//
// A negative firstChanged (no leaf changed) still rebuilds everything, as
// does 0; callers pass the merge position of the first inserted leaf.
func buildLevels(leafHashes []cryptoutil.Hash, oldLevels [][]cryptoutil.Hash, firstChanged int) ([][]cryptoutil.Hash, uint64) {
	if len(leafHashes) == 0 {
		return nil, 0
	}
	if firstChanged < 0 {
		firstChanged = 0
	}
	var hashOps uint64
	levels := make([][]cryptoutil.Hash, 1, 2+bitsLen(len(leafHashes)))
	levels[0] = leafHashes
	cur := leafHashes
	dirty := firstChanged // first index of cur that differs from oldLevels
	for lvl := 0; len(cur) > 1; lvl++ {
		parents := (len(cur) + 1) / 2
		next := make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
		// A parent k is unchanged iff both children are below dirty, i.e.
		// 2k+1 < dirty — and the old level must actually hold it.
		keep := dirty / 2
		if lvl+1 < len(oldLevels) {
			if n := len(oldLevels[lvl+1]); keep > n {
				keep = n
			}
			copy(next[:keep], oldLevels[lvl+1])
		} else {
			keep = 0
		}
		for k := keep; k < parents; k++ {
			if 2*k+1 < len(cur) {
				next[k] = cryptoutil.HashNode(cur[2*k], cur[2*k+1])
				hashOps++
			} else {
				// Odd rightmost node: promoted unchanged; the verifier
				// reproduces the same rule from (index, size) alone.
				next[k] = cur[len(cur)-1]
			}
		}
		levels = append(levels, next)
		cur = next
		dirty = keep
	}
	return levels, hashOps
}

// buildLevelsInPlace is buildLevels for a level structure the caller owns
// privately: the prefix of each level left of the dirty frontier is already
// correct in place (same arrays, nothing shifted below firstChanged), so
// only the dirty suffixes are recomputed, into the same backing arrays
// where capacity allows. levels[0] must be (a possibly extended slice of)
// the structure's leaf-hash array, passed as leafHashes with its new
// length. Results are identical to buildLevels over the same leaf hashes.
func buildLevelsInPlace(levels [][]cryptoutil.Hash, leafHashes []cryptoutil.Hash, firstChanged int) ([][]cryptoutil.Hash, uint64) {
	if len(leafHashes) == 0 {
		return nil, 0
	}
	if firstChanged < 0 {
		firstChanged = 0
	}
	var hashOps uint64
	out := levels[:1]
	out[0] = leafHashes
	cur := leafHashes
	dirty := firstChanged
	for lvl := 1; len(cur) > 1; lvl++ {
		parents := (len(cur) + 1) / 2
		keep := dirty / 2
		var next []cryptoutil.Hash
		if lvl < len(levels) {
			old := levels[lvl]
			if keep > len(old) {
				keep = len(old)
			}
			if cap(old) >= parents {
				next = old[:parents]
			} else {
				next = make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
				copy(next[:keep], old[:keep])
			}
		} else {
			next = make([]cryptoutil.Hash, parents, parents+arenaHeadroom(parents))
			keep = 0
		}
		for k := keep; k < parents; k++ {
			if 2*k+1 < len(cur) {
				next[k] = cryptoutil.HashNode(cur[2*k], cur[2*k+1])
				hashOps++
			} else {
				next[k] = cur[len(cur)-1]
			}
		}
		out = append(out, next)
		cur = next
		dirty = keep
	}
	return out, hashOps
}

// bitsLen returns ⌈log₂(n)⌉-ish capacity hint for the level slice.
func bitsLen(n int) int {
	b := 0
	for n > 1 {
		n = (n + 1) / 2
		b++
	}
	return b
}
