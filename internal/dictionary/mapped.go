package dictionary

import (
	"crypto/ed25519"
	"fmt"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Mapped serving: MappedSnapshot — the read side of the Snapshot contract
// for processes that share one checkpoint directory instead of owning a
// heap replica. It proves with the same sortedView/forestView as a heap
// snapshot, over trees whose backing is the checkpoint's bytes (typically
// an mmap'd file), so its proofs are byte-identical to the heap ones by
// construction; the cross-layout property suite pins this.
//
// WAL overlay. A checkpoint lags the WAL by up to CheckpointEvery records.
// A MappedSnapshot therefore applies the WAL suffix as a small in-heap
// delta on top of the mapped base: an ordinary heap Layout built over the
// checkpoint (heapLayout), into which the records are inserted.
//
//   - forest: the bucket list starts out pointing at mapped buckets, and
//     an insert copies out only the buckets a batch lands in (≤ cap leaves
//     each); untouched buckets keep serving from the map. The spine is
//     copied into heap once and then maintained like the writer's, so the
//     recomputed root must equal each record's CA-signed root, which is
//     verified loudly.
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
// inserting into a clone of its overlay layout (fresh bucket lists, fresh
// or copy-on-write arrays), so older snapshots stay byte-stable while they
// keep serving.

// mustNumber converts validated canonical serial bytes (possibly empty =
// unbounded bucket bound) into a serial.Number, copying.
func mustNumber(raw []byte) serial.Number {
	if len(raw) == 0 {
		return serial.Number{}
	}
	s, err := serial.New(raw)
	if err != nil {
		// OpenMappedState validated every serial and bound it reads.
		panic(err)
	}
	return s
}

// view returns the pure-mapped LayoutView of the checkpoint.
func (st *MappedState) view() LayoutView {
	if st.layout.base() == LayoutForest {
		return &forestView{dir: st, spine: st.spineTree(), root: st.treeRoot}
	}
	return &sortedView{st.sortedTree()}
}

// heapLayout builds a heap Layout of the checkpoint's structure, copying
// arrays with zero rehashing. The sorted layout and the forest spine are
// always copied; forest buckets are copied too when own is set (a restore,
// which must not alias the buffer), and otherwise keep reading the map
// until an insert lands in them (the WAL overlay). Bucket bounds are
// copied either way, as buckets an insert rebuilds inherit them.
func (st *MappedState) heapLayout(own bool) Layout {
	if st.layout.base() != LayoutForest {
		t := st.sortedTree()
		t = t.materialize()
		l := &sortedLayout{leaves: t.leaves, levels: t.levels}
		if len(t.levels) > 0 {
			l.leafHashes = t.levels[0]
		}
		return l
	}
	f := newForestLayout(st.layout)
	f.buckets = make([]*forestBucket, st.nb)
	for bi := range f.buckets {
		lo, hi := st.bucketBounds(bi)
		t := st.bucketTree(bi)
		if own {
			t = t.materialize()
		}
		f.buckets[bi] = &forestBucket{lo: mustNumber(lo), hi: mustNumber(hi), tree: t, node: st.bucketNode(bi)}
	}
	spine := st.spineTree()
	f.spine = spine.materialize().levels
	f.root = st.treeRoot
	return f
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
	ov        Layout       // WAL delta over st; nil while pure-mapped
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
// snapshot. A nil state — a log with no checkpoint yet — is the empty
// dictionary of layout. pub is the trust anchor; layout must equal the
// persisted descriptor. now is the Unix time used to evaluate freshness
// statements; gen is the reader-assigned generation (readers bump it per
// re-map, which preserves the strictly-increasing cache contract locally).
func NewMappedSnapshot(ca CAID, pub ed25519.PublicKey, layout LayoutKind, state []byte, wal [][]byte, now int64, gen uint64) (*MappedSnapshot, error) {
	if state == nil {
		state = encodeStateV2(layout, newLayout(layout).view(), nil, nil, cryptoutil.Hash{}, nil)
	}
	st, err := OpenMappedState(state)
	if err != nil {
		return nil, err
	}
	if err := st.checkLayout(ca, layout); err != nil {
		return nil, err
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
				s.ov = st.heapLayout(false)
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
		s.view = s.ov.view()
	} else {
		s.view = st.view()
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
func overlayRecord(ov Layout, serials []serial.Number, have uint64, bounds []uint64) error {
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
func overlayBatch(ov Layout, serials []serial.Number, have uint64) error {
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
	bySerial := make(map[string]uint64, len(log))
	for i, sn := range log {
		bySerial[string(sn.Raw())] = uint64(i + 1)
	}
	r.tree = &Tree{commit: st.heapLayout(true), bySerial: bySerial, log: log, bounds: st.Batches()}
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
