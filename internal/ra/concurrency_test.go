package ra

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// TestProveDuringSync hammers the store's status path from many goroutines
// while the fetcher applies issuance batches, under -race. Every returned
// status must verify against some recently-valid root: its proof checks
// out, its root signature checks out, its freshness is within the client's
// 2∆ policy, and its revocation count is at least the count the reader
// knew to be applied before it asked (no torn or stale-beyond-current
// reads). Revocations, once synced, must never disappear from served
// statuses.
func TestProveDuringSync(t *testing.T) {
	env := newEnv(t, time.Hour) // one period spans the whole test
	pub := env.ca.PublicKey()
	now := time.Now().Unix()

	const (
		numBatches = 40
		batchSize  = 25
		numReaders = 8
	)
	gen := serial.NewGenerator(0xC0FFEE, nil)
	batches := make([][]serial.Number, numBatches)
	for i := range batches {
		batches[i] = gen.NextN(batchSize)
	}
	absent := gen.NextN(128)

	var applied atomic.Int64 // revocations the RA has definitely synced
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i, batch := range batches {
			if _, err := env.ca.Revoke(batch...); err != nil {
				t.Errorf("revoke batch %d: %v", i, err)
				return
			}
			if err := env.ra.SyncOnce(); err != nil {
				t.Errorf("sync batch %d: %v", i, err)
				return
			}
			applied.Store(int64((i + 1) * batchSize))
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			for done := false; !done; {
				select {
				case <-writerDone:
					done = true // one final round, then exit
				default:
				}
				before := applied.Load()
				var sn serial.Number
				wantRevoked := false
				if syncedBatches := int(before) / batchSize; syncedBatches > 0 && rng.IntN(2) == 0 {
					// A serial from a batch that was fully synced before
					// this iteration began: it must prove revoked.
					b := rng.IntN(syncedBatches)
					sn = batches[b][rng.IntN(batchSize)]
					wantRevoked = true
				} else {
					sn = absent[rng.IntN(len(absent))]
				}

				var st *dictionary.Status
				var err error
				if rng.IntN(4) == 0 {
					st, err = env.ra.Store().Prove("CA1", sn) // uncached path
				} else {
					st, _, err = env.ra.Store().Status("CA1", sn)
				}
				if err != nil {
					t.Errorf("status for %v: %v", sn, err)
					return
				}
				res, err := st.Check(sn, pub, now)
				if err != nil {
					t.Errorf("returned status does not verify: %v", err)
					return
				}
				if wantRevoked && res != dictionary.CheckRevoked {
					t.Errorf("synced revocation of %v not reflected (root n=%d, knew n>=%d)", sn, st.Root.N, before)
					return
				}
				if !wantRevoked && res != dictionary.CheckValid {
					t.Errorf("never-revoked %v reported revoked", sn)
					return
				}
				if st.Root.N < uint64(before) {
					t.Errorf("stale root: n=%d but %d revocations were already applied", st.Root.N, before)
					return
				}
			}
		}(uint64(r + 1))
	}
	wg.Wait()
	<-writerDone

	final, _, err := env.ra.Store().Status("CA1", batches[numBatches-1][0])
	if err != nil {
		t.Fatal(err)
	}
	if final.Root.N != numBatches*batchSize {
		t.Fatalf("final root covers %d revocations, want %d", final.Root.N, numBatches*batchSize)
	}
}

// TestStatusCacheInvalidationOnSwap pins the cache-correctness contract: a
// hit is only served at the generation of the replica's current snapshot,
// so after a sync the very next Status reflects the new root — no status
// is ever served whose root is not the current verified one (the
// "current or immediately-previous" bound comes only from benign races
// between load and serve, not from the cache).
func TestStatusCacheInvalidationOnSwap(t *testing.T) {
	env := newEnv(t, time.Hour)
	store := env.ra.Store()
	gen := serial.NewGenerator(0xFACADE, nil)
	victim := gen.Next()

	st0, enc0, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Proof.Kind == dictionary.ProofPresence {
		t.Fatal("victim should start absent")
	}
	stats := store.CacheStats()
	if stats.Hits != 0 || stats.Misses != 1 {
		t.Fatalf("cold lookup: hits=%d misses=%d, want 0/1", stats.Hits, stats.Misses)
	}

	// Repeat: identical bytes from the cache, no recomputation.
	st1, enc1, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st0 || &enc1[0] != &enc0[0] {
		t.Error("hot lookup did not serve the memoized status")
	}
	if stats = store.CacheStats(); stats.Hits != 1 {
		t.Fatalf("hot lookup: hits=%d, want 1", stats.Hits)
	}

	// Revoke the victim and sync: the snapshot generation moves, the cached
	// entry must be ignored, and the new status must prove presence.
	if _, err := env.ca.Revoke(victim); err != nil {
		t.Fatal(err)
	}
	if err := env.ra.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Proof.Kind != dictionary.ProofPresence {
		t.Fatalf("post-swap status kind = %v, want presence", st2.Proof.Kind)
	}
	if st2.Root.N != st0.Root.N+1 {
		t.Fatalf("post-swap root n = %d, want %d", st2.Root.N, st0.Root.N+1)
	}
	if stats = store.CacheStats(); stats.Misses != 2 {
		t.Fatalf("post-swap lookup should miss: misses=%d, want 2", stats.Misses)
	}

	// And the re-cached presence status is served on the next hit.
	st3, _, err := store.Status("CA1", victim)
	if err != nil {
		t.Fatal(err)
	}
	if st3 != st2 {
		t.Error("post-swap status was not re-cached")
	}
}

// TestRemoveExpiredShards covers the §VIII storage-reclamation path: only
// expiry shards whose bucket has fully passed are dropped, their cached
// statuses with them; unsharded dictionaries are never touched.
func TestRemoveExpiredShards(t *testing.T) {
	const width = 1000 * time.Second
	shardRoot := func(t *testing.T, base string, bucket int64) *cert.Certificate {
		t.Helper()
		key, err := cryptoutil.NewSigner(nil)
		if err != nil {
			t.Fatal(err)
		}
		id := dictionary.CAID(fmt.Sprintf("%s/exp-%d", base, bucket))
		c, err := cert.Issue(id, key, cert.Template{
			SerialNumber: serial.FromUint64(1),
			Subject:      string(id),
			NotBefore:    0,
			NotAfter:     1 << 40,
			PublicKey:    key.Public(),
			IsCA:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plainRoot := func(t *testing.T, id string) *cert.Certificate {
		t.Helper()
		key, err := cryptoutil.NewSigner(nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cert.Issue(dictionary.CAID(id), key, cert.Template{
			SerialNumber: serial.FromUint64(1),
			Subject:      id,
			NotBefore:    0,
			NotAfter:     1 << 40,
			PublicKey:    key.Public(),
			IsCA:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	expired := shardRoot(t, "CA1", 1000)   // bucket [1000, 2000): gone at 2500
	live := shardRoot(t, "CA1", 2000)      // bucket [2000, 3000): live at 2500
	unsharded := plainRoot(t, "LegacyCA")  // never pruned
	trap := plainRoot(t, "CA9/exp-oops-1") // malformed suffix: not a shard

	store, err := NewStore(expired, live, unsharded, trap)
	if err != nil {
		t.Fatal(err)
	}
	removed := store.RemoveExpired(2500, width)
	if len(removed) != 1 || removed[0] != expired.Issuer {
		t.Fatalf("RemoveExpired = %v, want [%s]", removed, expired.Issuer)
	}
	if _, err := store.Replica(expired.Issuer); !errors.Is(err, ErrNoDictionary) {
		t.Errorf("expired shard still replicated: %v", err)
	}
	for _, keep := range []dictionary.CAID{live.Issuer, unsharded.Issuer, trap.Issuer} {
		if _, err := store.Replica(keep); err != nil {
			t.Errorf("replica %s should survive: %v", keep, err)
		}
	}
	// Zero width disables pruning entirely.
	if removed := store.RemoveExpired(1<<40, 0); removed != nil {
		t.Errorf("width 0 pruned %v", removed)
	}
}

// TestStatusCacheInstanceChurn races data-path Status callers against
// snapshot swaps and against Remove, ReplaceReplica and AddCA of the same
// CA, under -race. Every instance the mutator installs reaches the same
// low generations (1, then 2) with a different signed root, so a status
// table that outlived its instance would be caught serving an old root at
// a colliding generation. A returned status must verify and carry the
// root of a state current at some point during the call; an error must
// match a state without a dictionary or without a root. Entries never
// exceed the callers' distinct keys: one generation of one instance.
func TestStatusCacheInstanceChurn(t *testing.T) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	const ca = dictionary.CAID("ChurnCA")
	root, err := cert.Issue(ca, signer, cert.Template{
		SerialNumber: serial.FromUint64(1),
		Subject:      string(ca),
		NotBefore:    0,
		NotAfter:     1 << 40,
		PublicKey:    signer.Public(),
		IsCA:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().Unix()
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{CA: ca, Signer: signer, Delta: time.Hour}, now)
	if err != nil {
		t.Fatal(err)
	}
	// Signed states 0..states-1 at counts 10, 20, ...: state j is one
	// Update from empty (generation 1); state j+1 is one more from j
	// (generation 2).
	const states = 6
	gen := serial.NewGenerator(0xC4C4E, nil)
	roots := make([]*dictionary.SignedRoot, states)
	for j := range roots {
		if _, err := auth.Insert(gen.NextN(10), now); err != nil {
			t.Fatal(err)
		}
		roots[j] = auth.SignedRoot()
	}
	log, err := auth.LogSuffix(0, auth.Count())
	if err != nil {
		t.Fatal(err)
	}
	count := func(j int) uint64 { return roots[j].N }
	fromEmpty := func(j int) *dictionary.IssuanceMessage {
		return &dictionary.IssuanceMessage{Serials: log[:count(j)], Root: roots[j]}
	}
	advance := func(j int) *dictionary.IssuanceMessage {
		return &dictionary.IssuanceMessage{Serials: log[count(j):count(j+1)], Root: roots[j+1]}
	}

	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	pool := append(append([]serial.Number{}, log[:10]...), gen.NextN(22)...) // revoked in every state, and absent

	// expect[k] is the state step k creates: a root count, or noDict /
	// noRoot. It is stored before step k runs and step is bumped after,
	// so a caller that saw step s0 before its call and s1 after it was
	// served one of expect[s0..s1+1].
	const (
		rounds = 150
		noDict = -1
		noRoot = -2
	)
	expect := make([]atomic.Int64, 5*rounds+1)
	expect[0].Store(noRoot) // NewStore starts with an empty replica
	var step atomic.Int64
	mutate := func(want int64, f func() error) {
		k := step.Load() + 1
		expect[k].Store(want)
		if err := f(); err != nil {
			t.Error(err)
		}
		step.Store(k)
	}
	update := func(msg *dictionary.IssuanceMessage) func() error {
		return func() error {
			r, err := store.Replica(ca)
			if err != nil {
				return err
			}
			return r.Update(msg)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			j, k := r%(states-1), (r+2)%(states-1)
			fresh := dictionary.NewReplica(ca, signer.Public())
			if err := fresh.Update(fromEmpty(j)); err != nil {
				t.Error(err)
				return
			}
			mutate(int64(count(j)), func() error { return store.ReplaceReplica(ca, fresh) })
			mutate(int64(count(j+1)), update(advance(j)))
			mutate(noDict, func() error { store.Remove(ca); return nil })
			mutate(noRoot, func() error { return store.AddCA(root) })
			mutate(int64(count(k)), update(fromEmpty(k)))
			if n := store.CacheStats().Entries; n > len(pool) {
				t.Errorf("cache holds %d entries, more than the %d distinct keys", n, len(pool))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			allowed := func(s0, s1 int64, want int64) bool {
				for k := s0; k <= s1+1 && k < int64(len(expect)); k++ {
					if expect[k].Load() == want {
						return true
					}
				}
				return false
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				sn := pool[rng.IntN(len(pool))]
				s0 := step.Load()
				st, _, err := store.Status(ca, sn)
				s1 := step.Load()
				switch {
				case errors.Is(err, ErrNoDictionary):
					if !allowed(s0, s1, noDict) {
						t.Errorf("steps %d..%d: ErrNoDictionary while the CA was served", s0, s1)
						return
					}
				case errors.Is(err, dictionary.ErrDesynchronized):
					if !allowed(s0, s1, noRoot) {
						t.Errorf("steps %d..%d: no-root error while a root was served", s0, s1)
						return
					}
				case err != nil:
					t.Errorf("status: %v", err)
					return
				default:
					if _, err := st.Check(sn, signer.Public(), now); err != nil {
						t.Errorf("served status does not verify: %v", err)
						return
					}
					if !allowed(s0, s1, int64(st.Root.N)) {
						t.Errorf("steps %d..%d: served root n=%d of a removed or replaced instance", s0, s1, st.Root.N)
						return
					}
				}
			}
		}(uint64(c + 1))
	}
	wg.Wait()
	if st := store.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("hits %d misses %d: the race exercised no cache traffic", st.Hits, st.Misses)
	}
}
