package ra

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"ritm/internal/dictionary"
)

// statusCache memoizes encoded revocation statuses per serial, scoped to
// one dictionary instance and one snapshot generation of it. A status is
// a function of the instance's current snapshot — proof, signed root and
// freshness statement — so it is immutable for a whole ∆ window and
// worthless after it. Under a Zipf-like serial popularity distribution (a
// few certificates carry most of the traffic), this turns almost every
// handshake-path Status call into a single sharded map read instead of an
// O(log n) proof construction plus encoding.
//
// Each served dictionary (an owned replica or a shared mapped reader)
// carries its own statusTable in the store's view, created and dropped
// together with the instance by AddCA, Remove and ReplaceReplica. The
// table holds exactly one generation: the first lookup that carries a
// newer generation swaps in a fresh, empty table with one CAS, and the
// superseded table — every status of the previous ∆ — becomes garbage at
// once instead of waiting for per-entry eviction. A caller still holding
// an older snapshot (gen below the table's) proves uncached: it neither
// reads the table nor installs into it. So a status is served only at the
// generation of the snapshot it was computed from, on the instance it was
// computed from — at worst a status from the snapshot that was current
// when the lookup began, which is exactly the guarantee an uncached Prove
// gives too.
//
// Within a generation, capacity is enforced per entry: a full shard
// evicts one cold entry per insert using a second-chance
// (CLOCK-approximated LRU) policy — each hit sets the entry's access bit
// with no write lock, and the eviction scan clears bits until it finds an
// unreferenced victim — so a working set larger than the cap degrades to
// targeted evictions of the coldest keys, not a reset of the hot set.
//
// statusCache itself is the store-wide part: the hash seed, the shard
// capacity and the hit/miss/eviction counters, which table swaps and
// instance changes leave untouched.
type statusCache struct {
	seed     maphash.Seed
	shardCap int // entries per table shard; cacheShardCap outside tests
	counters [cacheShardCount]shardCounters
}

// cacheShardCount spreads the hot path over independent locks. 64 shards
// keep contention negligible up to a few hundred data-path goroutines.
const cacheShardCount = 64

// cacheShardCap bounds each shard of one generation's table. 4096 × 64
// shards ≈ 256 k statuses per dictionary instance, plenty above any
// realistic per-∆ working set. Per-cache (shardCap) so the eviction tests
// can exercise overflow without 256k inserts.
const cacheShardCap = 4096

// evictScanLimit bounds one eviction scan. Map iteration starts at a
// pseudo-random position, so the scan samples the shard; if every sampled
// entry was recently hit, the last one is evicted anyway — the bound keeps
// the put path O(1) even when the whole shard is hot.
const evictScanLimit = 16

// shardCounters counts one shard index's hits, misses and evictions: a
// single global counter pair would put one contended cache line back onto
// the very path the sharding de-serializes. The padding gives each shard
// its own line.
type shardCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	_         [40]byte
}

// statusTable is one dictionary instance's cached statuses for a single
// snapshot generation, keyed by the serial's canonical bytes.
type statusTable struct {
	gen    uint64
	shards [cacheShardCount]tableShard
}

type tableShard struct {
	mu sync.RWMutex
	m  map[string]*cacheEntry
}

// cacheEntry is an immutable memoized status: the Status struct and its
// encoding are shared across goroutines and must never be mutated.
type cacheEntry struct {
	status  *dictionary.Status
	encoded []byte
	// touched is the second-chance access bit: set on every hit (under the
	// read lock only — an atomic store, not a list move), cleared by the
	// eviction scan. An entry is evicted only after surviving untouched
	// from one scan encounter to the next.
	touched atomic.Bool
}

func newStatusCache() *statusCache {
	return &statusCache{seed: maphash.MakeSeed(), shardCap: cacheShardCap}
}

// tableFor returns the instance's table for generation gen, swapping in a
// fresh, empty one the first time gen is seen. It returns nil for a
// straggler: a caller whose snapshot is older than the current table.
// Generations of one instance only grow, so a CAS loser either finds its
// own generation installed or a newer one.
func tableFor(slot *atomic.Pointer[statusTable], gen uint64) *statusTable {
	for {
		t := slot.Load()
		switch {
		case t != nil && t.gen == gen:
			return t
		case t != nil && t.gen > gen:
			return nil
		}
		if next := (&statusTable{gen: gen}); slot.CompareAndSwap(t, next) {
			return next
		}
	}
}

// get looks raw up in the instance's table for generation gen, counting a
// hit or a miss and marking a hit recently used. On a miss it also
// returns the table the recomputed status belongs in (nil for a
// straggler, which must not install). The lookup does not allocate.
func (c *statusCache) get(slot *atomic.Pointer[statusTable], gen uint64, raw []byte) (*cacheEntry, *statusTable) {
	i := maphash.Bytes(c.seed, raw) % cacheShardCount
	t := tableFor(slot, gen)
	if t != nil {
		sh := &t.shards[i]
		sh.mu.RLock()
		e := sh.m[string(raw)]
		sh.mu.RUnlock()
		if e != nil {
			e.touched.Store(true)
			c.counters[i].hits.Add(1)
			return e, nil
		}
	}
	c.counters[i].misses.Add(1)
	return nil, t
}

// put stores an entry in t, evicting one cold entry when the shard is
// full.
func (c *statusCache) put(t *statusTable, raw []byte, e *cacheEntry) {
	i := maphash.Bytes(c.seed, raw) % cacheShardCount
	sh := &t.shards[i]
	key := string(raw)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]*cacheEntry)
	} else if _, replacing := sh.m[key]; !replacing && len(sh.m) >= c.shardCap {
		sh.evictOneLocked()
		c.counters[i].evictions.Add(1)
	}
	sh.m[key] = e
	sh.mu.Unlock()
}

// evictOneLocked removes one entry, preferring cold ones: an entry whose
// access bit is clear goes first; a scan full of hot entries clears their
// bits (second chance) and falls back to the last sampled. Caller holds
// the write lock.
func (sh *tableShard) evictOneLocked() {
	var fallback string
	scanned := 0
	for k, e := range sh.m {
		scanned++
		if !e.touched.Swap(false) {
			delete(sh.m, k)
			return
		}
		fallback = k
		if scanned >= evictScanLimit {
			break
		}
	}
	delete(sh.m, fallback)
}

// entries returns the table's entry count (0 for no table yet).
func (t *statusTable) entries() int {
	if t == nil {
		return 0
	}
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		total += len(sh.m)
		sh.mu.RUnlock()
	}
	return total
}

// CacheStats reports the status cache's effectiveness; benchmarks surface
// HitRate and the snapshot-swap count so the hot-path trajectory is
// trackable across PRs.
type CacheStats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that recomputed a proof (cold key, new
	// generation, or a straggler holding a superseded snapshot).
	Misses int64
	// Evictions counts per-entry removals made to admit new entries into a
	// full shard of one generation's table (the second-chance policy).
	// Statuses dropped with a superseded generation are not evictions.
	Evictions int64
	// Entries is the current number of cached statuses: at most one
	// generation's worth per served dictionary.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// counts sums the counters; the caller adds the tables' Entries.
func (c *statusCache) counts() CacheStats {
	var out CacheStats
	for i := range c.counters {
		sc := &c.counters[i]
		out.Hits += sc.hits.Load()
		out.Misses += sc.misses.Load()
		out.Evictions += sc.evictions.Load()
	}
	return out
}
