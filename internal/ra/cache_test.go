package ra

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// smallStatusCache returns a cache with a tiny per-shard capacity so
// overflow is reachable without 256k inserts; the knob is per instance,
// never shared state.
func smallStatusCache(shardCap int) *statusCache {
	c := newStatusCache()
	c.shardCap = shardCap
	return c
}

func keyOf(i int) []byte { return []byte(fmt.Sprintf("sn-%d", i)) }

func entry() *cacheEntry { return &cacheEntry{encoded: []byte{1}} }

// fill looks key up at gen and, on a miss, installs a fresh entry the way
// Store.Status does; it reports whether the lookup hit.
func fill(c *statusCache, slot *atomic.Pointer[statusTable], gen uint64, key []byte) bool {
	e, t := c.get(slot, gen, key)
	if e != nil {
		return true
	}
	if t != nil {
		c.put(t, key, entry())
	}
	return false
}

// TestStatusCacheEvictionBounded floods one generation's table far past
// its capacity: the entry count must stay bounded per shard and every
// admission beyond capacity must be a single-entry eviction, not a shard
// reset.
func TestStatusCacheEvictionBounded(t *testing.T) {
	const shardCap = 4
	c := smallStatusCache(shardCap)
	var slot atomic.Pointer[statusTable]
	const inserts = 64 * shardCap * 4
	for i := 0; i < inserts; i++ {
		fill(c, &slot, 7, keyOf(i))
	}
	entries := slot.Load().entries()
	if max := cacheShardCount * shardCap; entries > max {
		t.Errorf("entries = %d, want ≤ %d", entries, max)
	}
	if entries < shardCap { // the load spreads over 64 shards
		t.Errorf("entries = %d, implausibly low", entries)
	}
	if want := int64(inserts - cacheShardCount*shardCap); c.counts().Evictions < want {
		t.Errorf("evictions = %d, want ≥ %d", c.counts().Evictions, want)
	}
}

// TestStatusCacheHotEntrySurvivesEviction is the thrashing regression the
// whole-shard reset had: a continuously hit entry must survive arbitrarily
// many cold insertions within its generation, because every hit re-arms
// its second-chance bit.
func TestStatusCacheHotEntrySurvivesEviction(t *testing.T) {
	c := smallStatusCache(4)
	var slot atomic.Pointer[statusTable]
	hot := keyOf(1_000_000)
	fill(c, &slot, 3, hot)
	for i := 0; i < 2000; i++ {
		fill(c, &slot, 3, keyOf(i))
		if !fill(c, &slot, 3, hot) {
			t.Fatalf("hot entry evicted after %d cold inserts", i+1)
		}
	}
	if c.counts().Evictions == 0 {
		t.Fatal("no evictions happened; the test exercised nothing")
	}
}

// TestStatusCacheHoldsOneGeneration: the first lookup at a newer
// generation drops the previous generation's statuses wholesale — the
// table then holds exactly the new generation's keys — and a straggler
// still holding the old generation proves uncached: it neither hits nor
// installs.
func TestStatusCacheHoldsOneGeneration(t *testing.T) {
	c := newStatusCache()
	var slot atomic.Pointer[statusTable]
	const g, m, k = 5, 500, 37
	for i := 0; i < m; i++ {
		fill(c, &slot, g, keyOf(i))
	}
	if got := slot.Load().entries(); got != m {
		t.Fatalf("generation %d holds %d entries, want %d", g, got, m)
	}
	for i := 0; i < k; i++ {
		if fill(c, &slot, g+1, keyOf(i)) {
			t.Fatalf("key %d hit at generation %d with a status of %d", i, g+1, g)
		}
	}
	if got := slot.Load().entries(); got != k {
		t.Fatalf("after advancing, entries = %d, want %d (one generation)", got, k)
	}

	before := c.counts()
	for _, i := range []int{0, k - 1, m - 1} { // in g+1 and g; only in g
		if e, tbl := c.get(&slot, g, keyOf(i)); e != nil || tbl != nil {
			t.Fatalf("straggler at %d: entry %v, table %v; want an uncached miss", g, e, tbl)
		}
	}
	after := c.counts()
	if after.Hits != before.Hits || after.Misses != before.Misses+3 {
		t.Errorf("straggler lookups counted hits %d→%d misses %d→%d, want 3 misses",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if got := slot.Load(); got.gen != g+1 || got.entries() != k {
		t.Errorf("straggler changed the table: gen %d entries %d, want %d/%d", got.gen, got.entries(), g+1, k)
	}
	// The current generation still serves what it holds.
	if !fill(c, &slot, g+1, keyOf(0)) {
		t.Error("current generation no longer serves its own entry")
	}
}
