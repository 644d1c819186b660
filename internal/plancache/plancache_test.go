package plancache

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/plan"
)

func entryFor(i int) Entry {
	return Entry{
		Plan: &plan.Scan{Alias: fmt.Sprintf("a%d", i), Table: "t"},
		Cost: cost.NodeCost{Total: float64(i)},
	}
}

func TestCacheGetPut(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	k := Key{Query: 1, Mode: ModePlan, Aux: 2}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(k, entryFor(7))
	e, ok := c.Get(k)
	if !ok || e.Cost.Total != 7 {
		t.Fatalf("Get after Put: ok=%v cost=%v", ok, e.Cost.Total)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / size 1", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
	// A served rollout may produce no plan; that outcome is remembered too.
	none := Key{Query: 2, Mode: ModeServedRollout, Epoch: 3}
	c.Put(none, Entry{Cost: cost.NodeCost{Total: math.Inf(1)}})
	if e, ok := c.Get(none); !ok || e.Plan != nil || !math.IsInf(e.Cost.Total, 1) {
		t.Fatalf("plan-less rollout: ok=%v entry=%+v", ok, e)
	}
}

// TestCacheKeyComponentsDistinguish: every key field participates in
// identity, so the same query under a different mode, aux, or epoch is a
// distinct entry.
func TestCacheKeyComponentsDistinguish(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	base := Key{Query: 9, Mode: ModePlan, Aux: 0, Epoch: 0}
	c.Put(base, entryFor(1))
	for _, k := range []Key{
		{Query: 10, Mode: ModePlan},
		{Query: 9, Mode: ModeServedRollout},
		{Query: 9, Mode: ModePlan, Aux: 1},
		{Query: 9, Mode: ModePlan, Epoch: 1},
	} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %+v unexpectedly matched %+v", k, base)
		}
	}
}

// TestCacheLRUEviction: a full shard evicts its least-recently-used entry,
// and a Get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c := New(Config{Capacity: 2, Shards: 1}) // one shard, two slots
	k1, k2, k3 := Key{Query: 1}, Key{Query: 2}, Key{Query: 3}
	c.Put(k1, entryFor(1))
	c.Put(k2, entryFor(2))
	c.Get(k1) // k1 now most recent; k2 is LRU
	c.Put(k3, entryFor(3))
	if _, ok := c.Get(k2); ok {
		t.Fatal("LRU entry k2 survived eviction")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok := c.Get(k3); !ok {
		t.Fatal("new entry k3 missing")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / size 2", st)
	}
}

// TestCacheCapacityBound: the cache never holds more than its capacity.
func TestCacheCapacityBound(t *testing.T) {
	c := New(Config{Capacity: 32, Shards: 4})
	for i := 0; i < 1000; i++ {
		c.Put(Key{Query: uint64(i)}, entryFor(i))
	}
	if n := c.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, capacity 32", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

// TestCacheStartsEmpty: capacity is a bound, not a reservation. A fresh cache
// of the benchmark tenant's 16 384 entries holds next to nothing, still fills
// to exactly its capacity, and from there evicts least recently used first,
// one entry per entry put.
func TestCacheStartsEmpty(t *testing.T) {
	const capacity = 16384
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Config{Capacity: capacity})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held >= 64<<10 {
		t.Errorf("an empty cache of capacity %d holds %d bytes, want under 64 kB", capacity, held)
	}

	// Sequential query ids spread evenly over the shards (Key.hash mixes, so
	// "evenly" is checked, not assumed: a shard that filled early evicts).
	n := 0
	for c.Stats().Evictions == 0 {
		c.Put(Key{Query: uint64(n)}, entryFor(n))
		n++
	}
	if st := c.Stats(); st.Size > capacity || st.Size < capacity/2 {
		t.Fatalf("first eviction at size %d, capacity %d", st.Size, capacity)
	}
	one := New(Config{Capacity: capacity, Shards: 1})
	for i := 0; i < capacity; i++ {
		one.Put(Key{Query: uint64(i)}, entryFor(i))
	}
	if st := one.Stats(); st.Size != capacity || st.Evictions != 0 {
		t.Fatalf("one shard should hold exactly its capacity: %+v", st)
	}
	one.Get(Key{Query: 0}) // 0 is now most recent; 1 is LRU
	one.Put(Key{Query: capacity}, entryFor(capacity))
	if _, ok := one.Get(Key{Query: 1}); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	if _, ok := one.Get(Key{Query: 0}); !ok {
		t.Error("recently used entry 0 was evicted")
	}
	if st := one.Stats(); st.Size != capacity || st.Evictions != 1 {
		t.Errorf("stats = %+v, want size %d after 1 eviction", st, capacity)
	}
	one.Flush()
	if one.Len() != 0 {
		t.Errorf("flushed cache holds %d entries", one.Len())
	}
}

func TestCacheFlush(t *testing.T) {
	c := New(Config{Capacity: 64, Shards: 4})
	for i := 0; i < 10; i++ {
		c.Put(Key{Query: uint64(i)}, entryFor(i))
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after Flush", c.Len())
	}
	if _, ok := c.Get(Key{Query: 3}); ok {
		t.Fatal("entry visible after Flush")
	}
}

// TestCacheNilReceiver: a nil *Cache is a safe no-op so call sites can
// thread an optional cache without branching.
func TestCacheNilReceiver(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{Query: 1}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{Query: 1}, entryFor(1))
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("nil cache reported non-zero state")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestCacheConcurrent hammers the cache from many goroutines (run with
// -race): correctness here is no panics, no lost shards, and the capacity
// bound holding under contention.
func TestCacheConcurrent(t *testing.T) {
	c := New(Config{Capacity: 128, Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Query: uint64((w*31 + i) % 200), Mode: Mode(i % 2)}
				if i%3 == 0 {
					c.Put(k, entryFor(i))
				} else {
					c.Get(k)
				}
				if i%500 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > 128 {
		t.Fatalf("capacity exceeded under contention: %d", n)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := New(Config{Capacity: 1024, Shards: 16})
	k := Key{Query: 42, Mode: ModePlan}
	c.Put(k, entryFor(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCacheMiss(b *testing.B) {
	c := New(Config{Capacity: 1024, Shards: 16})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(Key{Query: uint64(i)})
	}
}

func BenchmarkCachePut(b *testing.B) {
	c := New(Config{Capacity: 1024, Shards: 16})
	e := entryFor(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(Key{Query: uint64(i & 2047)}, e)
	}
}
