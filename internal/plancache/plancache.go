package plancache

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// Mode identifies which computation an entry memoizes. Every entry is a
// whole decision for one query: the traditional optimizer's plan, or a
// served rollout of one published policy snapshot.
type Mode uint8

const (
	// ModePlan is a full traditional-optimizer plan (Aux carries the
	// effective enumeration strategy). Entries are pure functions of the
	// query and the system configuration and use Epoch 0.
	ModePlan Mode = iota
	// ModeServedRollout is the serving front end's greedy rollout of one
	// published policy snapshot over a whole query. Epoch is the snapshot's
	// parameter-server version: versions are monotone for the life of a
	// service, so a publish invalidates every older entry in O(1). An entry
	// may hold a nil plan (the rollout produced none); that outcome is as
	// repeatable as any other.
	ModeServedRollout
)

// Key identifies one cached computation.
type Key struct {
	// Query is the canonical query fingerprint.
	Query uint64
	// Mode is the memoized computation.
	Mode Mode
	// Aux is a mode-specific discriminator.
	Aux uint8
	// Epoch is the served snapshot's version for ModeServedRollout (0 for
	// ModePlan).
	Epoch uint64
}

// hash mixes the key into the shard-selection hash.
func (k Key) hash() uint64 {
	h := k.Query
	h ^= uint64(k.Mode)<<56 | uint64(k.Aux)<<48
	h ^= bits.RotateLeft64(k.Epoch*0x9e3779b97f4a7c15, 41)
	h *= 0xff51afd7ed558ccd
	return h ^ (h >> 33)
}

// Entry is one memoized plan: the completed physical tree and its cost.
// Cached plan trees are shared between callers and must be treated as
// immutable — every consumer in this repository (cost model, latency model,
// executor, featurizer) only reads them.
type Entry struct {
	Plan plan.Node
	Cost cost.NodeCost
}

// Config sizes a Cache.
type Config struct {
	// Capacity bounds the total number of entries across all shards
	// (default 4096; values < Shards are rounded up to one per shard).
	Capacity int
	// Shards is the shard count, rounded up to a power of two (default 16).
	Shards int
}

func (c *Config) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round shards up to a power of two so shard selection is a mask.
	if c.Shards&(c.Shards-1) != 0 {
		c.Shards = 1 << bits.Len(uint(c.Shards))
	}
}

// node is an intrusive LRU list element.
type node struct {
	key        Key
	entry      Entry
	prev, next *node
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu   sync.Mutex
	m    map[Key]*node
	head *node // most recently used
	tail *node // least recently used
	cap  int
}

func (s *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard) pushFront(n *node) {
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

// Cache is a sharded, concurrency-safe, bounded LRU plan cache.
type Cache struct {
	shards []*shard
	mask   uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	evictions atomic.Uint64
}

// New builds a cache. A nil *Cache is a valid no-op receiver for Get/Put,
// so callers can thread an optional cache without nil checks.
func New(cfg Config) *Cache {
	cfg.fill()
	per := cfg.Capacity / cfg.Shards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*shard, cfg.Shards), mask: uint64(cfg.Shards - 1)}
	for i := range c.shards {
		// The maps grow as entries arrive: sized for per up front, an idle
		// tenant's 16 384-entry cache pinned 1.25 MB of empty buckets.
		c.shards[i] = &shard{m: make(map[Key]*node), cap: per}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard { return c.shards[k.hash()&c.mask] }

// Get returns the entry under k and whether it was present, promoting it to
// most-recently-used. A nil cache always misses (without counting).
func (c *Cache) Get(k Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	n, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Entry{}, false
	}
	if s.head != n {
		s.unlink(n)
		s.pushFront(n)
	}
	e := n.entry
	s.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// Put stores e under k, evicting the shard's least-recently-used entry when
// the shard is full. A nil cache ignores the call.
func (c *Cache) Put(k Key, e Entry) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if n, ok := s.m[k]; ok {
		n.entry = e
		if s.head != n {
			s.unlink(n)
			s.pushFront(n)
		}
		s.mu.Unlock()
		c.puts.Add(1)
		return
	}
	if len(s.m) >= s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.m, lru.key)
		c.evictions.Add(1)
	}
	n := &node{key: k, entry: e}
	s.m[k] = n
	s.pushFront(n)
	s.mu.Unlock()
	c.puts.Add(1)
}

// Len returns the current number of entries across all shards.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// BumpEpoch does nothing: no cache entry is keyed by a cache-wide policy
// epoch any more.
//
// Deprecated: served rollouts are keyed by their snapshot's version, which
// every publish advances; there is nothing to invalidate.
func (c *Cache) BumpEpoch() {}

// Flush drops every entry (pure and policy-dependent alike), releasing every
// plan the cache pinned. Statistics are preserved.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.m = make(map[Key]*node)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// FingerprintOf returns the query's canonical fingerprint, computed on the
// query's first lookup and carried on the query itself from then on: a
// served statement is canonicalized once however many layers key on it, a
// workload query once however many episodes replay it, and nothing is
// pinned beyond the query's own lifetime. Works on a nil cache.
func (c *Cache) FingerprintOf(q *query.Query) uint64 {
	if fp, ok := q.CachedFingerprint(); ok {
		return fp
	}
	fp := Fingerprint(q)
	q.CacheFingerprint(fp)
	return fp
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Puts, Evictions uint64
	// Size is the entry count at snapshot time.
	Size int
	// Statements is the statement table's snapshot. Cache.Stats leaves it
	// zero; the owner of both (handsfree.Service.CacheStats) fills it in.
	Statements StatementStats
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
	}
}
