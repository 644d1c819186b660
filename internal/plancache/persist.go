package plancache

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"handsfree/internal/plan"
)

// Warm-start persistence: Save serializes the cache's pure entries with gob
// (the same encoding the policy checkpoints use) and Load replays them into
// a cache in a fresh process, so a restarted system serves its repeated
// workload from the first sweep instead of paying the cold completion cost
// again.
//
// Only pure entries travel: policy-dependent (ModeGreedyPolicy,
// ModeServedRollout) entries are keyed by process-local agent identities,
// policy epochs and snapshot versions, so they cannot be meaningful in
// another process and are skipped by Save. Pure entries
// (traditional plans and completion subtrees) are functions of (query
// fingerprint, skeleton hash, mode) alone — the catalog and cost model are
// part of the system configuration — and reload exactly.

// savedCacheVersion is the wire-format version of the persisted cache.
const savedCacheVersion = 1

// savedEntry is one persisted (key, entry) pair.
type savedEntry struct {
	Key   Key
	Entry Entry
}

// savedCache is the gob wire form of a cache dump.
type savedCache struct {
	Version int
	// Tag identifies the system configuration (catalog, statistics, cost
	// model) the entries were computed under; Load refuses a dump whose tag
	// differs from the loader's. Entry keys alone are pure fingerprints of
	// (query, skeleton, mode) — the catalog is implicit — so without the
	// tag a dump from a differently scaled or seeded database would
	// silently serve plans and costs from the wrong system.
	Tag uint64
	// Entries are the pure (policy-independent) cache entries, LRU first.
	Entries []savedEntry
}

// registerPlanNodes makes the concrete plan.Node implementations known to
// gob exactly once (Entry.Plan is an interface value on the wire).
var registerPlanNodes = sync.OnceFunc(func() {
	gob.Register(&plan.Scan{})
	gob.Register(&plan.Join{})
	gob.Register(&plan.Agg{})
})

// Save writes every pure (policy-independent) entry to w, least recently
// used first, so a subsequent Load rebuilds the same recency order. tag
// identifies the system configuration the entries were computed under
// (catalog, statistics, cost model — e.g. a hash of the database seed and
// scale); Load checks it, so a dump can never warm a differently built
// system. The cache stays live during the dump; each shard is locked only
// while its entries are collected.
func (c *Cache) Save(w io.Writer, tag uint64) error {
	if c == nil {
		return fmt.Errorf("plancache: Save on a nil cache")
	}
	registerPlanNodes()
	dump := savedCache{Version: savedCacheVersion, Tag: tag}
	for _, s := range c.shards {
		s.mu.Lock()
		// Walk tail→head (LRU→MRU): replaying in this order makes the last
		// Put the most recently used, matching the live cache.
		for n := s.tail; n != nil; n = n.prev {
			if n.key.Mode.policyDependent() {
				continue
			}
			dump.Entries = append(dump.Entries, savedEntry{Key: n.key, Entry: n.entry})
		}
		s.mu.Unlock()
	}
	return gob.NewEncoder(w).Encode(dump)
}

// Load replays entries previously written by Save into the cache and
// returns how many the cache actually stored. tag must match the dump's
// (see Save): a mismatch errors without loading anything. Entries pass
// through the normal Put path, so the receiving cache's capacity limit
// applies. Loading into a non-empty cache merges.
func (c *Cache) Load(r io.Reader, tag uint64) (int, error) {
	if c == nil {
		return 0, fmt.Errorf("plancache: Load on a nil cache")
	}
	registerPlanNodes()
	var dump savedCache
	if err := gob.NewDecoder(r).Decode(&dump); err != nil {
		return 0, err
	}
	if dump.Version != savedCacheVersion {
		return 0, fmt.Errorf("plancache: unsupported cache dump version %d", dump.Version)
	}
	if dump.Tag != tag {
		return 0, fmt.Errorf("plancache: dump was produced by a different system configuration (tag %#x, want %#x)", dump.Tag, tag)
	}
	restored := 0
	for _, e := range dump.Entries {
		if e.Key.Mode.policyDependent() || e.Entry.Plan == nil {
			continue
		}
		c.Put(e.Key, e.Entry)
		restored++
	}
	return restored, nil
}
