// Package plancache is the plan cache service: a sharded, concurrency-safe
// memoization layer mapping canonical query fingerprints to whole planning
// decisions — the traditional optimizer's plan for a query, and the served
// policy's greedy rollout of it — and their costs.
//
// The paper's system (Marcus & Papaemmanouil, CIDR 2019) answers the same
// workload queries again and again, and Neo (Marcus et al., VLDB 2019)
// likewise assumes a repeated query is cheap on its second visit. This
// package makes it cheap: a repeated query skips enumeration (ModePlan) and,
// while the served policy is unchanged, the rollout (ModeServedRollout).
// The per-episode completion of a learned join order is not cached; the
// training environments keep each query's priced access paths themselves
// (optimizer.Leaves), which is where that completion spent its time. The
// cache lives in its process only: nothing writes it out or reads it back.
//
// # Keys
//
// A cache Key has three parts:
//
//   - Query: Fingerprint(q), a 64-bit hash over the query's canonicalized
//     relations, join graph, and predicates. Permuting the relation list,
//     the join list, the filter list, or the two sides of any equality join
//     does not change the fingerprint; changing any logical content does
//     (up to 64-bit collision chance).
//   - Mode and Aux: which decision the entry holds (ModePlan or
//     ModeServedRollout) and a mode-specific discriminator (a ModePlan
//     entry's enumeration strategy and ablation bits).
//   - Epoch: for ModeServedRollout, the parameter-server version of the
//     snapshot that rolled the plan out; 0 for ModePlan. There is no
//     cache-wide policy epoch: versions are monotone for the life of a
//     service, so every publish leaves the older rollouts unmatchable in
//     O(1), and they age out through the LRU.
//
// # Sharding and eviction
//
// The cache is split into power-of-two shards selected by key hash; each
// shard holds an independent mutex, hash map, and intrusive LRU list, so
// concurrent requests rarely contend on the same lock. Total capacity is bounded; inserting into a full shard evicts
// that shard's least-recently-used entry. Hits, misses, puts and evictions
// are counted with atomics and exposed via Stats.
package plancache
