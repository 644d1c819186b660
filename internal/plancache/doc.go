// Package plancache is the plan cache service: a sharded, concurrency-safe
// memoization layer mapping canonical query fingerprints (plus partial-plan
// skeleton signatures) to completed physical plans and their costs.
//
// The paper's training loop (Marcus & Papaemmanouil, CIDR 2019, §3–§5)
// serves every workload query once per episode sweep, and each episode ends
// with the traditional optimizer completing the agent's partial plan —
// access-path, operator, and aggregation selection over the learned join
// order. That completion is a pure function of (query, skeleton), yet the
// seed system recomputed it from scratch for every repetition of every
// workload query; after the batched tensor path of PR 1 it was the dominant
// per-episode cost during collection. Neo (Marcus et al., VLDB 2019)
// likewise assumes repeated queries are cheap on the second visit. This
// package makes them cheap.
//
// # Keys
//
// A cache Key has five parts:
//
//   - Query: Fingerprint(q), a 64-bit hash over the query's canonicalized
//     relations, join graph, and predicates. Permuting the relation list,
//     the join list, the filter list, or the two sides of any equality join
//     does not change the fingerprint; changing any logical content does
//     (up to 64-bit collision chance).
//   - Skeleton: HashPlan of the partial plan (an allocation-free
//     structural tree hash); zero for whole-query entries (full optimizer
//     plans, learned greedy plans).
//   - Mode: which computation produced the entry (subtree completion,
//     full-plan completion, fixed-plan costing, traditional planning, or a
//     learned policy's greedy plan).
//   - Aux: a mode-specific discriminator (aggregation algorithm,
//     enumeration strategy).
//   - Epoch: the policy epoch for policy-dependent entries. Optimizer
//     completions are pure and use epoch 0; learned greedy plans are keyed
//     by the epoch current when they were produced, so BumpEpoch —
//     called whenever fresh policy snapshots are taken or the policy is
//     transferred across curriculum phases — invalidates them in O(1)
//     without touching pure entries. Stale entries simply never match
//     again and age out through the LRU. Served rollouts
//     (ModeServedRollout) use the published snapshot's version here
//     instead, with the same effect on every publish.
//
// # Sharding and eviction
//
// The cache is split into power-of-two shards selected by key hash; each
// shard holds an independent mutex, hash map, and intrusive LRU list, so
// parallel training actors (rl.TrainAsyncCtx) rarely contend on the
// same lock. Total capacity is bounded; inserting into a full shard evicts
// that shard's least-recently-used entry. Hits, misses, puts, evictions,
// and epoch bumps are counted with atomics and exposed via Stats.
package plancache
