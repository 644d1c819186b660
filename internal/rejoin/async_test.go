package rejoin

import (
	"bytes"
	"math"
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/plancache"
	"handsfree/internal/rl"
)

// TestTrainAsyncProducesCompleteEpisodes: every async episode must carry a
// completed plan with a positive cost for a workload query, the episode
// budget must be honored exactly, and the learner must actually update.
func TestTrainAsyncProducesCompleteEpisodes(t *testing.T) {
	fx := fixture(t, 4, 4, 5)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	results := agent.TrainAsync(48, rl.AsyncConfig{Actors: 4, Staleness: 2})
	if len(results) != 48 {
		t.Fatalf("TrainAsync returned %d results, want 48", len(results))
	}
	seen := map[string]int{}
	for i, r := range results {
		if r.Plan == nil || r.Query == nil || r.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, r.Plan, r.Cost)
		}
		seen[r.Query.Name]++
	}
	for _, q := range fx.queries {
		if seen[q.Name] == 0 {
			t.Fatalf("query %s never served during async collection", q.Name)
		}
	}
	if agent.RL.Updates == 0 {
		t.Fatal("no policy updates after 48 async episodes with batch size 8")
	}
}

// collectRun trains a fresh agent with the given actor count and returns the
// per-episode costs in ticket order plus the final policy bytes.
func collectRun(t *testing.T, fx fixtureT, cache *plancache.Cache, episodes, actors int) ([]float64, []byte) {
	t.Helper()
	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	if cache != nil {
		env.UseCache(cache)
	}
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	results := agent.TrainAsync(episodes, rl.AsyncConfig{Actors: actors})
	if len(results) != episodes {
		t.Fatalf("TrainAsync returned %d results, want %d", len(results), episodes)
	}
	costs := make([]float64, len(results))
	for i, r := range results {
		if r.Plan == nil || r.Query == nil || r.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, r.Plan, r.Cost)
		}
		costs[i] = r.Cost
	}
	policy, err := agent.Save()
	if err != nil {
		t.Fatal(err)
	}
	return costs, policy
}

// TestParallelCollectionDeterministic runs the same parallel training twice:
// which snapshot each episode sees is decided by its ticket, not by the
// scheduler, so the two runs' episodes and final policies must be identical.
func TestParallelCollectionDeterministic(t *testing.T) {
	fx := fixture(t, 4, 4, 5)
	a, pa := collectRun(t, fx, nil, 32, 4)
	b, pb := collectRun(t, fx, nil, 32, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("episode %d: cost %v vs %v across identical parallel runs", i, a[i], b[i])
		}
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("final policy bytes differ across identical parallel runs")
	}
}

// TestParallelCollectionCoversWorkload checks that staggered actor replicas
// serve every workload query during parallel collection.
func TestParallelCollectionCoversWorkload(t *testing.T) {
	fx := fixture(t, 4, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 3})
	seen := map[string]int{}
	for _, r := range agent.TrainAsync(16, rl.AsyncConfig{Actors: 4}) {
		seen[r.Query.Name]++
	}
	for _, q := range fx.queries {
		if seen[q.Name] == 0 {
			t.Fatalf("query %s never served during parallel collection", q.Name)
		}
	}
}

// TestParallelCollectionTrainsPolicy verifies that the learner actually
// updates from parallel-collected trajectories.
func TestParallelCollectionTrainsPolicy(t *testing.T) {
	fx := fixture(t, 4, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 4})
	agent.TrainAsync(40, rl.AsyncConfig{Actors: 4})
	if agent.RL.Updates != 5 {
		t.Fatalf("%d policy updates after 40 parallel episodes with batch size 8, want 5", agent.RL.Updates)
	}
}

// TestParallelCollectionCacheTransparent: training with the plan cache
// enabled must produce bitwise-identical episode costs and final policy to
// training without it — completion memoization is pure — whether the cache
// starts cold or pre-warmed by an earlier run, and the cache must actually
// serve hits.
func TestParallelCollectionCacheTransparent(t *testing.T) {
	fx := fixture(t, 4, 4, 5)
	plain, plainPolicy := collectRun(t, fx, nil, 32, 4)
	cache := plancache.New(plancache.Config{Capacity: 4096, Shards: 8})
	cold, coldPolicy := collectRun(t, fx, cache, 32, 4)
	warm, warmPolicy := collectRun(t, fx, cache, 32, 4)
	for i := range plain {
		if plain[i] != cold[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v cold-cached", i, plain[i], cold[i])
		}
		if plain[i] != warm[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v warm-cached", i, plain[i], warm[i])
		}
	}
	if !bytes.Equal(plainPolicy, coldPolicy) || !bytes.Equal(plainPolicy, warmPolicy) {
		t.Fatal("final policy bytes differ with the cache enabled")
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatalf("cache never hit during parallel collection: %+v", st)
	}
	if st.EpochBumps == 0 {
		t.Fatal("policy epoch never advanced across snapshot publishes")
	}
}

// greedyRatio trains an agent (sync or async) and returns the geometric
// mean of greedy-plan cost over the workload, normalized per query by the
// traditional optimizer's cost.
func greedyRatio(t *testing.T, fx fixtureT, agent *Agent) float64 {
	t.Helper()
	var logSum float64
	for _, q := range fx.queries {
		_, cost := agent.GreedyPlan(q)
		planned, err := fx.planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(cost / planned.Cost)
	}
	return math.Exp(logSum / float64(len(fx.queries)))
}

// TestTrainAsyncConvergesLikeSync: on the seed workload, async training must
// reach the synchronous path's final plan quality within tolerance — the
// bounded staleness may cost some sample efficiency but must not break
// convergence.
func TestTrainAsyncConvergesLikeSync(t *testing.T) {
	fx := fixture(t, 4, 4, 5)
	const episodes = 240

	build := func(seed int64) *Agent {
		space := featurize.NewSpace(fx.maxRels, fx.est)
		env := NewEnv(space, fx.planner, fx.queries, 1)
		return NewAgent(env, rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: seed})
	}

	syncAgent := build(2)
	syncAgent.TrainEpisodes(episodes)
	syncRatio := greedyRatio(t, fx, syncAgent)

	asyncAgent := build(2)
	asyncAgent.TrainAsync(episodes, rl.AsyncConfig{Actors: 4, Staleness: 4})
	asyncRatio := greedyRatio(t, fx, asyncAgent)

	t.Logf("greedy cost ratio vs optimizer: sync %.3f, async %.3f", syncRatio, asyncRatio)
	if asyncRatio > 1.6*syncRatio {
		t.Fatalf("async final plan quality %.3f not within tolerance of sync %.3f", asyncRatio, syncRatio)
	}
}

// TestTrainAsyncBumpsCacheEpochPerPublish: PR 2's cache invariant — greedy
// plans memoized under one policy must never be served under another — must
// survive concurrent republishing: every snapshot publish advances the
// shared plan cache's policy epoch.
func TestTrainAsyncBumpsCacheEpochPerPublish(t *testing.T) {
	fx := fixture(t, 3, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	cache := plancache.New(plancache.Config{Capacity: 1 << 12})
	env := NewEnv(space, fx.planner, fx.queries, 1).UseCache(cache)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 3})

	before := cache.Stats().EpochBumps
	agent.TrainAsync(24, rl.AsyncConfig{Actors: 3, Staleness: 2})
	bumps := cache.Stats().EpochBumps - before
	updates := uint64(agent.RL.Updates)
	if updates == 0 {
		t.Fatal("learner never updated")
	}
	// One bump when collection starts (fresh snapshots) plus one per
	// publish; with BatchSize 4 over 24 episodes that is one per update.
	if bumps < updates+1 {
		t.Fatalf("cache epoch bumped %d times for %d publishes; stale greedy plans could be served", bumps, updates)
	}

	// The cached greedy plan for the final policy must still be usable:
	// a second evaluation hits the cache and returns an identical plan.
	q := fx.queries[0]
	p1, c1 := agent.GreedyPlan(q)
	hitsBefore := cache.Stats().Hits
	p2, c2 := agent.GreedyPlan(q)
	if cache.Stats().Hits == hitsBefore {
		t.Fatal("repeated greedy evaluation after async training missed the cache")
	}
	if c1 != c2 || plancache.HashPlan(p1) != plancache.HashPlan(p2) {
		t.Fatalf("cached greedy plan diverged: cost %v vs %v", c1, c2)
	}
}
