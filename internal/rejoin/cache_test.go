package rejoin

import (
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/plancache"
	"handsfree/internal/rl"
)

// TestGreedyPlanCacheInvalidatedByTraining: a greedy plan memoized for one
// policy version must not be served after the policy updates.
func TestGreedyPlanCacheInvalidatedByTraining(t *testing.T) {
	fx := fixture(t, 2, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	cache := plancache.New(plancache.Config{Capacity: 1024, Shards: 4})
	env := NewEnv(space, fx.planner, fx.queries, 1).UseCache(cache)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 3})
	q := fx.queries[0]

	plan1, cost1 := agent.GreedyPlan(q)
	if plan1 == nil {
		t.Fatal("no greedy plan")
	}
	// Served from cache while the policy is unchanged.
	hits := cache.Stats().Hits
	plan2, cost2 := agent.GreedyPlan(q)
	if cache.Stats().Hits != hits+1 {
		t.Fatal("repeated greedy evaluation did not hit the cache")
	}
	if plan2.Signature() != plan1.Signature() || cost2 != cost1 {
		t.Fatal("cached greedy plan differs from computed plan")
	}
	// The hit path must leave the same observable env state as a real run.
	if agent.Env.Current() != q || agent.Env.LastPlan != plan2 || agent.Env.LastCost != cost2 {
		t.Fatal("cache-hit GreedyPlan left stale environment state")
	}

	// Train past one policy update, then re-plan: the lookup key must have
	// rotated (a fresh miss or recompute, never a stale hit with different
	// content than a from-scratch evaluation would give).
	agent.TrainAsync(8, rl.AsyncConfig{Actors: 2})
	if agent.RL.Updates == 0 {
		t.Fatal("test needs at least one policy update")
	}
	planAfter, costAfter := agent.GreedyPlan(q)
	fresh := NewAgent(NewEnv(space, fx.planner, fx.queries, 1), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 3})
	fresh.TrainAsync(8, rl.AsyncConfig{Actors: 2})
	wantPlan, wantCost := fresh.GreedyPlan(q)
	if planAfter.Signature() != wantPlan.Signature() || costAfter != wantCost {
		t.Fatalf("post-update greedy plan differs from uncached agent: cost %v vs %v", costAfter, wantCost)
	}
}

// TestGreedyPlanCachePerAgent: two agents sharing one plan cache must not
// serve each other's memoized greedy plans — each agent's entries are keyed
// by its own cache identity.
func TestGreedyPlanCachePerAgent(t *testing.T) {
	fx := fixture(t, 2, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	cache := plancache.New(plancache.Config{Capacity: 1024, Shards: 4})
	q := fx.queries[0]

	a := NewAgent(NewEnv(space, fx.planner, fx.queries, 1).UseCache(cache), rl.ReinforceConfig{Hidden: []int{16}, Seed: 3})
	b := NewAgent(NewEnv(space, fx.planner, fx.queries, 1).UseCache(cache), rl.ReinforceConfig{Hidden: []int{16}, Seed: 99})
	a.GreedyPlan(q) // populates A's entry for q

	// B must compute its own plan: identical to what B produces uncached.
	fresh := NewAgent(NewEnv(space, fx.planner, fx.queries, 1), rl.ReinforceConfig{Hidden: []int{16}, Seed: 99})
	gotPlan, gotCost := b.GreedyPlan(q)
	wantPlan, wantCost := fresh.GreedyPlan(q)
	if gotPlan.Signature() != wantPlan.Signature() || gotCost != wantCost {
		t.Fatalf("agent B served a foreign cached plan: cost %v, uncached agent gives %v", gotCost, wantCost)
	}
}

// TestGreedyPlanCacheInvalidatedByLoad: restoring a checkpoint must redraw
// the agent's cache identity so plans memoized for the old weights are
// unreachable.
func TestGreedyPlanCacheInvalidatedByLoad(t *testing.T) {
	fx := fixture(t, 2, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	cache := plancache.New(plancache.Config{Capacity: 1024, Shards: 4})
	q := fx.queries[0]

	// A differently-seeded, briefly trained donor policy to restore.
	donor := NewAgent(NewEnv(space, fx.planner, fx.queries, 1), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 42})
	donor.TrainEpisodes(8)
	ckpt, err := donor.Save()
	if err != nil {
		t.Fatal(err)
	}

	a := NewAgent(NewEnv(space, fx.planner, fx.queries, 1).UseCache(cache), rl.ReinforceConfig{Hidden: []int{16}, Seed: 3})
	a.GreedyPlan(q) // memoized under the pre-Load weights
	if err := a.Load(ckpt); err != nil {
		t.Fatal(err)
	}
	gotPlan, gotCost := a.GreedyPlan(q)
	wantPlan, wantCost := donor.GreedyPlan(q)
	if gotPlan.Signature() != wantPlan.Signature() || gotCost != wantCost {
		t.Fatalf("post-Load greedy plan does not match the restored policy: cost %v, want %v", gotCost, wantCost)
	}
}
