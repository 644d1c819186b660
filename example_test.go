package handsfree_test

import (
	"context"
	"fmt"

	"handsfree"
)

// ExampleService builds the optimizer service with functional options, runs
// the full learning lifecycle (demonstration → cost training → latency
// tuning) in the background, and serves the workload through the
// safeguarded, request-scoped Plan path.
func ExampleService() {
	svc, err := handsfree.New(
		handsfree.WithScale(0.05),
		handsfree.WithWorkload(4, 4, 5, 3),
		handsfree.WithFallbackRatio(1.2),
	)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	// Untrained: the expert (traditional optimizer) serves every query.
	before, err := svc.Plan(ctx, svc.Queries()[0])
	if err != nil {
		panic(err)
	}
	fmt.Println("before training:", before.Source)

	// The learning state machine runs in the background; serving continues
	// (and hot-swaps policies) throughout. Tiny budgets keep the example
	// fast.
	err = svc.StartTraining(ctx, handsfree.LifecycleConfig{
		Hidden: []int{32}, DemoSweeps: 1,
		CostEpisodes: 32, LatencyEpisodes: 16, Actors: 2, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		panic(err)
	}

	st := svc.LifecycleStats()
	fmt.Println("phases visited:", len(st.Transitions))
	fmt.Println("final phase:", st.Phase)
	fmt.Println("policy published:", st.PolicyVersion > 0)

	// Trained: decisions consult the learned policy, and the regression
	// guard keeps every served plan within 1.2× the expert's cost.
	after, err := svc.Plan(ctx, svc.Queries()[0])
	if err != nil {
		panic(err)
	}
	fmt.Println("safeguard holds:", after.Cost <= 1.2*after.ExpertCost)
	// Output:
	// before training: expert
	// phases visited: 4
	// final phase: done
	// policy published: true
	// safeguard holds: true
}

// ExampleNew builds the synthetic substrate and plans a SQL query with the
// traditional optimizer.
func ExampleNew() {
	svc, err := handsfree.New(handsfree.WithScale(0.05))
	if err != nil {
		panic(err)
	}
	q, err := handsfree.ParseSQL(`SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE mc.movie_id = t.id AND t.production_year > 50`)
	if err != nil {
		panic(err)
	}
	planned, err := svc.ExpertPlan(context.Background(), q)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", planned.Strategy)
	fmt.Println("relations planned:", len(planned.Root.Aliases()))
	fmt.Println("positive cost:", planned.Cost > 0)
	// Output:
	// strategy: dp
	// relations planned: 2
	// positive cost: true
}

// ExampleWithCache enables the plan cache service: the optimizer memoizes
// its plans and completions by query fingerprint, so every repetition of a
// workload query after the first is served from cache.
func ExampleWithCache() {
	svc, err := handsfree.New(
		handsfree.WithScale(0.05),
		handsfree.WithCache(handsfree.CacheConfig{Capacity: 4096}),
		handsfree.WithWorkload(4, 4, 5, 3),
	)
	if err != nil {
		panic(err)
	}
	// Two passes over the same 4-query workload: the second revisits
	// fingerprints the first one cached.
	ctx := context.Background()
	for range 2 {
		for _, q := range svc.Queries() {
			if _, err := svc.Plan(ctx, q); err != nil {
				panic(err)
			}
		}
	}

	st := svc.CacheStats()
	fmt.Println("cache used:", st.Puts > 0)
	fmt.Println("repeated queries hit:", st.Hits > 0)
	fmt.Println("bounded:", st.Size <= 4096)
	// Output:
	// cache used: true
	// repeated queries hit: true
	// bounded: true
}
