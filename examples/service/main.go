// Service lifecycle: run the paper's learning state machine — observe the
// expert (§5.1), train on cost (§5.2 Phase 1), fine-tune on latency (§5.2
// Phase 2) — as a background goroutine while the service keeps serving
// plans, then inspect the transitions and the regression-guard counters.
package main

import (
	"context"
	"fmt"
	"log"

	"handsfree"
)

func main() {
	svc, err := handsfree.New(
		handsfree.WithScale(0.05),
		handsfree.WithWorkload(6, 4, 6, 3),
		handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}),
		handsfree.WithFallbackRatio(1.2),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Before training: the expert (traditional optimizer) serves everything.
	first, err := svc.Plan(ctx, svc.Queries()[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before training: source=%s policy=v%d\n", first.Source, first.PolicyVersion)

	// Run the learning state machine in the background. The zero-value
	// budgets are quick; production runs scale CostEpisodes/LatencyEpisodes
	// up.
	if err := svc.StartTraining(ctx, handsfree.LifecycleConfig{Seed: 7}); err != nil {
		log.Fatal(err)
	}

	// Serving continues during training — policy snapshots hot-swap under
	// these calls with monotone versions.
	for svc.TrainingActive() {
		for _, q := range svc.Queries() {
			if _, err := svc.Plan(ctx, q); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := svc.WaitTraining(ctx); err != nil {
		log.Fatal(err)
	}

	st := svc.LifecycleStats()
	fmt.Printf("lifecycle: %s, policy v%d\n", st.Phase, st.PolicyVersion)
	for _, tr := range st.Transitions {
		fmt.Printf("  %s → %s (%s)\n", tr.From, tr.To, tr.Reason)
	}

	// After training: learned plans are served only within the safeguard
	// bound; regressions fall back to the expert plan and are counted.
	for _, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-8s cost %10.1f (expert %10.1f)\n", q.Name, res.Source, res.Cost, res.ExpertCost)
	}
	final := svc.LifecycleStats()
	fmt.Printf("counters: %d plans, %d learned, %d expert, %d fallbacks\n",
		final.Plans, final.LearnedServed, final.ExpertServed, final.Fallbacks)
}
