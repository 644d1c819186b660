// Cost-model bootstrapping (§5.2 of the paper): a policy-gradient agent
// trains with the optimizer's cost model as "training wheels" (no plan is
// ever executed), then switches its reward to observed latency — using the
// paper's linear rescaling so the reward range does not jump.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"handsfree"
	"handsfree/internal/bootstrap"
	"handsfree/internal/featurize"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
)

func main() {
	svc, err := handsfree.New(handsfree.WithScale(0.05))
	if err != nil {
		log.Fatal(err)
	}
	sys := svc.System()
	queries, err := sys.Workload.Training(8, 4, 6, 17)
	if err != nil {
		log.Fatal(err)
	}
	expert := map[string]float64{}
	for _, q := range queries {
		planned, err := svc.ExpertPlan(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		expert[q.Key()] = planned.Cost
	}

	env := planspace.NewEnv(planspace.Config{
		Space:   featurize.NewSpace(6, sys.Est),
		Stages:  planspace.StagePrefix(planspace.NumStages),
		Planner: sys.Planner,
		Latency: sys.Latency,
		Queries: queries,
		Seed:    3,
	})
	agent := bootstrap.New(bootstrap.Config{
		Env:     env,
		Scaling: bootstrap.ScaleLinear, // the paper's latency→cost rescaling
		Agent:   rl.ReinforceConfig{Hidden: []int{128, 64}, BatchSize: 16, Seed: 7},
	})

	report := func(phase string, ep int, out planspace.Outcome) {
		fmt.Printf("  [%s] episode %4d: cost ratio %7.1f× (log10 %.2f)\n",
			phase, ep, out.Cost/expert[env.Current().Key()],
			math.Log10(out.Cost/expert[env.Current().Key()]))
	}

	fmt.Println("phase 1: reward = optimizer cost model (training wheels — nothing is executed)")
	for ep := 0; ep < 1600; ep++ {
		out := agent.TrainEpisode()
		if ep%400 == 0 {
			report("cost", ep, out)
		}
	}
	fmt.Printf("  plans executed so far: %d\n", env.Executions)

	fmt.Println("\nphase 2: reward = observed latency, rescaled into the phase-1 cost range")
	agent.SwitchToLatency()
	fmt.Printf("  calibration range (log-cost): [%.2f, %.2f]\n", agent.CostRange().Min(), agent.CostRange().Max())
	for ep := 0; ep < 800; ep++ {
		out := agent.TrainEpisode()
		if ep%200 == 0 {
			report("latency", ep, out)
		}
	}
	fmt.Printf("  plans executed in phase 2: %d\n", env.Executions)

	fmt.Printf("\nfinal greedy cost ratio vs expert (geomean): %.2f×\n", env.CostRatio(queries, expert, agent.RL.Greedy))
}
