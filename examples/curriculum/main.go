// Incremental learning (§5.3 of the paper): train the full query
// optimization pipeline one step at a time (Figure 8). The policy network is
// carried between phases, with its action layer surgically extended as new
// pipeline stages come under the agent's control.
package main

import (
	"fmt"
	"log"

	"handsfree"
	"handsfree/internal/curriculum"
	"handsfree/internal/featurize"
	"handsfree/internal/rl"
)

func main() {
	svc, err := handsfree.New(handsfree.WithScale(0.05))
	if err != nil {
		log.Fatal(err)
	}
	sys := svc.System()
	queries, err := sys.Workload.Training(12, 2, 6, 21)
	if err != nil {
		log.Fatal(err)
	}

	trainer := curriculum.NewTrainer(curriculum.Config{
		Space:   featurize.NewSpace(6, sys.Est),
		Planner: sys.Planner,
		Latency: sys.Latency,
		Queries: queries,
		Agent:   rl.ReinforceConfig{Hidden: []int{128, 64}, BatchSize: 16, Seed: 7},
		Seed:    7,
	})

	fmt.Println("pipeline curriculum (Figure 8): join order → +index selection → +join operators → +aggregation")
	schedule := curriculum.PipelineSchedule(600)
	base := 0
	for _, phase := range schedule {
		res, err := trainer.RunPhase(phase, base, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s stages=%+v  %4d episodes on %2d queries → cost ratio %.2f× vs expert\n",
			phase.Name, phase.Stages, phase.Episodes, res.QueryCount, res.FinalRatio)
		base += phase.Episodes
	}

	ratio, err := trainer.EvalRatio(queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal full-pipeline policy: %.2f× the traditional optimizer's cost\n", ratio)
	fmt.Println("(compare with `handsfree incremental`, which also runs the relations,")
	fmt.Println(" hybrid, and flat-baseline schedules at equal training budgets)")
}
