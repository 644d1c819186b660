// Learning from demonstration (§5.1 of the paper): the agent first imitates
// the traditional optimizer (observing executions of *feasible* plans only),
// then fine-tunes on observed latency — reaching near-expert performance
// without ever executing the catastrophic plans a tabula-rasa learner
// stumbles through.
package main

import (
	"fmt"
	"log"
	"math"

	"handsfree"
	"handsfree/internal/featurize"
	"handsfree/internal/lfd"
	"handsfree/internal/planspace"
)

func main() {
	svc, err := handsfree.New(handsfree.WithScale(0.05))
	if err != nil {
		log.Fatal(err)
	}
	sys := svc.System()
	queries, err := sys.Workload.Training(8, 4, 6, 13)
	if err != nil {
		log.Fatal(err)
	}

	maxRel := 6
	env := planspace.NewEnv(planspace.Config{
		Space:         featurize.NewSpace(maxRel, sys.Est),
		Stages:        planspace.StagePrefix(planspace.NumStages), // full pipeline
		Planner:       sys.Planner,
		Latency:       sys.Latency,
		Queries:       queries,
		Reward:        planspace.LatencyReward,
		ExecuteAlways: true,
		Seed:          3,
	})
	agent := lfd.New(lfd.Config{Env: env, Seed: 7})

	fmt.Println("step 1–2: watching the expert plan and executing its plans…")
	if err := agent.CollectDemonstrations(); err != nil {
		log.Fatal(err)
	}
	for _, d := range agent.Demos() {
		fmt.Printf("  %-10s expert latency %8.2f ms (%d decisions recorded)\n",
			d.Query.Name, d.LatencyMs, len(d.Traj.Steps))
	}

	fmt.Println("\nstep 3: training the reward-prediction network on demonstrations…")
	loss := agent.Pretrain(2000, 32)
	fmt.Printf("  final demonstration loss %.4f\n", loss)

	ratio := func() float64 {
		var logSum float64
		for _, q := range queries {
			logSum += math.Log(agent.GreedyLatency(q) / agent.ExpertLatency(q))
		}
		return math.Exp(logSum / float64(len(queries)))
	}
	fmt.Printf("\nafter imitation alone: latency ratio vs expert = %.2f× (zero exploratory executions)\n", ratio())

	fmt.Println("\nstep 4–5: fine-tuning on observed latency (with slip detection)…")
	for ep := 0; ep < 200; ep++ {
		res := agent.FineTuneEpisode()
		if res.Retrained {
			fmt.Printf("  episode %d: performance slipped — re-trained on expert demonstrations\n", ep)
		}
	}
	fmt.Printf("after fine-tuning: latency ratio vs expert = %.2f×\n", ratio())
	fmt.Printf("catastrophic executions during fine-tuning: %d\n", agent.CatastrophicExecutions)
}
