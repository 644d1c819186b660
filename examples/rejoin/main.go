// ReJOIN (§3 of the paper): train the deep-RL join-order enumerator on a
// small workload and watch it converge toward — and sometimes beat — the
// traditional optimizer's greedy enumeration.
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"

	"handsfree"
	"handsfree/internal/optimizer"
)

func main() {
	// A continuous workload of 4–6 relation queries (an episode per query,
	// repeating — exactly the paper's training loop).
	svc, err := handsfree.New(handsfree.WithScale(0.05), handsfree.WithWorkload(10, 4, 6, 42))
	if err != nil {
		log.Fatal(err)
	}
	sys, queries := svc.System(), svc.Queries()

	agent, err := svc.NewReJOINAgent(queries, handsfree.ReJOINConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// The baseline: the traditional optimizer's greedy bottom-up enumerator
	// (the paper's characterization of PostgreSQL).
	expert := map[string]float64{}
	for _, q := range queries {
		planned, err := sys.Planner.PlanWith(q, optimizer.Greedy)
		if err != nil {
			log.Fatal(err)
		}
		expert[q.Key()] = planned.Cost
	}
	avgRatio := func() float64 {
		var logSum float64
		for _, q := range queries {
			_, cost := agent.Plan(q)
			logSum += math.Log(cost / expert[q.Key()])
		}
		return math.Exp(logSum / float64(len(queries)))
	}

	actors := runtime.NumCPU()
	fmt.Printf("training ReJOIN (reward = optimizer cost model, %d actors)…\n", actors)
	fmt.Printf("%8s  %s\n", "episode", "avg cost vs greedy optimizer")
	for step := 0; step <= 10; step++ {
		if step > 0 {
			agent.TrainAsync(400, handsfree.AsyncConfig{Actors: actors})
		}
		fmt.Printf("%8d  %6.2f×\n", step*400, avgRatio())
	}

	// Show one final plan next to the expert's.
	q := queries[0]
	planned, _ := sys.Planner.PlanWith(q, optimizer.Greedy)
	node, cost := agent.Plan(q)
	fmt.Printf("\nquery %s — greedy optimizer cost %.1f vs ReJOIN cost %.1f\n", q.Name, planned.Cost, cost)
	fmt.Println("\nReJOIN's plan:")
	fmt.Print(handsfree.ExplainPlan(node))
}
