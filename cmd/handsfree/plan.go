package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"handsfree"
	"handsfree/internal/optimizer"
)

// runPlan optimizes a single query — SQL text or a named workload query —
// with every available planner and reports plans, costs, and the cost
// model's latency predictions, then serves the query through the
// handsfree.Service decision path (expert plan + safeguards). With execute
// the served plan actually runs on the columnar engine and the observed
// latency — the signal the service's latency guard and drift detector feed
// on — is reported next to the decision. A timeout bounds each planning
// call separately.
func runPlan(sql, named string, execute bool, scale float64, timeout time.Duration) {
	if (sql == "") == (named == "") {
		fmt.Fprintln(os.Stderr, "handsfree plan: provide exactly one of -sql or -named")
		os.Exit(2)
	}

	svc, err := handsfree.New(handsfree.WithScale(scale))
	if err != nil {
		fatal(err)
	}
	sys := svc.System()

	// planCtx returns a fresh request context per planning call, so each
	// strategy gets the full timeout budget.
	planCtx := func() (context.Context, context.CancelFunc) {
		if timeout > 0 {
			return context.WithTimeout(context.Background(), timeout)
		}
		return context.Background(), func() {}
	}

	var q *handsfree.Query
	if sql != "" {
		q, err = handsfree.ParseSQL(sql)
	} else {
		q, err = sys.Workload.Named(named)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("query: %s\n\n", q.SQL())
	for _, strat := range []optimizer.Strategy{optimizer.DP, optimizer.Greedy, optimizer.GEQO} {
		if strat == optimizer.DP && len(q.Relations) > sys.Planner.DPThreshold {
			fmt.Printf("— %s: skipped (%d relations exceed the DP threshold)\n\n", strat, len(q.Relations))
			continue
		}
		ctx, cancel := planCtx()
		planned, err := sys.Planner.PlanWithCtx(ctx, q, strat)
		cancel()
		if err != nil {
			fmt.Printf("— %s: aborted (%v)\n\n", strat, err)
			continue
		}
		lat := sys.Latency.Latency(q, planned.Root)
		fmt.Printf("— %s: cost %.1f, est rows %.0f, planning time %s, predicted latency %.2f ms\n%s\n",
			strat, planned.Cost, planned.Rows, planned.Duration.Round(0), lat, handsfree.ExplainPlan(planned.Root))
	}

	if !execute {
		// The service decision: what a hands-free deployment would actually
		// serve (expert until trained, learned within the safeguards after).
		ctx, cancel := planCtx()
		res, err := svc.Plan(ctx, q)
		cancel()
		if err != nil {
			fmt.Printf("— service: aborted (%v)\n", err)
		} else {
			fmt.Printf("— service decision: source %s, cost %.1f (expert %.1f, policy v%d)\n",
				res.Source, res.Cost, res.ExpertCost, res.PolicyVersion)
		}
		return
	}

	// Execute runs the served decision on the engine and feeds the observed
	// latency back into the service's latency guard and drift detector.
	ctx, cancel := planCtx()
	res, err := svc.Execute(ctx, q)
	cancel()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("— service decision: source %s%s, cost %.1f (expert %.1f, policy v%d)\n",
		res.Source, guardNote(res), res.Cost, res.ExpertCost, res.PolicyVersion)
	fmt.Printf("executed: %d result rows in %.2f ms observed (%d work units)\n",
		res.Rows, res.LatencyMs, res.WorkUnits)
	if res.TimedOut {
		fmt.Println("execution was censored at the latency budget")
	}
}

// guardNote annotates a decision's source with which safeguard forced it.
func guardNote(res handsfree.ExecResult) string {
	switch {
	case res.Failed:
		return " (learned execution failed; expert served)"
	case res.LatencyGuarded:
		return " (observed-latency guard)"
	default:
		return ""
	}
}
