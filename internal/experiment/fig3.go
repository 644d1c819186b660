package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"handsfree/internal/optimizer"
	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
	"handsfree/internal/workload"
)

// Fig3aConfig sizes the ReJOIN convergence experiment (paper Figure 3a).
type Fig3aConfig struct {
	// Episodes is the training length (the paper runs 14k; the shape is
	// visible from a few thousand at our scale).
	Episodes int
	// QueryCount, MinRel, MaxRel shape the training workload.
	QueryCount, MinRel, MaxRel int
	// SamplePoints is how many points the output series carries.
	SamplePoints int
	// Window smooths the per-episode cost ratios.
	Window int
	Seed   int64
}

// DefaultFig3aConfig mirrors the paper's setup at reproducible scale. The
// paper's PPO agent reached parity near 9k episodes; this REINFORCE learner
// converges more slowly, so the default run is longer.
func DefaultFig3aConfig() Fig3aConfig {
	return Fig3aConfig{Episodes: 24000, QueryCount: 24, MinRel: 4, MaxRel: 8, SamplePoints: 60, Window: 200, Seed: 7}
}

// Fig3aResult is the convergence curve: training episodes vs. plan cost
// relative to the PostgreSQL-style baseline (percent; 100 = parity).
// Curve tracks the plans sampled during training (exploration included,
// like the paper's plot); Greedy tracks the current policy's pure-
// exploitation plans at the same checkpoints.
type Fig3aResult struct {
	Curve  *Series
	Greedy *Series
	// Baseline is the constant 100% line (the traditional optimizer).
	Baseline *Series
	// FirstParity is the episode at which the greedy curve first reaches
	// ≤ 120% of the baseline (-1 if never).
	FirstParity int
}

// Fig3a trains ReJOIN with the optimizer's cost model as its reward and
// tracks the produced plans' cost relative to the traditional optimizer
// (greedy bottom-up enumeration — the paper's characterization of
// PostgreSQL's algorithm).
func (l *Lab) Fig3a(cfg Fig3aConfig) (*Fig3aResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	expert := map[string]float64{}
	for _, q := range queries {
		planned, err := l.Planner.PlanWith(q, optimizer.Greedy)
		if err != nil {
			return nil, err
		}
		expert[q.Key()] = planned.Cost
	}

	space := l.Space(cfg.MaxRel)
	env := planspace.NewEnv(planspace.Config{Space: space, Planner: l.Planner, Queries: queries})
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1e-3, BatchSize: 32, Seed: cfg.Seed,
	})

	// Smooth the sampled curve geometrically: per-episode ratios span orders
	// of magnitude early in training, and an arithmetic window would let
	// single catastrophic episodes dominate it.
	out := &Fig3aResult{
		Curve:       &Series{Name: "ReJOIN"},
		Greedy:      &Series{Name: "ReJOIN-greedy"},
		Baseline:    &Series{Name: "Postgres"},
		FirstParity: -1,
	}
	step := cfg.Episodes / cfg.SamplePoints
	if step < 1 {
		step = 1
	}
	logRatios := make([]float64, cfg.Episodes)
	for ep := 0; ep < cfg.Episodes; ep++ {
		agent.Observe(env.Episode(agent.Sample))
		logRatios[ep] = math.Log(env.Last.Cost / expert[env.Current().Key()] * 100)
		if ep%step == 0 || ep == cfg.Episodes-1 {
			g := env.CostRatio(queries, expert, agent.Greedy) * 100
			out.Greedy.Add(float64(ep), g)
			if out.FirstParity < 0 && g <= 120 {
				out.FirstParity = ep
			}
		}
	}
	smoothLog := MovingAverage(logRatios, cfg.Window)
	for ep := 0; ep < cfg.Episodes; ep += step {
		out.Curve.Add(float64(ep), math.Exp(smoothLog[ep]))
		out.Baseline.Add(float64(ep), 100)
	}
	out.Curve.Add(float64(cfg.Episodes-1), math.Exp(smoothLog[cfg.Episodes-1]))
	out.Baseline.Add(float64(cfg.Episodes-1), 100)
	return out, nil
}

// Render prints the convergence table.
func (r *Fig3aResult) Render() string {
	t := SeriesTable("Figure 3a — ReJOIN convergence (plan cost % relative to Postgres)", "episode", r.Curve, r.Greedy, r.Baseline)
	s := t.Render()
	if r.FirstParity >= 0 {
		s += fmt.Sprintf("\ngreedy policy first ≤120%% of baseline at episode %d\n", r.FirstParity)
	} else {
		s += "\ngreedy policy never reached 120% of baseline\n"
	}
	return s
}

// Fig3bConfig sizes the per-query final plan cost experiment (Figure 3b).
type Fig3bConfig struct {
	// Episodes trains ReJOIN on the named queries before evaluation.
	Episodes int
	Seed     int64
}

// DefaultFig3bConfig mirrors the paper's setup (longer than Figure 3a's
// per-query budget: these are the workload's largest queries).
func DefaultFig3bConfig() Fig3bConfig {
	return Fig3bConfig{Episodes: 12000, Seed: 7}
}

// Fig3bResult is the per-query cost comparison.
type Fig3bResult struct {
	Table *Table
	// Wins counts queries where ReJOIN's final cost ≤ the baseline's.
	Wins, Total int
}

// Fig3b trains ReJOIN on the ten named JOB-like queries of the paper's
// Figure 3b and compares final (greedy) plan costs against the traditional
// optimizer's greedy enumeration.
func (l *Lab) Fig3b(cfg Fig3bConfig) (*Fig3bResult, error) {
	names := workload.Fig3bNames()
	var queries []*queryWithName
	maxRel := 0
	for _, name := range names {
		q, err := l.Workload.Named(name)
		if err != nil {
			return nil, err
		}
		queries = append(queries, &queryWithName{name: name, q: q})
		if len(q.Relations) > maxRel {
			maxRel = len(q.Relations)
		}
	}
	space := l.Space(maxRel)
	var qs []*query.Query
	for _, qn := range queries {
		qs = append(qs, qn.q)
	}
	// Cross-product actions are masked here: on 8–11-relation queries a
	// single cross-product episode costs ~1e6× a good plan, and REINFORCE
	// at this budget can collapse onto that mode. Follow-up systems to the
	// paper (Neo, Balsa) mask disconnected joins for the same reason; see
	// EXPERIMENTS.md.
	env := planspace.NewEnv(planspace.Config{Space: space, Planner: l.Planner, Queries: qs, DisallowCross: true})
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed,
		EntropyDecay: 0.995,
	})
	for ep := 0; ep < cfg.Episodes; ep++ {
		agent.Observe(env.Episode(agent.Sample))
	}

	res := &Fig3bResult{Table: &Table{
		Title:   "Figure 3b — final optimizer cost per query",
		Columns: []string{"query", "Postgres", "ReJOIN", "ratio"},
	}}
	for _, qn := range queries {
		planned, err := l.Planner.PlanWith(qn.q, optimizer.Greedy)
		if err != nil {
			return nil, err
		}
		out, err := env.GreedyRollout(context.Background(), qn.q, agent.Greedy)
		if err != nil {
			return nil, err
		}
		ratio := out.Cost / planned.Cost
		res.Table.AddRow(qn.name, fmt.Sprintf("%.0f", planned.Cost), fmt.Sprintf("%.0f", out.Cost), fmt.Sprintf("%.3f", ratio))
		res.Total++
		if ratio <= 1.000001 {
			res.Wins++
		}
	}
	return res, nil
}

// Render prints the per-query table.
func (r *Fig3bResult) Render() string {
	return r.Table.Render() + fmt.Sprintf("\nReJOIN matches or beats the baseline on %d/%d queries\n", r.Wins, r.Total)
}

// Fig3cConfig sizes the planning-time experiment (Figure 3c).
type Fig3cConfig struct {
	// RelationCounts to sweep (paper: 4…12, 14, 17).
	RelationCounts []int
	// Repeats averages the timing over this many runs.
	Repeats int
	Seed    int64
}

// DefaultFig3cConfig mirrors the paper's sweep.
func DefaultFig3cConfig() Fig3cConfig {
	return Fig3cConfig{RelationCounts: []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 17}, Repeats: 5, Seed: 7}
}

// Fig3cResult carries planning time (ms) per relation count.
type Fig3cResult struct {
	Postgres *Series
	ReJOIN   *Series
}

// Fig3c measures planning time versus relation count: the traditional
// optimizer (DP through its threshold, GEQO beyond — PostgreSQL's regime
// change) against ReJOIN greedy inference (n−1 network forward passes).
func (l *Lab) Fig3c(cfg Fig3cConfig) (*Fig3cResult, error) {
	maxRel := 0
	for _, n := range cfg.RelationCounts {
		if n > maxRel {
			maxRel = n
		}
	}
	space := l.Space(maxRel)
	res := &Fig3cResult{
		Postgres: &Series{Name: "PostgreSQL"},
		ReJOIN:   &Series{Name: "ReJOIN"},
	}
	for _, n := range cfg.RelationCounts {
		var pgTotal, rjTotal time.Duration
		for rep := 0; rep < cfg.Repeats; rep++ {
			q, err := l.Workload.ByRelations(n, cfg.Seed+int64(rep*1000+n))
			if err != nil {
				return nil, err
			}
			planned, err := l.Planner.Plan(q)
			if err != nil {
				return nil, err
			}
			pgTotal += planned.Duration

			env := planspace.NewEnv(planspace.Config{Space: space, Planner: l.Planner, Queries: []*query.Query{q}})
			agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{128, 64}, Seed: cfg.Seed})
			start := time.Now()
			if _, err := env.GreedyRollout(context.Background(), q, agent.Greedy); err != nil {
				return nil, err
			}
			rjTotal += time.Since(start)
		}
		res.Postgres.Add(float64(n), float64(pgTotal.Microseconds())/float64(cfg.Repeats)/1000)
		res.ReJOIN.Add(float64(n), float64(rjTotal.Microseconds())/float64(cfg.Repeats)/1000)
	}
	return res, nil
}

// Render prints the planning-time table.
func (r *Fig3cResult) Render() string {
	return SeriesTable("Figure 3c — planning time (ms) vs #relations", "#relations", r.Postgres, r.ReJOIN).Render()
}

// queryWithName pairs a named template with its parsed query.
type queryWithName struct {
	name string
	q    *query.Query
}
