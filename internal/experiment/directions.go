package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"handsfree/internal/bootstrap"
	"handsfree/internal/curriculum"
	"handsfree/internal/lfd"
	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// NaiveConfig sizes the §4 negative-result experiment.
type NaiveConfig struct {
	// Episodes is the training budget (the paper gave the naive agent 72
	// hours and it still did not beat random choice).
	Episodes int
	// QueryCount, MinRel, MaxRel shape the workload.
	QueryCount, MinRel, MaxRel int
	// EvalEvery samples the comparison curve.
	EvalEvery int
	Seed      int64
}

// DefaultNaiveConfig mirrors the §4 setup at reproducible scale.
func DefaultNaiveConfig() NaiveConfig {
	return NaiveConfig{Episodes: 6000, QueryCount: 16, MinRel: 5, MaxRel: 8, EvalEvery: 500, Seed: 7}
}

// NaiveResult contrasts the naive full-plan-space agent with a
// join-order-only agent (ReJOIN's restricted space) at the same training
// budget, with uniform random full-space plans as the reference level.
type NaiveResult struct {
	Agent     *Series // naive full-space greedy cost ratio vs expert
	JoinOrder *Series // restricted-space greedy cost ratio vs expert
	// FinalAgent, FinalJoinOrder and RandomLevel summarize the end state.
	FinalAgent, FinalJoinOrder, RandomLevel float64
}

// NaiveFullSpace trains a tabula-rasa policy-gradient agent on the FULL
// pipeline (join order × access paths × operators × aggregation) and
// compares against random choice — §4's "a naive extension of ReJOIN …
// yielded a model that did not out-perform random choice".
func (l *Lab) NaiveFullSpace(cfg NaiveConfig) (*NaiveResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	expert, err := l.expertCosts(queries)
	if err != nil {
		return nil, err
	}
	space := l.Space(cfg.MaxRel)
	mkEnv := func(stages planspace.Stages) *planspace.Env {
		return planspace.NewEnv(planspace.Config{
			Space:   space,
			Stages:  stages,
			Planner: l.Planner,
			Queries: queries,
			Reward:  planspace.CostReward,
			Seed:    cfg.Seed,
		})
	}
	fullEnv := mkEnv(planspace.StagePrefix(planspace.NumStages))
	joinEnv := mkEnv(planspace.StagePrefix(1))
	full := rl.NewReinforce(fullEnv.ObsDim(), fullEnv.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed,
	})
	restricted := rl.NewReinforce(joinEnv.ObsDim(), joinEnv.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed,
	})

	res := &NaiveResult{
		Agent:     &Series{Name: "naive-full-space"},
		JoinOrder: &Series{Name: "join-order-only"},
		// Uniform-random plan construction, averaged over five passes.
		RandomLevel: fullEnv.CostRatio(slices.Repeat(queries, 5), expert, rl.RandomPolicy(cfg.Seed+999)),
	}
	for ep := 0; ep < cfg.Episodes; ep++ {
		traj := fullEnv.Episode(full.Sample)
		full.Observe(traj)
		traj = joinEnv.Episode(restricted.Sample)
		restricted.Observe(traj)
		if ep%cfg.EvalEvery == 0 || ep == cfg.Episodes-1 {
			res.Agent.Add(float64(ep), fullEnv.CostRatio(queries, expert, full.Greedy))
			res.JoinOrder.Add(float64(ep), joinEnv.CostRatio(queries, expert, restricted.Greedy))
		}
	}
	res.FinalAgent = res.Agent.Last()
	res.FinalJoinOrder = res.JoinOrder.Last()
	return res, nil
}

// Render prints the naive-vs-restricted comparison.
func (r *NaiveResult) Render() string {
	s := SeriesTable("§4 — naive full-plan-space DRL vs restricted join-order DRL (cost ratio vs expert)", "episode", r.Agent, r.JoinOrder).Render()
	s += fmt.Sprintf("\nfinal: naive %.1f×, join-order-only %.1f×; uniform-random full-space level %.3g×\n",
		r.FinalAgent, r.FinalJoinOrder, r.RandomLevel)
	return s
}

// ScratchLatencyConfig sizes the footnote-2 experiment.
type ScratchLatencyConfig struct {
	Episodes                   int
	QueryCount, MinRel, MaxRel int
	// BudgetFactor sets the execution budget as a multiple of the expert's
	// latency (plans beyond it "cannot be executed in reasonable time").
	BudgetFactor float64
	Seed         int64
}

// DefaultScratchLatencyConfig mirrors footnote 2.
func DefaultScratchLatencyConfig() ScratchLatencyConfig {
	return ScratchLatencyConfig{Episodes: 300, QueryCount: 12, MinRel: 5, MaxRel: 8, BudgetFactor: 25, Seed: 7}
}

// ScratchLatencyResult reports how tabula-rasa latency-reward training
// spends its time executing un-executable plans.
type ScratchLatencyResult struct {
	Episodes int
	TimedOut int
	// TimeoutFraction = TimedOut / Episodes.
	TimeoutFraction float64
	// WallclockFactor estimates total execution time relative to running
	// every query once with the expert's plans.
	WallclockFactor float64
}

// LatencyFromScratch reproduces footnote 2: a fresh agent trained directly
// on latency must execute its plans; most early plans blow through any
// reasonable execution budget.
func (l *Lab) LatencyFromScratch(cfg ScratchLatencyConfig) (*ScratchLatencyResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Expert latencies define the per-query budget and the wallclock unit.
	var expertTotal float64
	budget := map[string]float64{}
	for _, q := range queries {
		planned, err := l.Planner.Plan(q)
		if err != nil {
			return nil, err
		}
		lat, _ := l.Latency.Execute(q, planned.Root, 0)
		expertTotal += lat
		budget[q.Key()] = lat * cfg.BudgetFactor
	}
	space := l.Space(cfg.MaxRel)
	env := planspace.NewEnv(planspace.Config{
		Space:              space,
		Stages:             planspace.StagePrefix(planspace.NumStages),
		Planner:            l.Planner,
		Latency:            l.Latency,
		Queries:            queries,
		Reward:             planspace.LatencyReward,
		RewardNeedsLatency: true,
		Seed:               cfg.Seed,
	})
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed,
	})

	var execTotal float64
	for ep := 0; ep < cfg.Episodes; ep++ {
		// Per-query budget: the env takes one global budget, so set it to
		// the upcoming query's.
		next := env.Cfg.Queries[(ep)%len(queries)]
		env.Cfg.LatencyBudgetMs = budget[next.Key()]
		traj := env.Episode(agent.Sample)
		agent.Observe(traj)
		execTotal += env.Last.LatencyMs
	}
	res := &ScratchLatencyResult{
		Episodes:        cfg.Episodes,
		TimedOut:        env.TimedOutCount,
		TimeoutFraction: float64(env.TimedOutCount) / float64(cfg.Episodes),
		WallclockFactor: execTotal / expertTotal,
	}
	return res, nil
}

// Render prints the footnote-2 summary.
func (r *ScratchLatencyResult) Render() string {
	return fmt.Sprintf(`§4 footnote 2 — latency as reward, tabula rasa
episodes executed:           %d
hit the execution budget:    %d (%.0f%%)
execution time vs expert:    %.1f× one expert pass over the workload
`, r.Episodes, r.TimedOut, 100*r.TimeoutFraction, r.WallclockFactor)
}

// LfDConfig sizes the §5.1 experiment.
type LfDConfig struct {
	QueryCount, MinRel, MaxRel int
	PretrainBatches            int
	FineTuneEpisodes           int
	Seed                       int64
}

// DefaultLfDConfig mirrors §5.1.
func DefaultLfDConfig() LfDConfig {
	return LfDConfig{QueryCount: 16, MinRel: 4, MaxRel: 7, PretrainBatches: 3000, FineTuneEpisodes: 1200, Seed: 7}
}

// LfDResult compares learning-from-demonstration against a tabula-rasa
// latency learner with the same execution budget.
type LfDResult struct {
	// RatioAfterPretrain is the LfD agent's latency ratio vs expert before
	// any self-driven execution.
	RatioAfterPretrain float64
	// RatioAfterFineTune is the final ratio.
	RatioAfterFineTune float64
	// Catastrophic counts executions ≥ 50× the expert during fine-tuning.
	Catastrophic int
	// ScratchCatastrophic counts them for the tabula-rasa baseline over the
	// same number of executed episodes.
	ScratchCatastrophic int
	// ScratchRatio is the baseline's final latency ratio.
	ScratchRatio float64
	// Retrains counts slip-triggered re-trainings.
	Retrains int
}

// LfDExperiment runs §5.1: demonstrations → imitation → latency fine-tuning,
// against a from-scratch latency learner with the same execution budget.
func (l *Lab) LfDExperiment(cfg LfDConfig) (*LfDResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	space := l.Space(cfg.MaxRel)
	mkEnv := func(seed int64) *planspace.Env {
		return planspace.NewEnv(planspace.Config{
			Space:         space,
			Stages:        planspace.StagePrefix(planspace.NumStages),
			Planner:       l.Planner,
			Latency:       l.Latency,
			Queries:       queries,
			Reward:        planspace.LatencyReward,
			ExecuteAlways: true,
			Seed:          seed,
		})
	}

	agent := lfd.New(lfd.Config{Env: mkEnv(cfg.Seed), Seed: cfg.Seed})
	if err := agent.CollectDemonstrations(); err != nil {
		return nil, err
	}
	agent.Pretrain(cfg.PretrainBatches, 32)

	evalRatio := func(latOf func(*query.Query) float64) float64 {
		ratios := make([]float64, 0, len(queries))
		for _, q := range queries {
			ratios = append(ratios, latOf(q)/agent.ExpertLatency(q))
		}
		return GeoMean(ratios)
	}
	res := &LfDResult{}
	res.RatioAfterPretrain = evalRatio(agent.GreedyLatency)

	for ep := 0; ep < cfg.FineTuneEpisodes; ep++ {
		agent.FineTuneEpisode()
	}
	res.RatioAfterFineTune = evalRatio(agent.GreedyLatency)
	res.Catastrophic = agent.CatastrophicExecutions
	res.Retrains = agent.Retrains

	// Tabula-rasa baseline: latency-reward policy gradient with the same
	// number of executed episodes.
	scratchEnv := mkEnv(cfg.Seed + 1)
	scratch := rl.NewReinforce(scratchEnv.ObsDim(), scratchEnv.ActionDim(), rl.ReinforceConfig{
		Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed + 1,
	})
	expertLat := map[string]float64{}
	for _, q := range queries {
		expertLat[q.Key()] = agent.ExpertLatency(q)
	}
	for ep := 0; ep < cfg.FineTuneEpisodes; ep++ {
		traj := scratchEnv.Episode(scratch.Sample)
		scratch.Observe(traj)
		if scratchEnv.Last.LatencyMs >= 50*expertLat[scratchEnv.Current().Key()] {
			res.ScratchCatastrophic++
		}
	}
	res.ScratchRatio = evalRatio(func(q *query.Query) float64 {
		// A background context never cuts the rollout off: the error is nil.
		out, _ := scratchEnv.GreedyRollout(context.Background(), q, scratch.Greedy)
		return out.LatencyMs
	})
	return res, nil
}

// Render prints the §5.1 comparison.
func (r *LfDResult) Render() string {
	return fmt.Sprintf(`§5.1 — learning from demonstration (latency ratio vs expert; 1.0 = parity)
after imitation only (0 agent executions): %.2f
after latency fine-tuning:                 %.2f
catastrophic executions (LfD):             %d
catastrophic executions (from scratch):    %d
from-scratch final ratio (same budget):    %.2f
slip re-trainings:                         %d
`, r.RatioAfterPretrain, r.RatioAfterFineTune, r.Catastrophic, r.ScratchCatastrophic, r.ScratchRatio, r.Retrains)
}

// BootstrapConfig sizes the §5.2 experiment.
type BootstrapConfig struct {
	QueryCount, MinRel, MaxRel int
	Phase1Episodes             int
	Phase2Episodes             int
	EvalEvery                  int
	Seed                       int64
}

// DefaultBootstrapConfig mirrors §5.2.
func DefaultBootstrapConfig() BootstrapConfig {
	return BootstrapConfig{QueryCount: 16, MinRel: 4, MaxRel: 7, Phase1Episodes: 5000, Phase2Episodes: 2500, EvalEvery: 250, Seed: 7}
}

// BootstrapResult compares the raw reward switch against the paper's linear
// rescaling. The tracked metric is the quality of the plans the agent
// BUILDS AND EXECUTES during training (windowed geometric-mean cost ratio of
// sampled episodes): §5.2's warning is precisely that a destabilized policy
// "begin[s] exploring previously-discarded strategies, requiring the
// execution of poor execution plans".
type BootstrapResult struct {
	Unscaled *Series // windowed log10 training cost ratio vs expert
	Scaled   *Series
	// SwitchEpisode marks where Phase 2 begins.
	SwitchEpisode int
	// Dip quantifies post-switch destabilization: worst post-switch window
	// minus the last pre-switch window (log10 units), per variant.
	DipUnscaled, DipScaled float64
	// PoorUnscaled / PoorScaled count Phase-2 executions ≥ 10× the expert's
	// latency.
	PoorUnscaled, PoorScaled int
}

// BootstrapExperiment runs §5.2 for both Phase-2 reward mappings.
func (l *Lab) BootstrapExperiment(cfg BootstrapConfig) (*BootstrapResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	expert, err := l.expertCosts(queries)
	if err != nil {
		return nil, err
	}
	space := l.Space(cfg.MaxRel)

	// Expert latencies define what a "poor" Phase-2 execution means.
	expertLat := map[string]float64{}
	for _, q := range queries {
		planned, err := l.Planner.Plan(q)
		if err != nil {
			return nil, err
		}
		lat, _ := l.Latency.Execute(q, planned.Root, 0)
		expertLat[q.Key()] = lat
	}

	run := func(scaling bootstrap.Scaling, name string) (*Series, float64, int, error) {
		env := planspace.NewEnv(planspace.Config{
			Space:   space,
			Stages:  planspace.StagePrefix(planspace.NumStages),
			Planner: l.Planner,
			Latency: l.Latency,
			Queries: queries,
			Seed:    cfg.Seed,
		})
		agent := bootstrap.New(bootstrap.Config{
			Env:     env,
			Scaling: scaling,
			Agent: rl.ReinforceConfig{
				Hidden: []int{128, 64}, BatchSize: 16, Seed: cfg.Seed,
			},
		})
		series := &Series{Name: name}
		var window []float64
		flush := func(ep int) float64 {
			if len(window) == 0 {
				return 0
			}
			sum := 0.0
			for _, v := range window {
				sum += v
			}
			r := sum / float64(len(window))
			series.Add(float64(ep), r)
			window = window[:0]
			return r
		}
		pre := 0.0
		for ep := 0; ep < cfg.Phase1Episodes; ep++ {
			out := agent.TrainEpisode()
			window = append(window, math.Log10(out.Cost/expert[env.Current().Key()]))
			if (ep+1)%cfg.EvalEvery == 0 {
				pre = flush(ep)
			}
		}
		agent.SwitchToLatency()
		worst := pre
		poor := 0
		for ep := 0; ep < cfg.Phase2Episodes; ep++ {
			out := agent.TrainEpisode()
			q := env.Current()
			window = append(window, math.Log10(out.Cost/expert[q.Key()]))
			if out.LatencyMs >= 10*expertLat[q.Key()] {
				poor++
			}
			if (ep+1)%cfg.EvalEvery == 0 || ep == cfg.Phase2Episodes-1 {
				if r := flush(cfg.Phase1Episodes + ep); r > worst {
					worst = r
				}
			}
		}
		return series, worst - pre, poor, nil
	}

	unscaled, dipU, poorU, err := run(bootstrap.ScaleNone, "unscaled")
	if err != nil {
		return nil, err
	}
	scaled, dipS, poorS, err := run(bootstrap.ScaleLinear, "scaled")
	if err != nil {
		return nil, err
	}
	return &BootstrapResult{
		Unscaled:      unscaled,
		Scaled:        scaled,
		SwitchEpisode: cfg.Phase1Episodes,
		DipUnscaled:   dipU,
		DipScaled:     dipS,
		PoorUnscaled:  poorU,
		PoorScaled:    poorS,
	}, nil
}

// Render prints the §5.2 comparison.
func (r *BootstrapResult) Render() string {
	s := SeriesTable("§5.2 — cost-model bootstrapping (log10 training cost ratio vs expert)", "episode", r.Unscaled, r.Scaled).Render()
	s += fmt.Sprintf("\nreward switch at episode %d\npost-switch destabilization (log10): unscaled %+.2f, scaled %+.2f\npoor plans executed in phase 2 (≥10× expert latency): unscaled %d, scaled %d\n",
		r.SwitchEpisode, r.DipUnscaled, r.DipScaled, r.PoorUnscaled, r.PoorScaled)
	return s
}

// CurriculumConfig sizes the §5.3 experiment.
type CurriculumConfig struct {
	QueryCount, MinRel, MaxRel int
	// EpisodesPerPhase is each curriculum phase's budget; the flat baseline
	// receives the same total.
	EpisodesPerPhase int
	Seed             int64
}

// DefaultCurriculumConfig mirrors §5.3.
func DefaultCurriculumConfig() CurriculumConfig {
	return CurriculumConfig{QueryCount: 24, MinRel: 2, MaxRel: 7, EpisodesPerPhase: 1500, Seed: 7}
}

// CurriculumResult compares the three decompositions and the flat baseline
// at equal total training budgets.
type CurriculumResult struct {
	Table *Table
	// FinalRatios maps schedule name → final full-pipeline cost ratio on
	// the complete workload.
	FinalRatios map[string]float64
}

// CurriculumExperiment trains pipeline, relations, hybrid, and flat
// schedules with equal budgets and evaluates each final policy on the full
// workload with the full pipeline.
func (l *Lab) CurriculumExperiment(cfg CurriculumConfig) (*CurriculumResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	space := l.Space(cfg.MaxRel)

	// Every schedule receives the same TOTAL training budget (the pipeline
	// schedule's), so the comparison isolates the decomposition itself.
	budget := cfg.EpisodesPerPhase * planspace.NumStages
	perPhase := func(s curriculum.Schedule) curriculum.Schedule {
		for i := range s {
			s[i].Episodes = budget / len(s)
		}
		return s
	}
	schedules := []struct {
		name string
		s    curriculum.Schedule
	}{
		{"pipeline", perPhase(curriculum.PipelineSchedule(cfg.EpisodesPerPhase))},
		{"relations", perPhase(curriculum.RelationsSchedule(cfg.EpisodesPerPhase, relationSteps(cfg.MinRel, cfg.MaxRel)))},
		{"hybrid", perPhase(curriculum.HybridSchedule(cfg.EpisodesPerPhase, cfg.MaxRel))},
		{"flat (naive §4)", curriculum.FlatSchedule(budget)},
	}

	res := &CurriculumResult{
		Table: &Table{
			Title:   "§5.3 — incremental learning (final cost ratio vs expert, full pipeline)",
			Columns: []string{"schedule", "phases", "episodes", "final ratio"},
		},
		FinalRatios: map[string]float64{},
	}
	for _, sc := range schedules {
		tr := curriculum.NewTrainer(curriculum.Config{
			Space:   space,
			Planner: l.Planner,
			Latency: l.Latency,
			Queries: queries,
			Agent: rl.ReinforceConfig{
				Hidden: []int{128, 64}, LR: 1.5e-3, BatchSize: 16, Seed: cfg.Seed,
			},
			Cache: l.PlanCache,
			Seed:  cfg.Seed,
		})
		if _, err := tr.Run(sc.s, nil); err != nil {
			return nil, err
		}
		// Final evaluation: full pipeline over the whole workload.
		final := curriculum.Phase{
			Name:     "eval",
			Stages:   planspace.StagePrefix(planspace.NumStages),
			Episodes: 0,
		}
		if _, err := tr.RunPhase(final, sc.s.TotalEpisodes(), nil); err != nil {
			return nil, err
		}
		ratio, err := tr.EvalRatio(queries)
		if err != nil {
			return nil, err
		}
		res.FinalRatios[sc.name] = ratio
		res.Table.AddRow(sc.name, fmt.Sprintf("%d", len(sc.s)), fmt.Sprintf("%d", sc.s.TotalEpisodes()), fmt.Sprintf("%.2f", ratio))
	}
	return res, nil
}

// Render prints the §5.3 comparison.
func (r *CurriculumResult) Render() string {
	return r.Table.Render()
}

// relationSteps builds the growing-relations curriculum steps.
func relationSteps(minRel, maxRel int) []int {
	var steps []int
	for n := minRel + 1; n <= maxRel; n += 2 {
		steps = append(steps, n)
	}
	if len(steps) == 0 || steps[len(steps)-1] != maxRel {
		steps = append(steps, maxRel)
	}
	return steps
}

// expertCosts plans each query with the traditional optimizer and returns
// cost keyed by query.
func (l *Lab) expertCosts(queries []*query.Query) (map[string]float64, error) {
	out := map[string]float64{}
	for _, q := range queries {
		planned, err := l.Planner.Plan(q)
		if err != nil {
			return nil, err
		}
		out[q.Key()] = planned.Cost
	}
	return out, nil
}
