package experiment

import (
	"fmt"

	"handsfree/internal/cost"
	"handsfree/internal/engine"
	"handsfree/internal/optimizer"
	"handsfree/internal/stats"
)

// AblationOracleConfig sizes the cost-model-error ablation.
type AblationOracleConfig struct {
	// Sigmas are the join-error field strengths to sweep (stats.Oracle's
	// JoinSigma; 0 = the cost model is perfectly informed).
	Sigmas []float64
	// QueryCount, MinRel, MaxRel shape the evaluation workload.
	QueryCount, MinRel, MaxRel int
	Seed                       int64
}

// DefaultAblationOracleConfig sweeps the error strengths around the default.
func DefaultAblationOracleConfig() AblationOracleConfig {
	return AblationOracleConfig{Sigmas: []float64{0, 0.4, 0.8, 1.2}, QueryCount: 16, MinRel: 4, MaxRel: 8, Seed: 7}
}

// AblationOracleResult reports, per error strength, the latency headroom a
// latency-informed optimizer has over the cost-model-driven expert: the
// geometric mean of expert-plan latency divided by truth-informed-plan
// latency. Headroom 1.0 means the cost model loses nothing; the paper's
// motivation (§4, "using DRL to find execution plans with a low cost …
// might not always achieve the best possible results") predicts headroom
// grows with estimation error.
type AblationOracleResult struct {
	Table    *Table
	Headroom map[float64]float64
}

// AblationOracle quantifies the exploitable gap the oracle's systematic
// error field creates. For each sigma it rebuilds the truth oracle, plans
// each query twice — once with the estimator-driven cost model (the expert)
// and once with a truth-driven model (a "perfectly informed" planner) — and
// compares the simulated latencies of the two plans.
func (l *Lab) AblationOracle(cfg AblationOracleConfig) (*AblationOracleResult, error) {
	queries, err := l.Workload.Training(cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &AblationOracleResult{
		Table: &Table{
			Title:   "ablation — latency headroom vs cost-model error strength",
			Columns: []string{"join-error σ", "headroom (expert lat / informed lat)"},
		},
		Headroom: map[float64]float64{},
	}
	for _, sigma := range cfg.Sigmas {
		oracle := stats.NewOracle(l.Est, l.Oracle.Seed)
		oracle.JoinSigma = sigma
		if sigma == 0 {
			oracle.JoinBias = 0
			oracle.FilterSigma = 0
		}
		latency := engine.NewLatencyModel(oracle, l.Latency.Seed)

		// The informed planner optimizes the hardware-truth objective
		// directly (the best a learned optimizer could hope to reach).
		informedModel := cost.New(engine.HardwareParams(), oracle)
		informed := optimizer.New(l.DB.Catalog, informedModel)

		ratios := make([]float64, 0, len(queries))
		for _, q := range queries {
			expertPlan, err := l.Planner.Plan(q)
			if err != nil {
				return nil, err
			}
			informedPlan, err := informed.Plan(q)
			if err != nil {
				return nil, err
			}
			expertLat := latency.Latency(q, expertPlan.Root)
			informedLat := latency.Latency(q, informedPlan.Root)
			if informedLat <= 0 {
				continue
			}
			ratios = append(ratios, expertLat/informedLat)
		}
		h := GeoMean(ratios)
		res.Headroom[sigma] = h
		res.Table.AddRow(fmt.Sprintf("%.1f", sigma), fmt.Sprintf("%.2f×", h))
	}
	return res, nil
}

// Render prints the headroom table.
func (r *AblationOracleResult) Render() string {
	return r.Table.Render() + "\n(headroom is what a perfectly latency-informed planner saves over the\ncost-model expert; it bounds what any learned optimizer can gain)\n"
}

// AblationEnumeratorConfig sizes the enumerator ablation.
type AblationEnumeratorConfig struct {
	// RelationCounts to sweep.
	RelationCounts []int
	// Repeats averages each point.
	Repeats int
	Seed    int64
}

// DefaultAblationEnumeratorConfig sweeps the DP regime.
func DefaultAblationEnumeratorConfig() AblationEnumeratorConfig {
	return AblationEnumeratorConfig{RelationCounts: []int{4, 6, 8, 10, 12}, Repeats: 3, Seed: 7}
}

// AblationEnumeratorResult compares bushy DP, left-deep DP, greedy, and
// GEQO on plan quality (cost relative to bushy DP) and planning time.
type AblationEnumeratorResult struct {
	Quality *Table
	Time    *Table
}

// AblationEnumerator runs the enumerator ablation: the design-space choice
// (DESIGN.md) of giving the expert bushy DP rather than the classical
// left-deep restriction, quantified.
func (l *Lab) AblationEnumerator(cfg AblationEnumeratorConfig) (*AblationEnumeratorResult, error) {
	res := &AblationEnumeratorResult{
		Quality: &Table{
			Title:   "ablation — plan cost relative to bushy DP (geomean)",
			Columns: []string{"#relations", "left-deep DP", "greedy", "geqo"},
		},
		Time: &Table{
			Title:   "ablation — planning time (ms, mean)",
			Columns: []string{"#relations", "bushy DP", "left-deep DP", "greedy", "geqo"},
		},
	}
	leftPlanner := optimizer.New(l.DB.Catalog, l.Cost)
	leftPlanner.LeftDeepOnly = true

	for _, n := range cfg.RelationCounts {
		type acc struct {
			ratios []float64
			timeMs float64
		}
		accs := map[string]*acc{"bushy": {}, "left": {}, "greedy": {}, "geqo": {}}
		for rep := 0; rep < cfg.Repeats; rep++ {
			q, err := l.Workload.ByRelations(n, cfg.Seed+int64(rep*100+n))
			if err != nil {
				return nil, err
			}
			bushy, err := l.Planner.PlanWith(q, optimizer.DP)
			if err != nil {
				return nil, err
			}
			accs["bushy"].timeMs += float64(bushy.Duration.Microseconds()) / 1000

			record := func(key string, planned optimizer.Planned) {
				accs[key].ratios = append(accs[key].ratios, planned.Cost/bushy.Cost)
				accs[key].timeMs += float64(planned.Duration.Microseconds()) / 1000
			}
			left, err := leftPlanner.PlanWith(q, optimizer.DP)
			if err != nil {
				return nil, err
			}
			record("left", left)
			greedy, err := l.Planner.PlanWith(q, optimizer.Greedy)
			if err != nil {
				return nil, err
			}
			record("greedy", greedy)
			geqo, err := l.Planner.PlanWith(q, optimizer.GEQO)
			if err != nil {
				return nil, err
			}
			record("geqo", geqo)
		}
		reps := float64(cfg.Repeats)
		res.Quality.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", GeoMean(accs["left"].ratios)),
			fmt.Sprintf("%.3f", GeoMean(accs["greedy"].ratios)),
			fmt.Sprintf("%.3f", GeoMean(accs["geqo"].ratios)),
		)
		res.Time.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f", accs["bushy"].timeMs/reps),
			fmt.Sprintf("%.2f", accs["left"].timeMs/reps),
			fmt.Sprintf("%.2f", accs["greedy"].timeMs/reps),
			fmt.Sprintf("%.2f", accs["geqo"].timeMs/reps),
		)
	}
	return res, nil
}

// Render prints both ablation tables.
func (r *AblationEnumeratorResult) Render() string {
	return r.Quality.Render() + "\n" + r.Time.Render()
}
