// Package curriculum implements §5.3 of the paper: incremental learning.
// A schedule is a sequence of training phases, each restricting either the
// pipeline stages the agent controls (Figure 8), the relation counts of the
// training queries (Figure 9), or both (the hybrid of Figure 7). Between
// phases the policy network is carried forward, with output-layer surgery
// when the action space grows.
package curriculum

import (
	"fmt"
	"math/rand"

	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plancache"
	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Phase is one curriculum step.
type Phase struct {
	// Name labels the phase in reports.
	Name string
	// Stages selects the pipeline prefix the agent controls.
	Stages planspace.Stages
	// MaxRelations filters the workload to queries with at most this many
	// relations (0 = no limit).
	MaxRelations int
	// Episodes is the training budget of the phase.
	Episodes int
}

// Schedule is a full curriculum.
type Schedule []Phase

// PipelineSchedule trains the pipeline stages one prefix at a time on the
// full workload (§5.3.1 / Figure 8).
func PipelineSchedule(episodesPerPhase int) Schedule {
	var s Schedule
	for k := 1; k <= planspace.NumStages; k++ {
		s = append(s, Phase{
			Name:     fmt.Sprintf("pipeline-%d", k),
			Stages:   planspace.StagePrefix(k),
			Episodes: episodesPerPhase,
		})
	}
	return s
}

// RelationsSchedule trains the full pipeline on queries of growing relation
// count (§5.3.2 / Figure 9).
func RelationsSchedule(episodesPerPhase int, relationSteps []int) Schedule {
	var s Schedule
	full := planspace.StagePrefix(planspace.NumStages)
	for _, n := range relationSteps {
		s = append(s, Phase{
			Name:         fmt.Sprintf("relations-%d", n),
			Stages:       full,
			MaxRelations: n,
			Episodes:     episodesPerPhase,
		})
	}
	return s
}

// HybridSchedule grows the pipeline and the relation count together, then
// keeps growing relations (§5.3.3).
func HybridSchedule(episodesPerPhase int, maxRelations int) Schedule {
	var s Schedule
	rel := 2
	for k := 1; k <= planspace.NumStages; k++ {
		s = append(s, Phase{
			Name:         fmt.Sprintf("hybrid-s%d-r%d", k, rel),
			Stages:       planspace.StagePrefix(k),
			MaxRelations: rel,
			Episodes:     episodesPerPhase,
		})
		if rel < maxRelations {
			rel++
		}
	}
	for rel < maxRelations {
		rel++
		s = append(s, Phase{
			Name:         fmt.Sprintf("hybrid-s%d-r%d", planspace.NumStages, rel),
			Stages:       planspace.StagePrefix(planspace.NumStages),
			MaxRelations: rel,
			Episodes:     episodesPerPhase,
		})
	}
	return s
}

// FlatSchedule is the §4 naive baseline: the full pipeline and the full
// workload from the first episode.
func FlatSchedule(episodes int) Schedule {
	return Schedule{{
		Name:     "flat-full-space",
		Stages:   planspace.StagePrefix(planspace.NumStages),
		Episodes: episodes,
	}}
}

// TotalEpisodes sums the schedule's training budget.
func (s Schedule) TotalEpisodes() int {
	total := 0
	for _, p := range s {
		total += p.Episodes
	}
	return total
}

// Config assembles a curriculum trainer.
type Config struct {
	Space   *featurize.Space
	Planner *optimizer.Planner
	Latency *engine.LatencyModel
	// Queries is the full workload; phases filter it by relation count.
	Queries []*query.Query
	// Agent configures the policy learner (rebuilt per phase with weights
	// transferred). Episodes run one after another on the one environment.
	Agent rl.ReinforceConfig
	// Cache, when non-nil, memoizes optimizer completions and expert plans
	// across episodes and phases (the plan cache service). Completion
	// entries are pure and survive phase transitions; policy-dependent
	// entries are invalidated whenever the policy is transferred to a new
	// action space or a training snapshot is published.
	Cache *plancache.Cache
	Seed  int64
}

// Trainer runs a schedule.
type Trainer struct {
	Cfg Config

	agent  *rl.Reinforce
	stages planspace.Stages
	env    *planspace.Env
	rng    *rand.Rand
}

// NewTrainer builds a trainer. With a cache configured, the trainer's
// planner consults it too, so the per-query expert plans recomputed by
// every EvalRatio call are served from cache after the first evaluation.
func NewTrainer(cfg Config) *Trainer {
	if cfg.Cache != nil {
		cfg.Planner = cfg.Planner.WithCache(cfg.Cache)
	}
	return &Trainer{Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// PhaseResult reports one finished phase.
type PhaseResult struct {
	Phase Phase
	// QueryCount is the number of workload queries the phase trained on.
	QueryCount int
	// FinalRatio is the mean greedy cost ratio versus the expert on the
	// phase's own workload after training.
	FinalRatio float64
}

// filterQueries applies the phase's relation bound.
func (t *Trainer) filterQueries(p Phase) []*query.Query {
	if p.MaxRelations == 0 {
		return t.Cfg.Queries
	}
	var out []*query.Query
	for _, q := range t.Cfg.Queries {
		if len(q.Relations) <= p.MaxRelations {
			out = append(out, q)
		}
	}
	return out
}

// envFor builds the phase environment.
func (t *Trainer) envFor(p Phase, queries []*query.Query) *planspace.Env {
	return planspace.NewEnv(planspace.Config{
		Space:   t.Cfg.Space,
		Stages:  p.Stages,
		Planner: t.Cfg.Planner,
		Latency: t.Cfg.Latency,
		Queries: queries,
		Reward:  planspace.CostReward,
		Cache:   t.Cfg.Cache,
		Seed:    t.Cfg.Seed,
	})
}

// RunPhase trains one phase, transferring the policy across action-space
// changes, and returns the phase report. onEpisode (optional) observes every
// training episode with the cumulative episode index.
func (t *Trainer) RunPhase(p Phase, episodeBase int, onEpisode func(ep int, out planspace.Outcome)) (PhaseResult, error) {
	queries := t.filterQueries(p)
	if len(queries) == 0 {
		return PhaseResult{}, fmt.Errorf("curriculum: phase %s has no queries (max relations %d)", p.Name, p.MaxRelations)
	}
	env := t.envFor(p, queries)

	if t.agent == nil {
		t.agent = rl.NewReinforce(env.ObsDim(), env.ActionDim(), t.Cfg.Agent)
	} else if t.stages != p.Stages {
		// Carry the policy across the action-space change. The Adam state is
		// keyed per parameter, so the surgically replaced output layer
		// naturally starts with fresh optimizer state. Pending trajectories
		// recorded under the old action space must be dropped.
		t.agent.ResetBatch()
		t.agent.Policy = planspace.TransferPolicy(t.agent.Policy, t.Cfg.Space, t.stages, p.Stages, t.rng)
		// The transferred policy is a new policy: invalidate any plans
		// memoized under the old one.
		t.Cfg.Cache.BumpEpoch()
	}
	t.stages = p.Stages
	t.env = env

	for ep := 0; ep < p.Episodes; ep++ {
		traj := env.Episode(t.agent.Sample)
		t.agent.Observe(traj)
		if onEpisode != nil {
			onEpisode(episodeBase+ep, env.Last)
		}
	}

	ratio, err := t.EvalRatio(queries)
	if err != nil {
		return PhaseResult{}, err
	}
	return PhaseResult{Phase: p, QueryCount: len(queries), FinalRatio: ratio}, nil
}

// Run trains the whole schedule and returns per-phase reports; on an error
// it returns the phases completed so far with it.
func (t *Trainer) Run(s Schedule, onEpisode func(ep int, out planspace.Outcome)) ([]PhaseResult, error) {
	var out []PhaseResult
	base := 0
	for _, p := range s {
		res, err := t.RunPhase(p, base, onEpisode)
		if err != nil {
			return out, err
		}
		out = append(out, res)
		base += p.Episodes
	}
	return out, nil
}

// EvalRatio evaluates the greedy policy against the traditional optimizer
// on a query set: the geometric mean of per-query cost ratios (robust to a
// single query blowing up).
func (t *Trainer) EvalRatio(queries []*query.Query) (float64, error) {
	if t.agent == nil || t.env == nil {
		return 0, fmt.Errorf("curriculum: no trained agent")
	}
	expert := make(map[string]float64, len(queries))
	for _, q := range queries {
		planned, err := t.Cfg.Planner.Plan(q)
		if err != nil {
			return 0, err
		}
		expert[q.Key()] = planned.Cost
	}
	return t.env.CostRatio(queries, expert, t.agent.Greedy), nil
}

// Agent exposes the current policy learner (nil before the first phase).
func (t *Trainer) Agent() *rl.Reinforce { return t.agent }
