// Package lfd implements §5.1 of the paper: learning from demonstration.
//
// The agent first watches the traditional optimizer (the expert) plan a
// workload, records every (state, action) pair along the expert's plan
// construction together with the executed plan's latency, and trains a
// reward-prediction network to predict that latency (the paper's step 3).
// It then fine-tunes by planning queries itself — choosing at each state the
// action with the lowest predicted latency (plus ε exploration) — executing
// the finished plans, and training on the observed latencies (step 4).
// If its performance slips past a threshold relative to the expert, it is
// partially re-trained on the expert demonstrations (step 5).
package lfd

import (
	"context"
	"math"
	"math/rand"

	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Config controls the learning-from-demonstration agent.
type Config struct {
	// Env must be configured with ExecuteAlways (or a latency-reading
	// reward) so episodes produce latencies.
	Env *planspace.Env
	// Hidden and LR configure the reward-prediction network, which explores
	// at rl.QAgentConfig's default ε of 0.05.
	Hidden []int
	LR     float64
	// SlipFactor triggers re-training when the agent's moving-average
	// latency ratio versus the expert exceeds it (default 1.5).
	SlipFactor float64
	// SlipWindow is the moving-average window in episodes (default 25).
	SlipWindow int
	// CatastropheFactor defines a catastrophic execution: latency worse than
	// this multiple of the expert's (default 50).
	CatastropheFactor float64
	Seed              int64
}

func (c *Config) fill() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.SlipFactor == 0 {
		c.SlipFactor = 1.5
	}
	if c.SlipWindow == 0 {
		c.SlipWindow = 25
	}
	if c.CatastropheFactor == 0 {
		c.CatastropheFactor = 50
	}
}

// Demo is one expert demonstration: the trajectory through the environment
// and the latency the expert's plan achieved.
type Demo struct {
	Query     *query.Query
	Traj      rl.Trajectory
	LatencyMs float64
}

// Agent is the learning-from-demonstration agent.
type Agent struct {
	Cfg Config
	Q   *rl.QAgent

	expertBuf *rl.ReplayBuffer
	ownBuf    *rl.ReplayBuffer
	demos     []Demo
	expertLat map[string]float64 // query key → expert latency
	rng       *rand.Rand

	// Target normalization (frozen after CollectDemonstrations): regression
	// learns standardized log-latencies so that the network's zero-init
	// outputs start near the demonstrated mean rather than far below it.
	normMean, normStd float64

	// Counters for the §5.1 evaluation.
	Retrains               int
	CatastrophicExecutions int
	recent                 []float64
}

// New builds the agent over the environment.
func New(cfg Config) *Agent {
	cfg.fill()
	env := cfg.Env
	q := rl.NewQAgent(env.ObsDim(), env.ActionDim(), rl.QAgentConfig{
		Hidden: cfg.Hidden,
		LR:     cfg.LR,
		Seed:   cfg.Seed,
	})
	return &Agent{
		Cfg:       cfg,
		Q:         q,
		expertBuf: rl.NewReplayBuffer(100_000),
		ownBuf:    rl.NewReplayBuffer(100_000),
		expertLat: map[string]float64{},
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// target converts a latency to the regression target: standardized log
// latency (plan latencies span orders of magnitude).
func (a *Agent) target(latencyMs float64) float64 {
	if latencyMs <= 0 || math.IsNaN(latencyMs) {
		return 0
	}
	std := a.normStd
	if std < 0.1 {
		std = 0.1
	}
	return (math.Log(latencyMs) - a.normMean) / std
}

// CollectDemonstrations runs steps 1–2 of §5.1: each workload query is
// planned by the expert, its plan executed once, and the episode history
// recorded with the observed latency.
func (a *Agent) CollectDemonstrations() error {
	env := a.Cfg.Env
	for _, q := range env.Cfg.Queries {
		planned, err := env.Cfg.Planner.Plan(q)
		if err != nil {
			return err
		}
		traj, out, err := env.Replay(q, planned.Root)
		if err != nil {
			return err
		}
		lat := out.LatencyMs
		if math.IsNaN(lat) {
			// The env was not configured to execute; measure directly.
			lat, _ = env.Cfg.Latency.Execute(q, out.Plan, env.Cfg.LatencyBudgetMs)
		}
		a.demos = append(a.demos, Demo{Query: q, Traj: traj, LatencyMs: lat})
		a.expertLat[q.Key()] = lat
	}
	// Freeze target normalization on the demonstrated latencies, then fill
	// the demonstration buffer.
	var rn rl.RunningNorm
	for _, d := range a.demos {
		rn.Observe(math.Log(d.LatencyMs))
	}
	a.normMean, a.normStd = rn.Mean(), rn.Std()
	for _, d := range a.demos {
		for _, st := range d.Traj.Steps {
			a.expertBuf.Add(rl.Sample{Features: st.Features, Mask: st.Mask, Action: st.Action, Target: a.target(d.LatencyMs)})
		}
	}
	return nil
}

// Pretrain runs step 3: fit the reward-prediction network to the expert
// demonstrations with the DQfD combined loss (regression + large margin).
// Returns the final minibatch loss.
func (a *Agent) Pretrain(batches, batchSize int) float64 {
	var loss float64
	for i := 0; i < batches; i++ {
		loss = a.Q.TrainMargin(a.expertBuf, batchSize, demoMargin, demoMarginWeight)
	}
	return loss
}

// DQfD margin hyperparameters: the demonstrated action must predict at
// least demoMargin (in standardized log-latency units) better than any
// untried competitor.
const (
	demoMargin       = 0.3
	demoMarginWeight = 1.0
)

// retrainBatches is how many expert minibatches a slip re-train (step 5)
// runs.
const retrainBatches = 50

// EpisodeResult reports one fine-tuning episode.
type EpisodeResult struct {
	Query *query.Query
	// LatencyMs is the executed latency of the agent's plan.
	LatencyMs float64
	// ExpertLatencyMs is the expert's latency on the same query.
	ExpertLatencyMs float64
	// Ratio is LatencyMs / ExpertLatencyMs.
	Ratio float64
	// Catastrophic marks an execution ≥ CatastropheFactor × expert.
	Catastrophic bool
	// Retrained marks that this episode triggered a slip re-train.
	Retrained bool
}

// FineTuneEpisode runs step 4 on the next workload query: act greedily on
// predicted latency (with ε exploration), execute the finished plan, and
// train on the observation. Step 5's slip detection may re-train on expert
// samples.
func (a *Agent) FineTuneEpisode() EpisodeResult {
	env := a.Cfg.Env
	traj := env.Episode(a.Q.Act)
	q := env.Current()
	out := env.Last
	lat := out.LatencyMs
	if math.IsNaN(lat) {
		lat, _ = env.Cfg.Latency.Execute(q, out.Plan, env.Cfg.LatencyBudgetMs)
	}
	for _, st := range traj.Steps {
		a.ownBuf.Add(rl.Sample{Features: st.Features, Mask: st.Mask, Action: st.Action, Target: a.target(lat)})
	}
	a.Q.Train(a.ownBuf, 32)
	// Keep a light demonstration signal mixed in (DQfD trains on a mixture
	// of self-generated and demonstration data).
	a.Q.TrainMargin(a.expertBuf, 8, demoMargin, demoMarginWeight)

	expert := a.expertLat[q.Key()]
	res := EpisodeResult{Query: q, LatencyMs: lat, ExpertLatencyMs: expert}
	if expert > 0 {
		res.Ratio = lat / expert
	}
	if expert > 0 && lat >= a.Cfg.CatastropheFactor*expert {
		res.Catastrophic = true
		a.CatastrophicExecutions++
	}

	// Slip detection (step 5).
	a.recent = append(a.recent, res.Ratio)
	if len(a.recent) > a.Cfg.SlipWindow {
		a.recent = a.recent[1:]
	}
	if len(a.recent) == a.Cfg.SlipWindow && mean(a.recent) > a.Cfg.SlipFactor {
		for i := 0; i < retrainBatches; i++ {
			a.Q.TrainMargin(a.expertBuf, 32, demoMargin, demoMarginWeight)
		}
		a.Retrains++
		a.recent = a.recent[:0]
		res.Retrained = true
	}
	return res
}

// GreedyLatency plans q with the learned policy (no exploration) and
// returns the executed latency of the resulting plan.
func (a *Agent) GreedyLatency(q *query.Query) float64 {
	env := a.Cfg.Env
	// A background context never cuts the rollout off: the error is nil.
	out, _ := env.GreedyRollout(context.Background(), q, a.Q.Best)
	lat := out.LatencyMs
	if math.IsNaN(lat) {
		lat, _ = env.Cfg.Latency.Execute(q, out.Plan, env.Cfg.LatencyBudgetMs)
	}
	return lat
}

// ExpertLatency returns the recorded expert latency for a query (0 if the
// query was not demonstrated).
func (a *Agent) ExpertLatency(q *query.Query) float64 { return a.expertLat[q.Key()] }

// Demos returns the collected demonstrations.
func (a *Agent) Demos() []Demo { return a.demos }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
