// Package bootstrap implements §5.2 of the paper: cost-model bootstrapping.
//
// A policy-gradient agent first trains with the traditional optimizer's
// cost model as its reward ("training wheels", Phase 1) — exploration is
// safe because bad plans are merely costed, never executed. Once Phase 1
// has converged, the reward switches to observed execution latency
// (Phase 2). The paper predicts that switching the raw reward range
// destabilizes the policy, and proposes rescaling latencies into the cost
// range observed at the end of Phase 1:
//
//	r_l = Cmin + (l − Lmin)/(Lmax − Lmin) · (Cmax − Cmin)
//
// Three Scalings are provided — the raw switch, the rescaled switch, and the
// paper's transfer-learning alternative — so the experiment can measure the
// difference. The learner is deliberately range-sensitive; the package
// serves that experiment only. The service lifecycle trains a scale-free
// learner on the two rewards directly and needs none of this machinery.
package bootstrap

import (
	"math"
	"math/rand"

	"handsfree/internal/planspace"
	"handsfree/internal/rl"
)

// Scaling selects how Phase-2 latencies become rewards.
type Scaling int

const (
	// ScaleNone switches the reward to raw −latency (the destabilizing
	// variant the paper warns about).
	ScaleNone Scaling = iota
	// ScaleLinear applies the paper's linear latency→cost-range mapping.
	ScaleLinear
	// ScaleTransfer is the paper's closing §5.2 alternative ("transfer
	// learning"): at the switch, the hidden layers are kept, the output
	// layer is re-initialized, and Phase 2 trains on −log(latency) with a
	// scale-free (batch-standardized) learner. The reward-range jump is
	// absorbed by the fresh head instead of being rescaled away.
	ScaleTransfer
)

// Config controls a bootstrapping run.
type Config struct {
	Env *planspace.Env
	// Agent is the policy-gradient learner configuration.
	Agent rl.ReinforceConfig
	// Scaling selects the Phase-2 reward mapping.
	Scaling Scaling
	// CalibrationWindow is how many trailing Phase-1 episodes contribute to
	// the observed cost range (default 200).
	CalibrationWindow int
}

// Agent is the cost-model-bootstrapped learner.
type Agent struct {
	Cfg Config
	RL  *rl.Reinforce

	// The reward closure's calibration state. Episodes run one at a time
	// (TrainEpisode), and planspace.TrainAsyncCtx would call the closure on
	// its learner goroutine only, so it needs no lock.
	phase2      bool
	costRange   rl.Range
	latRange    rl.Range
	recentCosts []float64

	// Phase2Episodes counts episodes run since the switch.
	Phase2Episodes int
}

// New builds the agent. The environment should start with a cost reward;
// the agent installs its own reward closure.
func New(cfg Config) *Agent {
	if cfg.CalibrationWindow == 0 {
		cfg.CalibrationWindow = 200
	}
	env := cfg.Env
	// Range-sensitive learner: the §5.2 phenomenon under study is the
	// reward-range discontinuity. A per-batch standardizer would hide it in
	// the advantages, and Adam's per-weight normalization would hide it in
	// the updates, so the bootstrapping agent uses an EMA baseline with
	// plain gradient ascent (vanilla REINFORCE, as in §2 of the paper).
	cfg.Agent.Baseline = rl.BaselineRunningEMA
	cfg.Agent.UseSGD = true
	if cfg.Agent.Clip == 0 {
		cfg.Agent.Clip = -1 // unclipped: §5.2's hazard is the raw magnitude
	}
	if cfg.Agent.LR == 0 {
		cfg.Agent.LR = 3e-2
	}
	a := &Agent{Cfg: cfg, RL: rl.NewReinforce(env.ObsDim(), env.ActionDim(), cfg.Agent)}
	env.Cfg.Reward = a.reward
	env.Cfg.RewardNeedsLatency = false
	return a
}

// reward is the phase-dependent reward closure installed into the env.
// Phase 1: −log(cost), with the trailing cost range recorded for
// calibration. Phase 2: −(latency mapped per the configured scaling).
func (a *Agent) reward(o planspace.Outcome) float64 {
	if !a.phase2 {
		if math.IsInf(o.Cost, 1) || o.Cost <= 0 {
			return -1e6
		}
		r := -math.Log(o.Cost)
		// Track the trailing window of log-costs; the calibration range is
		// taken from "the end of Phase 1", as the paper specifies.
		a.recentCosts = append(a.recentCosts, -r)
		if len(a.recentCosts) > a.Cfg.CalibrationWindow {
			a.recentCosts = a.recentCosts[1:]
		}
		return r
	}
	lat := o.LatencyMs
	if lat <= 0 || math.IsNaN(lat) {
		return -1e6
	}
	a.latRange.Observe(lat)
	switch a.Cfg.Scaling {
	case ScaleTransfer:
		// Scale-free learner: the raw magnitude is irrelevant.
		return -math.Log(lat)
	case ScaleLinear:
		if a.latRange.Count() < 2 || a.costRange.Count() < 2 {
			// Before the latency range is known, anchor at the cost range's
			// midpoint to avoid a startup spike.
			return -(a.costRange.Min() + a.costRange.Max()) / 2
		}
		return -a.latRange.Rescale(lat, &a.costRange)
	default:
		return -math.Log(lat) * latencyRawScale
	}
}

// latencyRawScale exaggerates nothing: it converts −log(latency) into a
// range far from Phase 1's −log(cost) range (latencies are in milliseconds,
// costs in planner units ≈ 100–1000× larger), reproducing the paper's
// example of the reward range jumping at the switch.
const latencyRawScale = 60

// TrainEpisode runs one sampled episode under the current phase's reward.
func (a *Agent) TrainEpisode() planspace.Outcome {
	env := a.Cfg.Env
	a.RL.Observe(env.Episode(a.RL.Sample))
	if a.phase2 {
		a.Phase2Episodes++
	}
	return env.Last
}

// SwitchToLatency flips the reward source to execution latency (Phase 2).
// The environment starts executing every episode from here on, and the
// calibration range is frozen from the trailing Phase-1 window. Under
// ScaleTransfer the policy's output layer is re-initialized and the learner
// is rebuilt scale-free (Adam + batch standardization) over the preserved
// hidden layers.
func (a *Agent) SwitchToLatency() {
	a.phase2 = true
	a.costRange = rl.Range{}
	for _, c := range a.recentCosts {
		a.costRange.Observe(c)
	}
	a.Cfg.Env.Cfg.RewardNeedsLatency = true
	if a.Cfg.Scaling == ScaleTransfer {
		old := a.RL.Policy
		cfg := a.Cfg.Agent
		cfg.UseSGD = false
		cfg.Baseline = rl.BaselineBatchStd
		cfg.Clip = 5
		cfg.LR = 1.5e-3
		env := a.Cfg.Env
		fresh := rl.NewReinforce(env.ObsDim(), env.ActionDim(), cfg)
		fresh.Policy = old.Clone()
		fresh.Policy.ReinitOutput(rand.New(rand.NewSource(cfg.Seed + 99)))
		a.RL = fresh
	}
}

// CostRange exposes the Phase-1 calibration range (log-cost units).
func (a *Agent) CostRange() *rl.Range { return &a.costRange }
