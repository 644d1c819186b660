package rl

import (
	"fmt"
	"math"
	"math/rand"

	"handsfree/internal/nn"
)

// BaselineKind selects how episode returns become advantages.
type BaselineKind int

const (
	// BaselineBatchStd standardizes returns within each update batch
	// (scale-free; the default).
	BaselineBatchStd BaselineKind = iota
	// BaselineRunningEMA subtracts an exponential moving average of returns
	// WITHOUT rescaling. This mode is deliberately sensitive to the range of
	// the reward signal: it is how the §5.2 bootstrapping experiment exposes
	// the instability caused by switching from cost-range rewards to
	// latency-range rewards.
	BaselineRunningEMA
)

// ReinforceConfig controls a Reinforce agent.
type ReinforceConfig struct {
	Hidden      []int   // hidden layer widths (default 128, 64)
	LR          float64 // learning rate (default 1e-3)
	EntropyCoef float64 // entropy bonus weight (default 0.01)
	BatchSize   int     // episodes per policy update (default 16)
	Clip        float64 // gradient clip norm (default 5; negative disables)
	Baseline    BaselineKind
	// UseSGD selects plain stochastic gradient ascent instead of Adam.
	// Vanilla REINFORCE (Williams '92, the method §2 of the paper describes)
	// is plain gradient ascent and therefore sensitive to the reward scale —
	// the property the §5.2 bootstrapping experiment studies. Adam's
	// per-weight normalization would silently mask reward-range jumps.
	UseSGD bool
	// EntropyDecay anneals the entropy bonus multiplicatively per policy
	// update (1 = no annealing), down to a floor of EntropyCoef/50. Long
	// training runs use ≈0.995 so late-stage exploration fades and sampled
	// performance approaches greedy.
	EntropyDecay float64
	Seed         int64
}

// emaAlpha is BaselineRunningEMA's smoothing factor.
const emaAlpha = 0.05

func (c *ReinforceConfig) fill() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Clip == 0 {
		c.Clip = 5
	}
	if c.EntropyDecay == 0 {
		c.EntropyDecay = 1
	}
}

// Reinforce is a policy-gradient agent (REINFORCE with a batch baseline and
// entropy regularization). The policy is an MLP producing one logit per
// action; invalid actions are masked out before the softmax, exactly as the
// paper describes for ReJOIN's action layer.
type Reinforce struct {
	Policy *nn.Network
	Opt    nn.Optimizer
	Cfg    ReinforceConfig

	rng     *rand.Rand
	batch   []Trajectory
	ema     float64
	emaOK   bool
	entCoef float64

	// update() scratch, reused across policy updates so steady-state
	// training does not allocate.
	xbuf    nn.Mat
	gradbuf nn.Mat
	probbuf nn.Mat
	masks   [][]bool
	actions []int
	advs    []float64
	// Updates counts completed policy updates.
	Updates int
}

// NewReinforce builds an agent for an environment with the given observation
// and action dimensions.
func NewReinforce(obsDim, actionDim int, cfg ReinforceConfig) *Reinforce {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := append(append([]int{obsDim}, cfg.Hidden...), actionDim)
	var opt nn.Optimizer
	if cfg.UseSGD {
		opt = &nn.SGD{LR: cfg.LR, Clip: cfg.Clip}
	} else {
		adam := nn.NewAdam(cfg.LR)
		adam.Clip = cfg.Clip
		opt = adam
	}
	net := nn.NewMLP(rng, sizes...)
	return &Reinforce{
		Policy:  net,
		Opt:     opt,
		Cfg:     cfg,
		rng:     rng,
		entCoef: cfg.EntropyCoef,
	}
}

// Probs returns the masked action distribution at a state.
func (a *Reinforce) Probs(s State) []float64 {
	logits := a.Policy.Forward(nn.FromVec(s.Features))
	return nn.MaskedSoftmax(logits.Data, s.Mask)
}

// ProbsBatch returns the masked action distribution for a whole batch of
// states in one network pass: row i is Probs(states[i]).
func (a *Reinforce) ProbsBatch(states []State) *nn.Mat {
	x := nn.NewMat(len(states), a.Policy.InDim())
	masks := make([][]bool, len(states))
	for i, s := range states {
		if len(s.Features) != x.Cols {
			panic("rl: ProbsBatch state dimension does not match policy input")
		}
		copy(x.Row(i), s.Features)
		masks[i] = s.Mask
	}
	return nn.MaskedSoftmaxRows(a.Policy.Forward(x), masks)
}

// Sample draws an action from the current policy (exploration included).
func (a *Reinforce) Sample(s State) int {
	return sampleFrom(a.Probs(s), a.rng)
}

// Greedy returns the mode of the policy distribution (pure exploitation).
func (a *Reinforce) Greedy(s State) int {
	probs := a.Probs(s)
	best, bestP := -1, -1.0
	for i, p := range probs {
		if s.Mask[i] && p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// MarshalPolicy serializes the policy network (weights and structure). The
// optimizer state and pending batch are not saved: a restored agent resumes
// with fresh optimizer statistics, which matches common checkpointing
// practice for small policy networks.
func (a *Reinforce) MarshalPolicy() ([]byte, error) {
	return a.Policy.MarshalBinary()
}

// UnmarshalPolicy restores a policy saved with MarshalPolicy, by this or any
// earlier version (old float64 gob files load with each weight rounded). The
// network dimensions must match the agent's environment.
func (a *Reinforce) UnmarshalPolicy(data []byte) error {
	net := &nn.Network{}
	if err := net.UnmarshalBinary(data); err != nil {
		return err
	}
	if net.InDim() != a.Policy.InDim() || net.OutDim() != a.Policy.OutDim() {
		return fmt.Errorf("rl: checkpoint dims %dx%d do not match agent %dx%d",
			net.InDim(), net.OutDim(), a.Policy.InDim(), a.Policy.OutDim())
	}
	a.Policy = net
	a.ResetBatch()
	return nil
}

// ResetBatch discards any episodes accumulated toward the next update. Call
// it when the policy network's action space is about to change (curriculum
// phase transitions): pending trajectories recorded under the old action
// space cannot be replayed through the resized network.
func (a *Reinforce) ResetBatch() {
	a.batch = a.batch[:0]
}

// Pending reports how many episodes have accumulated toward the next update.
func (a *Reinforce) Pending() int { return len(a.batch) }

// Observe records a finished episode; once a full batch has accumulated, the
// policy is updated and Observe reports true.
func (a *Reinforce) Observe(traj Trajectory) bool {
	a.batch = append(a.batch, traj)
	if len(a.batch) < a.Cfg.BatchSize {
		return false
	}
	a.update()
	a.batch = a.batch[:0]
	return true
}

// update applies one REINFORCE step over the accumulated batch. Advantages
// are the episode returns standardized across the batch (the baseline), which
// keeps the update scale-free — important because raw rewards in query
// optimization span many orders of magnitude.
//
// Every step of every trajectory is stacked into one T×obsDim matrix: a
// single batched forward produces all logits, the masked per-row policy
// gradients are assembled into one T×actionDim matrix, and a single batched
// backward accumulates the parameter gradients. Because forward rows are
// independent and the batched backward accumulates rows in the same order
// the per-step loop did, the update is numerically identical to the
// per-sample path — just one network pass instead of T.
func (a *Reinforce) update() {
	n := len(a.batch)
	if n == 0 {
		return
	}
	mean := 0.0
	for _, t := range a.batch {
		mean += t.Return
	}
	mean /= float64(n)
	variance := 0.0
	for _, t := range a.batch {
		d := t.Return - mean
		variance += d * d
	}
	std := math.Sqrt(variance/float64(n)) + 1e-8

	baseline := mean
	if a.Cfg.Baseline == BaselineRunningEMA {
		if !a.emaOK {
			a.ema = mean
			a.emaOK = true
		}
		baseline = a.ema
		a.ema += emaAlpha * (mean - a.ema)
	}

	steps := 0
	for _, t := range a.batch {
		steps += len(t.Steps)
	}
	x := &a.xbuf
	x.Resize(steps, a.Policy.InDim())
	masks := resizeSlice(&a.masks, steps)
	actions := resizeSlice(&a.actions, steps)
	advs := resizeSlice(&a.advs, steps)
	r := 0
	for _, t := range a.batch {
		var adv float64
		if a.Cfg.Baseline == BaselineRunningEMA {
			adv = t.Return - baseline // no rescaling: range-sensitive
		} else {
			adv = (t.Return - mean) / std
		}
		for _, st := range t.Steps {
			copy(x.Row(r), st.Features)
			masks[r] = st.Mask
			actions[r] = st.Action
			advs[r] = adv
			r++
		}
	}

	logits := a.Policy.Forward(x)
	probs := &a.probbuf
	grad := &a.gradbuf
	// The REINFORCE interchange math is float64 (logits arrive converted).
	nn.SoftmaxXent(logits, masks, actions, advs, a.entCoef, probs, grad)
	a.Policy.ZeroGrad()
	a.Policy.Backward(grad)
	// Scale by batch size so the step magnitude is independent of B.
	a.Policy.DivideGrads(float64(n))
	a.Opt.StepNet(a.Policy)
	a.Updates++
	if a.Cfg.EntropyDecay < 1 {
		a.entCoef *= a.Cfg.EntropyDecay
		if floor := a.Cfg.EntropyCoef / 50; a.entCoef < floor {
			a.entCoef = floor
		}
	}
}

// resizeSlice grows *s to length n in place, reusing the existing backing
// array when it is large enough, and returns the resized slice. Every element
// is overwritten by the caller, so stale contents are fine.
func resizeSlice[E any](s *[]E, n int) []E {
	if cap(*s) < n {
		*s = make([]E, n)
	}
	*s = (*s)[:n]
	return *s
}

// sampleFrom draws an index from a (possibly unnormalized-by-epsilon)
// probability vector. Falls back to the argmax on numeric trouble.
func sampleFrom(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var c float64
	last := -1
	for i, p := range probs {
		if p <= 0 {
			continue
		}
		last = i
		c += p
		if u < c {
			return i
		}
	}
	return last
}
