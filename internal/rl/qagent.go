package rl

import (
	"math"
	"math/rand"
	"sync/atomic"

	"handsfree/internal/nn"
)

// Sample is one supervised example for reward prediction: in state Features,
// taking action Action eventually produced an episode with value Target
// (for query optimization: the final plan's latency, lower is better).
// Mask records which actions were valid in the state; the margin loss uses
// it to keep unobserved actions from looking spuriously attractive.
type Sample struct {
	Features []float64
	Mask     []bool
	Action   int
	Target   float64
}

// ReplayBuffer is a fixed-capacity ring buffer of reward-prediction samples.
type ReplayBuffer struct {
	cap  int
	data []Sample
	next int
	full bool
}

// NewReplayBuffer returns a buffer holding at most capacity samples. It
// starts empty and grows with what is added: capacity bounds the ring, it
// reserves nothing (a lifecycle's two 100 000-sample buffers hold six
// demonstrations' worth).
func NewReplayBuffer(capacity int) *ReplayBuffer {
	return &ReplayBuffer{cap: capacity}
}

// Add inserts a sample, evicting the oldest once at capacity.
func (b *ReplayBuffer) Add(s Sample) {
	if len(b.data) < b.cap {
		b.data = append(b.data, s)
		return
	}
	b.full = true
	b.data[b.next] = s
	b.next = (b.next + 1) % b.cap
}

// Len reports how many samples are stored.
func (b *ReplayBuffer) Len() int { return len(b.data) }

// Sample returns n samples drawn uniformly with replacement.
func (b *ReplayBuffer) Sample(n int, rng *rand.Rand) []Sample {
	return b.SampleInto(make([]Sample, 0, n), n, rng)
}

// SampleInto draws n samples uniformly with replacement, appending them to
// dst (typically dst[:0] of a reused scratch slice) so steady-state training
// fills minibatches without materializing per-sample copies.
func (b *ReplayBuffer) SampleInto(dst []Sample, n int, rng *rand.Rand) []Sample {
	for i := 0; i < n && len(b.data) > 0; i++ {
		dst = append(dst, b.data[rng.Intn(len(b.data))])
	}
	return dst
}

// QAgentConfig controls a QAgent.
type QAgentConfig struct {
	Hidden  []int   // hidden layer widths (default 128, 64)
	LR      float64 // Adam learning rate (default 1e-3)
	Epsilon float64 // exploration probability during acting (default 0.05)
	Clip    float64 // gradient clip norm (default 5)
	Seed    int64
}

func (c *QAgentConfig) fill() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.05
	}
	if c.Clip == 0 {
		c.Clip = 5
	}
}

// QAgent learns a reward-prediction function Q(s, ·): an MLP mapping a state
// to one predicted episode outcome per action. This is the "reward prediction
// function" of Section 5.1 (learning from demonstration): the agent is taught
// to predict that taking action a in state s eventually results in latency L,
// then acts by choosing the action with the lowest predicted latency.
//
// Targets are learned in log space: catastrophic plans are orders of
// magnitude slower than good ones, and a raw-latency regression would be
// dominated by them.
type QAgent struct {
	Net *nn.Network
	Opt *nn.Adam
	Cfg QAgentConfig

	rng     *rand.Rand
	scratch []Sample // reused minibatch backing for Train/TrainMargin
	xbuf    nn.Mat   // reused minibatch input matrix
	gradbuf nn.Mat   // reused output-gradient matrix

	// bestFallbacks counts Best() calls where every valid prediction was
	// NaN or +Inf and the first valid action was returned instead of the
	// argmin. A nonzero count flags a broken or diverged network — the
	// kind of silent anomaly that would otherwise only surface as bad
	// plans (or poisoned cache entries) downstream. Atomic because frozen
	// agents may serve concurrent collection workers.
	bestFallbacks atomic.Int64
}

// NewQAgent builds a reward-prediction agent for the given dimensions.
func NewQAgent(obsDim, actionDim int, cfg QAgentConfig) *QAgent {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := append(append([]int{obsDim}, cfg.Hidden...), actionDim)
	opt := nn.NewAdam(cfg.LR)
	opt.Clip = cfg.Clip
	net := nn.NewMLP(rng, sizes...)
	return &QAgent{Net: net, Opt: opt, Cfg: cfg, rng: rng}
}

// Predict returns the predicted log-latency for every action at a state.
func (q *QAgent) Predict(s State) []float64 {
	return q.Net.Forward(nn.FromVec(s.Features)).Data
}

// PredictBatch evaluates the network once for a whole batch of states,
// returning a len(states)×ActionDim matrix whose row i is Predict(states[i]).
// One batched forward replaces len(states) 1×d passes; the per-row numbers
// are identical to the per-state path. The result lives in the network's
// reusable forward buffer: it is valid until the agent's next
// predict/train call, and callers that retain it longer must Clone it.
func (q *QAgent) PredictBatch(states []State) *nn.Mat {
	x := nn.NewMat(len(states), q.Net.InDim())
	for i, s := range states {
		if len(s.Features) != x.Cols {
			panic("rl: PredictBatch state dimension does not match network input")
		}
		copy(x.Row(i), s.Features)
	}
	return q.Net.Forward(x)
}

// Act picks the valid action with the lowest predicted outcome; with
// probability ε it instead explores uniformly over valid actions.
func (q *QAgent) Act(s State) int {
	if q.rng.Float64() < q.Cfg.Epsilon {
		return randomValid(s.Mask, q.rng)
	}
	return q.Best(s)
}

// Best returns the valid action with the minimum predicted outcome. If every
// valid prediction is +Inf or NaN (a freshly broken or diverged network),
// it falls back to the first valid action rather than reporting no action,
// so callers always receive a usable choice while any valid action exists.
// Each such fallback is counted (see BestFallbacks) so training anomalies
// are observable instead of silent. Only an all-false mask returns -1.
func (q *QAgent) Best(s State) int {
	pred := q.Predict(s)
	best, bestV := -1, math.Inf(1)
	firstValid := -1
	for i, ok := range s.Mask {
		if !ok {
			continue
		}
		if firstValid < 0 {
			firstValid = i
		}
		if pred[i] < bestV {
			best, bestV = i, pred[i]
		}
	}
	if best < 0 {
		if firstValid >= 0 {
			q.bestFallbacks.Add(1)
		}
		return firstValid
	}
	return best
}

// BestFallbacks reports how many times Best has fallen back to the first
// valid action because every valid prediction was NaN or +Inf. A healthy
// agent keeps this at zero; monitor it alongside the plan cache stats when
// diagnosing training anomalies.
func (q *QAgent) BestFallbacks() int64 { return q.bestFallbacks.Load() }

// assembleBatch copies the sampled features into the agent's reused
// batchSize×obsDim scratch matrix so the whole minibatch runs through a
// single forward pass without allocating.
func (q *QAgent) assembleBatch(batch []Sample) *nn.Mat {
	x := &q.xbuf
	x.Resize(len(batch), q.Net.InDim())
	for i, s := range batch {
		if len(s.Features) != x.Cols {
			panic("rl: sample dimension does not match network input")
		}
		copy(x.Row(i), s.Features)
	}
	return x
}

// Train runs one minibatch regression step on samples drawn from the buffer,
// fitting Q(s, a) toward each sample's target. The whole minibatch is one
// batched forward/backward pass with a masked per-row gradient (only the
// taken action of each row receives gradient); the accumulated parameter
// gradients are identical to running the samples one at a time. Returns the
// mean Huber loss.
func (q *QAgent) Train(buf *ReplayBuffer, batchSize int) float64 {
	if buf.Len() == 0 {
		return 0
	}
	q.scratch = buf.SampleInto(q.scratch[:0], batchSize, q.rng)
	batch := q.scratch
	out := q.Net.Forward(q.assembleBatch(batch))
	grad := &q.gradbuf
	grad.Resize(out.Rows, out.Cols)
	grad.Zero()
	var total float64
	for i, s := range batch {
		pred := out.Row(i)
		d := pred[s.Action] - s.Target
		// Huber on the single taken action; other actions get no gradient.
		const delta = 1.0
		if math.Abs(d) <= delta {
			total += 0.5 * d * d
			grad.Set(i, s.Action, d)
		} else {
			total += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad.Set(i, s.Action, delta)
			} else {
				grad.Set(i, s.Action, -delta)
			}
		}
	}
	q.Net.ZeroGrad()
	q.Net.Backward(grad)
	q.Net.DivideGrads(float64(len(batch)))
	q.Opt.StepNet(q.Net)
	return total / float64(len(batch))
}

// TrainMargin runs one minibatch step of the DQfD-style demonstration loss
// (Hester et al., the paper's reference [11]): Huber regression on the
// demonstrated action's outcome PLUS a large-margin term that forces the
// demonstrated action's prediction to be at least `margin` lower (better)
// than every other valid action's. Without the margin term, actions the
// expert never takes keep their random initial predictions and the argmin
// policy is drawn to exactly the plans no one has ever measured — the §5.1
// "no training data to ground them" problem. Like Train, the minibatch runs
// as one batched forward/backward pass.
func (q *QAgent) TrainMargin(buf *ReplayBuffer, batchSize int, margin, marginWeight float64) float64 {
	if buf.Len() == 0 {
		return 0
	}
	q.scratch = buf.SampleInto(q.scratch[:0], batchSize, q.rng)
	batch := q.scratch
	out := q.Net.Forward(q.assembleBatch(batch))
	grad := &q.gradbuf
	grad.Resize(out.Rows, out.Cols)
	grad.Zero()
	var total float64
	for i, s := range batch {
		pred := out.Row(i)
		grow := grad.Row(i)

		// Regression on the demonstrated action.
		d := pred[s.Action] - s.Target
		const delta = 1.0
		if math.Abs(d) <= delta {
			total += 0.5 * d * d
			grow[s.Action] = d
		} else {
			total += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grow[s.Action] = delta
			} else {
				grow[s.Action] = -delta
			}
		}

		// Large-margin term over the valid competitors.
		if len(s.Mask) == len(pred) {
			comp, compV := -1, math.Inf(1)
			for j, ok := range s.Mask {
				if !ok || j == s.Action {
					continue
				}
				if pred[j] < compV {
					comp, compV = j, pred[j]
				}
			}
			if comp >= 0 {
				violation := pred[s.Action] - (compV - margin)
				if violation > 0 {
					total += marginWeight * violation
					grow[s.Action] += marginWeight
					grow[comp] -= marginWeight
				}
			}
		}
	}
	q.Net.ZeroGrad()
	q.Net.Backward(grad)
	q.Net.DivideGrads(float64(len(batch)))
	q.Opt.StepNet(q.Net)
	return total / float64(len(batch))
}

// randomValid returns a uniformly random valid action index, or -1 if none.
func randomValid(mask []bool, rng *rand.Rand) int {
	n := 0
	for _, ok := range mask {
		if ok {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := rng.Intn(n)
	for i, ok := range mask {
		if !ok {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return -1
}

// RandomPolicy returns an action chooser that picks uniformly among valid
// actions — the paper's "random choice" baseline for the naive-DRL result.
func RandomPolicy(seed int64) func(State) int {
	rng := rand.New(rand.NewSource(seed))
	return func(s State) int { return randomValid(s.Mask, rng) }
}
