package rl

import (
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/nn"
)

// fillBuffer adds n random reward-prediction samples over obsDim/actions.
func fillBuffer(buf *ReplayBuffer, n, obsDim, actions int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		f := make([]float64, obsDim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		mask := make([]bool, actions)
		valid := 0
		for j := range mask {
			mask[j] = rng.Intn(3) > 0
			if mask[j] {
				valid++
			}
		}
		a := rng.Intn(actions)
		mask[a] = true
		buf.Add(Sample{Features: f, Mask: mask, Action: a, Target: rng.NormFloat64() * 2})
	}
}

// trainPerSampleReference replicates the pre-batching QAgent.Train loop:
// one 1×d forward/backward per sample. It must consume the agent's RNG
// exactly like Train does so both paths see the same minibatch.
func trainPerSampleReference(q *QAgent, buf *ReplayBuffer, batchSize int) float64 {
	batch := buf.Sample(batchSize, q.rng)
	q.Net.ZeroGrad()
	var total float64
	for _, s := range batch {
		pred := q.Net.Forward(nn.FromVec(s.Features)).Data
		grad := make([]float64, len(pred))
		d := pred[s.Action] - s.Target
		const delta = 1.0
		if math.Abs(d) <= delta {
			total += 0.5 * d * d
			grad[s.Action] = d
		} else {
			total += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad[s.Action] = delta
			} else {
				grad[s.Action] = -delta
			}
		}
		q.Net.Backward(&nn.Mat{Rows: 1, Cols: len(grad), Data: grad})
	}
	q.Net.DivideGrads(float64(len(batch)))
	q.Opt.StepNet(q.Net)
	return total / float64(len(batch))
}

// trainMarginPerSampleReference replicates the pre-batching TrainMargin loop.
func trainMarginPerSampleReference(q *QAgent, buf *ReplayBuffer, batchSize int, margin, marginWeight float64) float64 {
	batch := buf.Sample(batchSize, q.rng)
	q.Net.ZeroGrad()
	var total float64
	for _, s := range batch {
		pred := q.Net.Forward(nn.FromVec(s.Features)).Data
		grad := make([]float64, len(pred))
		d := pred[s.Action] - s.Target
		const delta = 1.0
		if math.Abs(d) <= delta {
			total += 0.5 * d * d
			grad[s.Action] = d
		} else {
			total += delta * (math.Abs(d) - 0.5*delta)
			if d > 0 {
				grad[s.Action] = delta
			} else {
				grad[s.Action] = -delta
			}
		}
		if len(s.Mask) == len(pred) {
			comp, compV := -1, math.Inf(1)
			for i, ok := range s.Mask {
				if !ok || i == s.Action {
					continue
				}
				if pred[i] < compV {
					comp, compV = i, pred[i]
				}
			}
			if comp >= 0 {
				violation := pred[s.Action] - (compV - margin)
				if violation > 0 {
					total += marginWeight * violation
					grad[s.Action] += marginWeight
					grad[comp] -= marginWeight
				}
			}
		}
		q.Net.Backward(&nn.Mat{Rows: 1, Cols: len(grad), Data: grad})
	}
	q.Net.DivideGrads(float64(len(batch)))
	q.Opt.StepNet(q.Net)
	return total / float64(len(batch))
}

// batchParityTol bounds the batched-vs-per-sample comparisons below, as a
// relDiff. The two sides share weights, optimizer and minibatch and differ
// only in summation order: the batched kernels add a column's products in
// tile order, the per-sample reference adds one sample's contribution at a
// time. In float32 that is a last-bits difference per step, not zero; the
// kernels' own rounding bounds are nn's parity suite's business, this bound
// only has to catch a batching bug (a dropped, doubled or misrouted sample
// moves a weight by orders of magnitude more).
const batchParityTol = 1e-5

// maxParamDiff is the largest relDiff between two networks' parameters.
func maxParamDiff(a, b *nn.Network) float64 {
	av, bv := a.FlattenParams(), b.FlattenParams()
	var worst float64
	for i := range av {
		if d := relDiff(av[i], bv[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBatchedTrainMatchesPerSample trains two identically seeded agents on
// the same buffer — one with the batched Train, one with the per-sample
// reference — and requires their losses and parameters to agree within
// batchParityTol after several minibatches.
func TestBatchedTrainMatchesPerSample(t *testing.T) {
	const obsDim, actions = 24, 10
	cases := []struct {
		name string
		step func(q *QAgent, buf *ReplayBuffer) float64
		ref  func(q *QAgent, buf *ReplayBuffer) float64
	}{
		{
			name: "huber",
			step: func(q *QAgent, buf *ReplayBuffer) float64 { return q.Train(buf, 32) },
			ref:  func(q *QAgent, buf *ReplayBuffer) float64 { return trainPerSampleReference(q, buf, 32) },
		},
		{
			name: "margin",
			step: func(q *QAgent, buf *ReplayBuffer) float64 { return q.TrainMargin(buf, 32, 0.3, 1.0) },
			ref: func(q *QAgent, buf *ReplayBuffer) float64 {
				return trainMarginPerSampleReference(q, buf, 32, 0.3, 1.0)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := NewReplayBuffer(4096)
			fillBuffer(buf, 512, obsDim, actions, rand.New(rand.NewSource(1)))
			batched := NewQAgent(obsDim, actions, QAgentConfig{Hidden: []int{32, 16}, Seed: 9})
			reference := NewQAgent(obsDim, actions, QAgentConfig{Hidden: []int{32, 16}, Seed: 9})
			var worstLoss float64
			for step := 0; step < 20; step++ {
				lb := tc.step(batched, buf)
				lr := tc.ref(reference, buf)
				d := relDiff(lb, lr)
				if d > batchParityTol {
					t.Fatalf("step %d: batched loss %v vs per-sample loss %v", step, lb, lr)
				}
				worstLoss = math.Max(worstLoss, d)
			}
			d := maxParamDiff(batched.Net, reference.Net)
			t.Logf("largest difference: loss %.3g, parameters %.3g (bound %g)", worstLoss, d, batchParityTol)
			if d > batchParityTol {
				t.Fatalf("parameters diverged by %v after 20 steps, want ≤ %g", d, batchParityTol)
			}
		})
	}
}

// TestPredictBatchMatchesPredict checks row-for-row agreement between the
// batched and single-state inference paths.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const obsDim, actions = 17, 6
	// The batched product runs the tiled kernels and the single-row one the
	// reference row kernel, so rows agree to batchParityTol, not bitwise.
	agent := NewQAgent(obsDim, actions, QAgentConfig{Hidden: []int{20}, Seed: 2})
	rng := rand.New(rand.NewSource(3))
	states := make([]State, 13)
	for i := range states {
		f := make([]float64, obsDim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		states[i] = State{Features: f}
	}
	// Clone: PredictBatch returns the network's reusable forward buffer,
	// and the per-state Predict calls below overwrite it.
	batch := agent.PredictBatch(states).Clone()
	var worst float64
	for i, s := range states {
		single := agent.Predict(s)
		for j := range single {
			d := relDiff(batch.At(i, j), single[j])
			if d > batchParityTol {
				t.Fatalf("state %d action %d: batch %v vs single %v", i, j, batch.At(i, j), single[j])
			}
			worst = math.Max(worst, d)
		}
	}
	t.Logf("largest difference: %.3g (bound %g)", worst, batchParityTol)
}

// TestProbsBatchMatchesProbs checks the batched policy distribution path.
func TestProbsBatchMatchesProbs(t *testing.T) {
	const obsDim, actions = 11, 5
	agent := NewReinforce(obsDim, actions, ReinforceConfig{Hidden: []int{16}, Seed: 4})
	rng := rand.New(rand.NewSource(5))
	states := make([]State, 9)
	for i := range states {
		f := make([]float64, obsDim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		mask := make([]bool, actions)
		for j := range mask {
			mask[j] = rng.Intn(2) == 0
		}
		mask[rng.Intn(actions)] = true
		states[i] = State{Features: f, Mask: mask}
	}
	batch := agent.ProbsBatch(states)
	for i, s := range states {
		single := agent.Probs(s)
		for j := range single {
			if math.Abs(batch.At(i, j)-single[j]) > 1e-9 {
				t.Fatalf("state %d action %d: batch %v vs single %v", i, j, batch.At(i, j), single[j])
			}
		}
	}
}

// reinforceUpdateReference replicates the pre-batching REINFORCE update:
// one 1×d forward/backward per recorded step.
func reinforceUpdateReference(a *Reinforce) {
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

	a.Policy.ZeroGrad()
	for _, t := range a.batch {
		var adv float64
		if a.Cfg.Baseline == BaselineRunningEMA {
			adv = t.Return - baseline
		} else {
			adv = (t.Return - mean) / std
		}
		for _, st := range t.Steps {
			logits := a.Policy.Forward(nn.FromVec(st.Features))
			probs := nn.MaskedSoftmax(logits.Data, st.Mask)
			grad := make([]float64, len(probs))
			nn.PolicyGradientInto(grad, probs, st.Mask, st.Action, adv, a.entCoef)
			a.Policy.Backward(&nn.Mat{Rows: 1, Cols: len(grad), Data: grad})
		}
	}
	a.Policy.DivideGrads(float64(n))
	a.Opt.StepNet(a.Policy)
	a.Updates++
}

// TestBatchedReinforceUpdateMatchesPerSample feeds identical trajectory
// batches to two identically seeded agents — one updating through the
// batched path, one through the per-sample reference — and requires the
// resulting policies to agree within batchParityTol.
func TestBatchedReinforceUpdateMatchesPerSample(t *testing.T) {
	env := &chainEnv{}
	cfg := ReinforceConfig{Hidden: []int{16, 8}, BatchSize: 8, Seed: 6}
	batched := NewReinforce(env.ObsDim(), env.ActionDim(), cfg)
	reference := NewReinforce(env.ObsDim(), env.ActionDim(), cfg)

	var worst float64
	for round := 0; round < 6; round++ {
		// Trajectories are collected once (with the batched agent's sampler)
		// and fed identically to both learners; update() itself draws no
		// randomness, so the reference needs no RNG alignment.
		var trajs []Trajectory
		for i := 0; i < cfg.BatchSize; i++ {
			trajs = append(trajs, RunEpisode(env, batched.Sample, 10))
		}
		for _, traj := range trajs {
			batched.Observe(traj)
		}
		reference.batch = append(reference.batch[:0], trajs...)
		reinforceUpdateReference(reference)
		reference.batch = reference.batch[:0]

		d := maxParamDiff(batched.Policy, reference.Policy)
		if d > batchParityTol {
			t.Fatalf("round %d: policies diverged by %v, want ≤ %g", round, d, batchParityTol)
		}
		worst = math.Max(worst, d)
	}
	t.Logf("largest difference: %.3g (bound %g)", worst, batchParityTol)
}

// TestBestFallsBackToFirstValid is the regression test for Best returning -1
// when every prediction is +Inf/NaN: it must return the first valid action
// instead. An all-false mask still reports -1 (no action exists).
func TestBestFallsBackToFirstValid(t *testing.T) {
	agent := NewQAgent(4, 4, QAgentConfig{Hidden: []int{8}, Seed: 7})
	// Poison the network so every prediction is NaN.
	params := agent.Net.F32().Params()
	for _, p := range params {
		for i := range p.Value {
			p.Value[i] = float32(math.NaN())
		}
	}
	s := State{Features: []float64{1, 0, 0, 0}, Mask: []bool{false, true, true, false}}
	if got := agent.Best(s); got != 1 {
		t.Fatalf("Best with all-NaN predictions = %d, want first valid action 1", got)
	}
	// +Inf predictions: same fallback.
	for _, p := range params {
		for i := range p.Value {
			p.Value[i] = 0
		}
	}
	out := params[len(params)-1]
	for i := range out.Value {
		out.Value[i] = float32(math.Inf(1))
	}
	if got := agent.Best(s); got != 1 {
		t.Fatalf("Best with all-Inf predictions = %d, want first valid action 1", got)
	}
	if got := agent.Best(State{Features: []float64{1, 0, 0, 0}, Mask: []bool{false, false, false, false}}); got != -1 {
		t.Fatalf("Best with all-false mask = %d, want -1", got)
	}
	// Act must also return a usable action under a poisoned network.
	if got := agent.Act(s); got != 1 && got != 2 {
		t.Fatalf("Act with poisoned network = %d, want a valid action", got)
	}
}

// TestSampleIntoReusesBacking verifies SampleInto fills a caller-owned slice
// without fresh allocation and draws the same sequence as Sample.
func TestSampleIntoReusesBacking(t *testing.T) {
	buf := NewReplayBuffer(64)
	fillBuffer(buf, 64, 3, 2, rand.New(rand.NewSource(8)))
	a := buf.Sample(16, rand.New(rand.NewSource(9)))
	scratch := make([]Sample, 0, 16)
	b := buf.SampleInto(scratch, 16, rand.New(rand.NewSource(9)))
	if &b[0] != &scratch[:1][0] {
		t.Fatal("SampleInto did not reuse the caller's backing array")
	}
	for i := range a {
		if a[i].Target != b[i].Target {
			t.Fatalf("sample %d: Sample and SampleInto drew different elements", i)
		}
	}
}
