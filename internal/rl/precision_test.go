package rl

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/nn"
)

// relDiff is the symmetric relative difference the tolerance comparisons in
// this package use: |a−b| / (1 + |a| + |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(a) + math.Abs(b))
}

// TestQAgentF32TrainConverges trains a QAgent on a learnable replay buffer
// (the target is the feature the action indexes) and requires every
// minibatch loss to be finite and the loss to come down: the agent-level
// half of the f32 contract, as an absolute bound (per-step parity with the
// float64 oracle is nn's TestF32TrainingStepToleranceParity).
func TestQAgentF32TrainConverges(t *testing.T) {
	const obsDim, actions = 24, 8
	buf := NewReplayBuffer(1024)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		f := make([]float64, obsDim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		a := rng.Intn(actions)
		buf.Add(Sample{Features: f, Action: a, Target: f[a]})
	}
	agent := NewQAgent(obsDim, actions, QAgentConfig{Hidden: []int{32, 16}, Seed: 9})
	const steps, window = 600, 20
	var first, last float64
	for step := 0; step < steps; step++ {
		l := agent.Train(buf, 32)
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("step %d: loss is %v", step, l)
		}
		if step < window {
			first += l / window
		}
		if step >= steps-window {
			last += l / window
		}
	}
	t.Logf("mean loss: first %d steps %.4f, last %d steps %.4f", window, first, window, last)
	if last > first/2 {
		t.Fatalf("loss did not halve: first %d steps %.4f, last %d steps %.4f", window, first, window, last)
	}
}

// TestReinforceF32ConvergesOnBandit: the policy-gradient path must solve the
// contextual bandit.
func TestReinforceF32ConvergesOnBandit(t *testing.T) {
	env := &banditEnv{rng: rand.New(rand.NewSource(20)), arms: 4}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{
		Hidden: []int{16}, BatchSize: 8, Seed: 21,
	})
	for ep := 0; ep < 1500; ep++ {
		agent.Observe(RunEpisode(env, agent.Sample, 3))
	}
	wins := 0
	eval := &banditEnv{rng: rand.New(rand.NewSource(22)), arms: 4}
	for ep := 0; ep < 100; ep++ {
		s := eval.Reset()
		if agent.Greedy(s) == eval.ctx {
			wins++
		}
	}
	if wins < 80 {
		t.Fatalf("agent solved only %d/100 bandit contexts", wins)
	}
}

// f64Checkpoint mirrors the fields of nn's version-1 wire struct that a
// checkpoint written by a float64 network carries (gob matches fields by
// name), so this package can hand UnmarshalPolicy an old file.
type f64Checkpoint struct {
	Version   int
	Precision string
	Kinds     []string
	Ins, Outs []int
	Vals      [][]float64
}

// TestMixedPrecisionCheckpointLoads covers what an agent can be handed: a
// checkpoint written by a float64 network (weights rounded on load), one
// written by this version (bit for bit), and bytes that are no checkpoint.
func TestMixedPrecisionCheckpointLoads(t *testing.T) {
	const obsDim, actions = 6, 3
	mk := func(seed int64) *Reinforce {
		return NewReinforce(obsDim, actions, ReinforceConfig{Hidden: []int{12}, Seed: seed})
	}
	state := State{Features: []float64{0.3, -1.2, 0.7, 0.05, -0.4, 1.9}, Mask: []bool{true, true, true}}

	t.Run("f64-into-f32", func(t *testing.T) {
		// Widen src's weights into the float64 format: every one is exactly
		// representable, so the rounding on load must give them back.
		src := mk(1)
		ck := f64Checkpoint{Version: 1, Precision: "f64"}
		for _, l := range src.Policy.F32().Layers {
			kind, in, out := "relu", 0, 0
			if lin, ok := l.(*nn.LinearOf[float32]); ok {
				kind, in, out = "linear", lin.In, lin.Out
				for _, p := range lin.Params() {
					w := make([]float64, len(p.Value))
					for i, v := range p.Value {
						w[i] = float64(v)
					}
					ck.Vals = append(ck.Vals, w)
				}
			}
			ck.Kinds, ck.Ins, ck.Outs = append(ck.Kinds, kind), append(ck.Ins, in), append(ck.Outs, out)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		dst := mk(2)
		if err := dst.UnmarshalPolicy(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		ps, pd := src.Probs(state), dst.Probs(state)
		for i := range ps {
			if ps[i] != pd[i] {
				t.Fatalf("action %d: source prob %v vs loaded %v", i, ps[i], pd[i])
			}
		}
	})

	t.Run("same-precision-f32", func(t *testing.T) {
		src := mk(5)
		data, err := src.MarshalPolicy()
		if err != nil {
			t.Fatal(err)
		}
		dst := mk(6)
		if err := dst.UnmarshalPolicy(data); err != nil {
			t.Fatal(err)
		}
		ps, pd := src.Probs(state), dst.Probs(state)
		for i := range ps {
			if ps[i] != pd[i] {
				t.Fatalf("f32 round trip changed action %d prob: %v vs %v", i, ps[i], pd[i])
			}
		}
	})

	t.Run("corrupted-and-empty", func(t *testing.T) {
		good, err := mk(7).MarshalPolicy()
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"empty":     {},
			"garbage":   []byte("......definitely not gob......"),
			"truncated": good[:len(good)/3],
		} {
			dst := mk(8)
			before := dst.Policy
			if err := dst.UnmarshalPolicy(data); err == nil {
				t.Fatalf("%s checkpoint loaded without error", name)
			}
			if dst.Policy != before {
				t.Fatalf("%s checkpoint replaced the policy despite erroring", name)
			}
		}
	})
}

// TestAsyncTrainF32: the asynchronous actor-learner split must run end to
// end — actors infer concurrently against the snapshots the learner
// publishes through the parameter server.
func TestAsyncTrainF32(t *testing.T) {
	const actors = 4
	envs := make([]Env, actors)
	for w := range envs {
		envs[w] = &banditEnv{rng: rand.New(rand.NewSource(int64(40 + w))), arms: 3}
	}
	learner := NewReinforce(3, 3, ReinforceConfig{Hidden: []int{8}, BatchSize: 4, Seed: 41})
	stats := TrainAsyncCtx(context.Background(), learner, envs, 64, AsyncConfig{Actors: actors, Staleness: 2, Seed: 42}, nil, nil)
	if stats.Episodes != 64 {
		t.Fatalf("collected %d episodes, want 64", stats.Episodes)
	}
	if stats.Updates == 0 {
		t.Fatal("async run applied no policy updates")
	}
	if stats.MaxLag > 2 {
		t.Fatalf("staleness bound violated: max lag %d > 2", stats.MaxLag)
	}
}
