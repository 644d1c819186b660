package rl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// banditEnv is a contextual bandit: the context says which arm pays.
// One step per episode; reward 1 for the matching arm, 0 otherwise.
type banditEnv struct {
	rng  *rand.Rand
	arms int
	ctx  int
}

func (e *banditEnv) Reset() State {
	e.ctx = e.rng.Intn(e.arms)
	return e.state()
}

func (e *banditEnv) state() State {
	f := make([]float64, e.arms)
	f[e.ctx] = 1
	mask := make([]bool, e.arms)
	for i := range mask {
		mask[i] = true
	}
	return State{Features: f, Mask: mask}
}

func (e *banditEnv) Step(a int) (State, float64, bool) {
	r := 0.0
	if a == e.ctx {
		r = 1
	}
	return State{Terminal: true}, r, true
}

func (e *banditEnv) ObsDim() int    { return e.arms }
func (e *banditEnv) ActionDim() int { return e.arms }

// chainEnv is a two-step environment where the first action constrains the
// mask of the second; reaching cell (1,1) pays 1. It exercises masks and
// multi-step credit assignment.
type chainEnv struct {
	step  int
	first int
}

func (e *chainEnv) Reset() State {
	e.step = 0
	return e.state()
}

func (e *chainEnv) state() State {
	f := make([]float64, 4)
	f[e.step] = 1
	if e.step == 1 {
		f[2+e.first] = 1
	}
	mask := []bool{true, true, false, false}
	if e.step == 1 {
		mask = []bool{false, false, true, true}
	}
	return State{Features: f, Mask: mask}
}

func (e *chainEnv) Step(a int) (State, float64, bool) {
	if e.step == 0 {
		e.first = a
		e.step = 1
		return e.state(), 0, false
	}
	r := 0.0
	if e.first == 1 && a == 3 {
		r = 1
	}
	return State{Terminal: true}, r, true
}

func (e *chainEnv) ObsDim() int    { return 4 }
func (e *chainEnv) ActionDim() int { return 4 }

func TestReinforceLearnsContextualBandit(t *testing.T) {
	env := &banditEnv{rng: rand.New(rand.NewSource(42)), arms: 4}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{
		Hidden: []int{32}, BatchSize: 8, Seed: 1,
	})
	for ep := 0; ep < 2000; ep++ {
		traj := RunEpisode(env, agent.Sample, 10)
		agent.Observe(traj)
	}
	// Greedy policy should be near-perfect now.
	correct := 0
	for trial := 0; trial < 100; trial++ {
		s := env.Reset()
		a := agent.Greedy(s)
		if a == env.ctx {
			correct++
		}
	}
	if correct < 90 {
		t.Fatalf("greedy policy correct on %d/100 contexts, want ≥ 90", correct)
	}
}

func TestReinforceLearnsMultiStepWithMasks(t *testing.T) {
	env := &chainEnv{}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{
		Hidden: []int{16}, BatchSize: 8, Seed: 3,
	})
	for ep := 0; ep < 1500; ep++ {
		traj := RunEpisode(env, agent.Sample, 10)
		agent.Observe(traj)
	}
	traj := RunEpisode(env, agent.Greedy, 10)
	if traj.Return != 1 {
		t.Fatalf("greedy return = %v, want 1", traj.Return)
	}
}

func TestReinforceNeverPicksMaskedAction(t *testing.T) {
	env := &chainEnv{}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{Hidden: []int{8}, Seed: 9})
	for ep := 0; ep < 200; ep++ {
		s := env.Reset()
		for !s.Terminal {
			a := agent.Sample(s)
			if a < 0 || !s.Mask[a] {
				t.Fatalf("sampled invalid action %d with mask %v", a, s.Mask)
			}
			next, _, done := env.Step(a)
			s = next
			if done {
				break
			}
		}
	}
}

func TestQAgentRegression(t *testing.T) {
	// Q agent should learn that in context i, action i has target 0 and
	// all others have target 1 (lower is better → Best picks the match).
	arms := 3
	agent := NewQAgent(arms, arms, QAgentConfig{Hidden: []int{32}, Seed: 5})
	buf := NewReplayBuffer(1000)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		ctx := rng.Intn(arms)
		f := make([]float64, arms)
		f[ctx] = 1
		a := rng.Intn(arms)
		target := 1.0
		if a == ctx {
			target = 0
		}
		buf.Add(Sample{Features: f, Action: a, Target: target})
	}
	for i := 0; i < 400; i++ {
		agent.Train(buf, 32)
	}
	mask := []bool{true, true, true}
	for ctx := 0; ctx < arms; ctx++ {
		f := make([]float64, arms)
		f[ctx] = 1
		if got := agent.Best(State{Features: f, Mask: mask}); got != ctx {
			t.Fatalf("context %d: best action %d, want %d (pred=%v)", ctx, got, ctx,
				agent.Predict(State{Features: f, Mask: mask}))
		}
	}
}

func TestReplayBufferEvictsOldest(t *testing.T) {
	buf := NewReplayBuffer(3)
	if cap(buf.data) != 0 {
		t.Fatalf("a new buffer reserves %d samples, want none until they are added", cap(buf.data))
	}
	for i := 0; i < 5; i++ {
		buf.Add(Sample{Target: float64(i)})
	}
	if buf.Len() != 3 {
		t.Fatalf("len = %d, want 3", buf.Len())
	}
	seen := map[float64]bool{}
	for _, s := range buf.data {
		seen[s.Target] = true
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted sample %v still present", old)
		}
	}
}

func TestRunningNormMatchesBatchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var rn RunningNorm
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 7
		xs = append(xs, x)
		rn.Observe(x)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var variance float64
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	std := math.Sqrt(variance / float64(len(xs)))
	if math.Abs(rn.Mean()-mean) > 1e-9 || math.Abs(rn.Std()-std) > 1e-9 {
		t.Fatalf("running (%v, %v) vs batch (%v, %v)", rn.Mean(), rn.Std(), mean, std)
	}
}

// Property: rescaling a value from [a,b] into [c,d] keeps the endpoints.
func TestRangeRescaleEndpoints(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(d) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) || math.IsInf(d, 0) {
			return true
		}
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		c, d = math.Mod(c, 1e6), math.Mod(d, 1e6)
		if a == b {
			return true
		}
		var src, dst Range
		src.Observe(a)
		src.Observe(b)
		dst.Observe(c)
		dst.Observe(d)
		lo := src.Rescale(src.Min(), &dst)
		hi := src.Rescale(src.Max(), &dst)
		return math.Abs(lo-dst.Min()) < 1e-6*(1+math.Abs(dst.Min())) &&
			math.Abs(hi-dst.Max()) < 1e-6*(1+math.Abs(dst.Max()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeRescaleMatchesPaperFormula(t *testing.T) {
	// Paper example: costs 10–50, latencies 100–200. A latency of 150 should
	// map to cost 30.
	var lat, cost Range
	lat.Observe(100)
	lat.Observe(200)
	cost.Observe(10)
	cost.Observe(50)
	if got := lat.Rescale(150, &cost); math.Abs(got-30) > 1e-12 {
		t.Fatalf("rescale(150) = %v, want 30", got)
	}
}

func TestRandomPolicyUniformOverValid(t *testing.T) {
	mask := []bool{false, true, false, true, true}
	pol := RandomPolicy(1)
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		a := pol(State{Mask: mask})
		if !mask[a] {
			t.Fatalf("random policy picked masked action %d", a)
		}
		counts[a]++
	}
	for _, i := range []int{1, 3, 4} {
		if counts[i] < 800 {
			t.Fatalf("action %d picked only %d/3000 times; not uniform", i, counts[i])
		}
	}
}

func TestStateNumValid(t *testing.T) {
	s := State{Mask: []bool{true, false, true}}
	if s.NumValid() != 2 {
		t.Fatalf("NumValid = %d, want 2", s.NumValid())
	}
}

// TestQAgentBestFallbackCounted: when every valid prediction is NaN, Best
// must return the first valid action AND count the anomaly, so diverged
// networks are observable rather than silently tolerated.
func TestQAgentBestFallbackCounted(t *testing.T) {
	agent := NewQAgent(2, 3, QAgentConfig{Hidden: []int{8}, Seed: 1})
	// Poison the network: NaN weights make every prediction NaN.
	for _, p := range agent.Net.F32().Params() {
		for i := range p.Value {
			p.Value[i] = float32(math.NaN())
		}
	}
	s := State{Features: []float64{1, 0}, Mask: []bool{false, true, true}}
	if got := agent.Best(s); got != 1 {
		t.Fatalf("Best = %d under all-NaN predictions, want first valid action 1", got)
	}
	if n := agent.BestFallbacks(); n != 1 {
		t.Fatalf("BestFallbacks = %d after one NaN fallback, want 1", n)
	}
	// A healthy call must not bump the counter.
	healthy := NewQAgent(2, 3, QAgentConfig{Hidden: []int{8}, Seed: 1})
	if a := healthy.Best(s); a < 0 || !s.Mask[a] {
		t.Fatalf("healthy Best returned %d", a)
	}
	if n := healthy.BestFallbacks(); n != 0 {
		t.Fatalf("BestFallbacks = %d on a healthy agent, want 0", n)
	}
	// An all-false mask still reports no action and counts nothing.
	if a := agent.Best(State{Features: []float64{1, 0}, Mask: []bool{false, false, false}}); a != -1 {
		t.Fatalf("Best = %d with an all-false mask, want -1", a)
	}
	if n := agent.BestFallbacks(); n != 1 {
		t.Fatalf("BestFallbacks = %d after all-false mask, want still 1", n)
	}
}
