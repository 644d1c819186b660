package rl

import (
	"math/rand"
	"testing"
)

func TestMarshalPolicyRoundTrip(t *testing.T) {
	a := NewReinforce(4, 3, ReinforceConfig{Hidden: []int{8}, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	features := make([]float64, 4)
	for i := range features {
		features[i] = rng.NormFloat64()
	}
	mask := []bool{true, true, true}
	s := State{Features: features, Mask: mask}
	want := a.Probs(s)

	data, err := a.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	b := NewReinforce(4, 3, ReinforceConfig{Hidden: []int{8}, Seed: 99})
	if err := b.UnmarshalPolicy(data); err != nil {
		t.Fatal(err)
	}
	got := b.Probs(s)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prob %d differs after restore: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestUnmarshalPolicyRejectsWrongDims(t *testing.T) {
	a := NewReinforce(4, 3, ReinforceConfig{Hidden: []int{8}, Seed: 1})
	data, err := a.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	b := NewReinforce(5, 3, ReinforceConfig{Hidden: []int{8}, Seed: 1})
	if err := b.UnmarshalPolicy(data); err == nil {
		t.Fatal("accepted checkpoint with wrong input dimension")
	}
	c := NewReinforce(4, 7, ReinforceConfig{Hidden: []int{8}, Seed: 1})
	if err := c.UnmarshalPolicy(data); err == nil {
		t.Fatal("accepted checkpoint with wrong action dimension")
	}
}

func TestEntropyAnnealing(t *testing.T) {
	env := &banditEnv{rng: rand.New(rand.NewSource(1)), arms: 3}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{
		Hidden: []int{8}, BatchSize: 4, EntropyCoef: 0.1, EntropyDecay: 0.5, Seed: 3,
	})
	if agent.entCoef != 0.1 {
		t.Fatalf("initial entropy coef %v", agent.entCoef)
	}
	for ep := 0; ep < 40; ep++ {
		traj := RunEpisode(env, agent.Sample, 5)
		agent.Observe(traj)
	}
	// After 10 updates at decay 0.5 the coefficient must sit at the floor,
	// EntropyCoef/50.
	if agent.entCoef != 0.1/50 {
		t.Fatalf("entropy coef %v, want floored at %v", agent.entCoef, 0.1/50)
	}
}

func TestEntropyNoDecayByDefault(t *testing.T) {
	env := &banditEnv{rng: rand.New(rand.NewSource(1)), arms: 3}
	agent := NewReinforce(env.ObsDim(), env.ActionDim(), ReinforceConfig{
		Hidden: []int{8}, BatchSize: 4, EntropyCoef: 0.1, Seed: 3,
	})
	for ep := 0; ep < 20; ep++ {
		traj := RunEpisode(env, agent.Sample, 5)
		agent.Observe(traj)
	}
	if agent.entCoef != 0.1 {
		t.Fatalf("entropy coef drifted to %v without decay configured", agent.entCoef)
	}
}
