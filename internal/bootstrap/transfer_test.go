package bootstrap

import (
	"testing"

	"handsfree/internal/rl"
)

func TestTransferSwitchKeepsHiddenReinitsOutput(t *testing.T) {
	env, _ := fixtureEnv(t, 4, 4, 5)
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{32, 16}, Seed: 3}, Scaling: ScaleTransfer})
	for ep := 0; ep < 40; ep++ {
		agent.TrainEpisode()
	}
	oldPolicy := agent.RL.Policy
	oldHidden := append([]float32(nil), oldPolicy.F32().Params()[0].Value...)
	oldOutput := outputWeights(t, agent)

	agent.SwitchToLatency()

	if agent.RL.Policy == oldPolicy {
		t.Fatal("transfer switch did not rebuild the learner")
	}
	newHidden := agent.RL.Policy.F32().Params()[0].Value
	for i := range oldHidden {
		if newHidden[i] != oldHidden[i] {
			t.Fatal("hidden layer weights changed across the transfer switch")
		}
	}
	newOutput := outputWeights(t, agent)
	same := 0
	for i := range oldOutput {
		if oldOutput[i] == newOutput[i] {
			same++
		}
	}
	if same > len(oldOutput)/10 {
		t.Fatalf("%d/%d output weights unchanged; output layer not re-initialized", same, len(oldOutput))
	}

	// Phase 2 must still train without error and use the batch-std learner.
	for ep := 0; ep < 40; ep++ {
		agent.TrainEpisode()
	}
	if agent.RL.Cfg.UseSGD {
		t.Fatal("transfer switch should move to the scale-free (Adam) learner")
	}
}

func outputWeights(t *testing.T, a *Agent) []float32 {
	t.Helper()
	params := a.RL.Policy.F32().Params()
	// Last weight matrix is the second-to-last param (weights, then bias).
	w := params[len(params)-2].Value
	return append([]float32(nil), w...)
}

func TestTransferRewardIsLogLatency(t *testing.T) {
	env, _ := fixtureEnv(t, 3, 4, 4)
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{16}, Seed: 5}, Scaling: ScaleTransfer})
	for ep := 0; ep < 10; ep++ {
		agent.TrainEpisode()
	}
	agent.SwitchToLatency()
	out := agent.TrainEpisode()
	if out.LatencyMs <= 0 {
		t.Fatal("phase-2 transfer episode was not executed")
	}
}
