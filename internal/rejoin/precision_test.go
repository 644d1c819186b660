package rejoin

import (
	"testing"

	"handsfree/internal/featurize"
	"handsfree/internal/rl"
)

// TestF32TrainingConvergesOnSeedWorkload is the system-level half of the
// f32 contract (the per-step bounds live in nn): training ReJOIN on the seed
// workload must bring the greedy plans' cost ratio against the optimizer
// down from the untrained policy's to within maxTrainedRatio. The budget is
// short on purpose (the untrained policy plans at ≈85× the optimizer's cost
// on this fixture, 240 episodes bring it to ≈18×), so the bound checks that
// learning happens, not that it has finished.
func TestF32TrainingConvergesOnSeedWorkload(t *testing.T) {
	fx := fixture(t, 4, 4, 5)
	const episodes = 240
	const maxTrainedRatio = 25.0

	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	untrained := greedyRatio(t, fx, agent)
	agent.TrainEpisodes(episodes)
	trained := greedyRatio(t, fx, agent)

	t.Logf("greedy cost ratio vs optimizer: untrained %.3f, trained %.3f", untrained, trained)
	if trained > maxTrainedRatio || trained >= untrained {
		t.Fatalf("trained plan quality %.3f (untrained %.3f), want below %.0f and improved", trained, untrained, maxTrainedRatio)
	}
}

// TestF32CheckpointRoundTripOnAgent: a ReJOIN agent must save and restore
// through the rejoin-level Save/Load path and plan identically afterwards.
func TestF32CheckpointRoundTripOnAgent(t *testing.T) {
	fx := fixture(t, 3, 4, 4)
	space := featurize.NewSpace(fx.maxRels, fx.est)
	env := NewEnv(space, fx.planner, fx.queries, 1)
	agent := NewAgent(env, rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 3})
	for ep := 0; ep < 12; ep++ {
		agent.TrainEpisode()
	}
	data, err := agent.Save()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewAgent(NewEnv(space, fx.planner, fx.queries, 1),
		rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 4, Seed: 4})
	if err := restored.Load(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range fx.queries {
		p1, c1 := agent.GreedyPlan(q)
		p2, c2 := restored.GreedyPlan(q)
		if p1 == nil || p2 == nil || c1 != c2 {
			t.Fatalf("restored agent plans %s at cost %v, original %v", q.Name, c2, c1)
		}
	}
}
