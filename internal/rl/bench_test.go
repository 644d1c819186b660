package rl

import (
	"math/rand"
	"testing"
)

// lifecycleBatch builds one policy update's worth of trajectories at the
// benchmark lifecycle's shape: 16 episodes of 3 or 4 steps (61 rows), 117
// state features of which the same 52 columns (45 %) are zero in every row
// and 81 % of all entries are zero, and 36 actions.
func lifecycleBatch(rng *rand.Rand) []Trajectory {
	const obs, actions, episodes = 117, 36, 16
	live := rng.Perm(obs)[:obs-52]
	batch := make([]Trajectory, episodes)
	for e := range batch {
		steps := 4
		if e%5 == 4 {
			steps = 3 // 13×4 + 3×3 = 61 rows
		}
		var traj Trajectory
		for s := 0; s < steps; s++ {
			f := make([]float64, obs)
			for _, j := range live {
				if rng.Float64() < 0.34 {
					f[j] = rng.Float64()
				}
			}
			mask := make([]bool, actions)
			for j := range mask {
				mask[j] = rng.Intn(3) == 0
			}
			a := rng.Intn(actions)
			mask[a] = true
			traj.Steps = append(traj.Steps, Step{Features: f, Mask: mask, Action: a})
		}
		traj.Return = -rng.Float64() * 10
		batch[e] = traj
	}
	return batch
}

// BenchmarkReinforceUpdate times one REINFORCE policy update (batched
// forward, masked softmax cross-entropy, backward, gradient scaling, Adam)
// of the lifecycle's 117→128→64→36 policy over a 61-row batch — the
// learner's whole step, which nn.train_step_us times in the benchmark.
func BenchmarkReinforceUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewReinforce(117, 36, ReinforceConfig{Seed: 1})
	batch := lifecycleBatch(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range batch {
			a.Observe(t)
		}
	}
}
