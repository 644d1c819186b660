package rejoin

import (
	"runtime"

	"handsfree/internal/paramserver"
	"handsfree/internal/rl"
)

// TrainAsync runs `episodes` training episodes with the actor-learner split
// (rl.TrainAsync): cfg.Actors environment replicas collect episodes against
// policy snapshots from a parameter server while the learner consumes them
// in ticket order, updates, and republishes — no round barrier, so
// collecting overlaps learning. Which snapshot an episode sees is decided by
// its ticket, so results (returned in ticket order) and the trained policy
// are the same on every run with the same seed and actor count.
//
// Every snapshot publish advances the shared plan cache's policy epoch (when
// a cache is attached via UseCache), so greedy plans memoized under older
// snapshots can never be served, however the actors interleave.
func (a *Agent) TrainAsync(episodes int, cfg rl.AsyncConfig) []EpisodeResult {
	if cfg.Actors < 1 {
		// Same default rl.TrainAsync documents: the replica count must be
		// fixed here, before the environments are built.
		cfg.Actors = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2*a.Env.Space.MaxRels + 4
	}
	if cfg.Seed == 0 {
		// Advance the agent's snapshot-seed counter so successive training
		// calls never replay earlier action-sampling RNG streams.
		a.snapSeed += int64(cfg.Actors)
		cfg.Seed = a.snapSeed
	}
	replicas := make([]*Env, cfg.Actors)
	envs := make([]rl.Env, cfg.Actors)
	for w := 0; w < cfg.Actors; w++ {
		replicas[w] = a.Env.Replica(w, cfg.Actors)
		envs[w] = replicas[w]
	}
	// Fresh snapshots are about to be taken: invalidate plans memoized
	// under the previous policy, then keep invalidating on every publish.
	cache := a.Env.Planner.Cache
	cache.BumpEpoch()
	prev := cfg.OnPublish
	cfg.OnPublish = func(snap *paramserver.Snapshot) {
		cache.BumpEpoch()
		if prev != nil {
			prev(snap)
		}
	}

	results := make([]EpisodeResult, 0, episodes)
	rl.TrainAsync(a.RL, envs, episodes, cfg,
		func(w, seq int, _ rl.Trajectory) (any, *rl.Deferred) {
			return EpisodeResult{
				Query: replicas[w].Current(),
				Cost:  replicas[w].LastCost,
				Plan:  replicas[w].LastPlan,
			}, nil
		},
		func(e rl.AsyncEpisode) {
			results = append(results, e.Out.(EpisodeResult))
		})
	return results
}
