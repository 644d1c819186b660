package planspace

import (
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Replica returns an independent copy of the environment for parallel
// episode collection: its own RNG stream (derived from the worker index)
// and an episode cursor staggered so `workers` replicas sweep the workload
// with minimal overlap. The planner, space, latency model, and query set
// are shared — they are read-only during planning and execution. Under
// Collector the replicas call the configured Reward concurrently, so it
// must be a pure function of the outcome there (CostReward and
// LatencyReward are); TrainAsync calls it from the learner, in order, and
// has no such requirement.
func (e *Env) Replica(worker, workers int) *Env {
	cfg := e.Cfg
	cfg.Seed = e.Cfg.Seed + 1000*int64(worker+1)
	r := NewEnv(cfg)
	if workers > 0 {
		r.curIdx = (worker*len(cfg.Queries))/workers - 1
	}
	return r
}

// EpisodeRecord is one episode from a parallel collection round: the
// trajectory for the learner plus the environment outcome for reporting.
type EpisodeRecord struct {
	Query *query.Query
	Traj  rl.Trajectory
	Out   Outcome
}

// Collector owns a set of environment replicas for repeated parallel
// episode collection over a base environment.
type Collector struct {
	base     *Env
	replicas []*Env
	envs     []rl.Env
	maxSteps int
	snapSeed int64
}

// NewCollector builds a collector with the given number of worker replicas.
func NewCollector(base *Env, workers int) *Collector {
	if workers < 1 {
		workers = 1
	}
	c := &Collector{
		base:     base,
		maxSteps: 4*base.Cfg.Space.MaxRels + 8,
		snapSeed: base.Cfg.Seed,
	}
	for w := 0; w < workers; w++ {
		r := base.Replica(w, workers)
		c.replicas = append(c.replicas, r)
		c.envs = append(c.envs, r)
	}
	return c
}

// Collect runs `episodes` episodes across the worker replicas, each worker
// stepping a frozen snapshot of the policy (fresh snapshots per call, seeded
// deterministically), and returns the merged records in a deterministic
// order. The caller feeds the trajectories to its learner in that order —
// typically one policy-batch per Collect call so updates happen exactly as
// often as in sequential training.
func (c *Collector) Collect(agent *rl.Reinforce, episodes int) []EpisodeRecord {
	workers := len(c.replicas)
	per := rl.SplitEpisodes(episodes, workers)
	policies := make([]func(rl.State) int, workers)
	records := make([][]EpisodeRecord, workers)
	// Fresh policy snapshots mean any plan cached under the previous policy
	// is stale: advance the shared cache's policy epoch so ModeGreedyPolicy
	// entries from older snapshots can never be served. Pure optimizer
	// completions are unaffected — they are what makes repeated workload
	// queries cheap.
	c.base.Cfg.Planner.Cache.BumpEpoch()
	for w := 0; w < workers; w++ {
		c.snapSeed++
		policies[w] = agent.PolicySnapshot(c.snapSeed)
		records[w] = make([]EpisodeRecord, per[w])
	}
	rl.CollectParallel(c.envs, policies, per, c.maxSteps, func(w, ep int, traj rl.Trajectory) {
		records[w][ep] = EpisodeRecord{
			Query: c.replicas[w].Current(),
			Traj:  traj,
			Out:   c.replicas[w].Last,
		}
	})
	// Fold the replicas' execution counters back into the base environment
	// so §4-style timeout statistics survive parallel collection.
	for _, r := range c.replicas {
		c.base.Executions += r.Executions
		c.base.TimedOutCount += r.TimedOutCount
		r.Executions, r.TimedOutCount = 0, 0
	}
	return rl.Interleave(records)
}
