package planspace

import (
	"context"
	"runtime"

	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Replica returns an independent copy of the environment for one actor, with
// its own episode state and an episode cursor staggered so `workers` replicas
// sweep the workload with minimal overlap. The planner, space, latency model,
// and query set are shared — they are read-only during planning and
// execution.
func (e *Env) Replica(worker, workers int) *Env {
	r := NewEnv(e.Cfg)
	r.stagger(worker, workers)
	return r
}

// stagger points the episode cursor at the worker's share of the workload.
func (e *Env) stagger(worker, workers int) {
	if workers > 0 {
		e.curIdx = (worker*len(e.Cfg.Queries))/workers - 1
	}
}

// actorReplicas returns n deferred-evaluation replicas of e for one
// TrainAsyncCtx call. They are built on the first call and kept: what a
// replica caches per query (access options, join bits, featurization
// entries, subtree cardinalities) is a pure function of the query, so a
// training lifecycle's chunks share it instead of rebuilding it per chunk.
// Each call hands them e's current configuration (the lifecycle switches
// rewards between phases) and the staggered cursors of fresh replicas, so a
// kept replica collects exactly what a fresh one would.
func (e *Env) actorReplicas(n int) []*Env {
	if len(e.actors) != n {
		e.actors = make([]*Env, n)
		for w := range e.actors {
			e.actors[w] = NewEnv(e.Cfg)
			e.actors[w].deferEval = true
		}
	}
	for w, r := range e.actors {
		r.Cfg = e.Cfg
		r.stagger(w, n)
	}
	return e.actors
}

// EpisodeRecord is one consumed training episode: the trajectory for the
// learner plus the environment outcome for reporting.
type EpisodeRecord struct {
	Query *query.Query
	Traj  rl.Trajectory
	Out   Outcome
}

// TrainAsyncCtx trains agent over the environment with the actor-learner
// split (rl.TrainAsyncCtx): cfg.Actors replicas of base collect episodes
// against policy snapshots while the learner consumes them in ticket order,
// applies policy-batch updates, and republishes. onEpisode (optional)
// observes every consumed episode, evaluated, in that order. The run is repeatable bit for
// bit at any actor count: rl.TrainAsyncCtx's sequential specification decides
// which snapshot each episode sees, and evaluation is ordered here.
//
// A replica only rolls an episode out. When the episode must be executed
// (RewardNeedsLatency / ExecuteAlways) the actor asks the executor to
// prepare the run — engine.Observed consults its fault seam at that moment,
// in rollout order — hands it to one of GOMAXPROCS execution slots and
// starts the next rollout; the learner waits for ticket i's execution only
// when it reaches ticket i. The configured Reward is called there, on the
// learner goroutine, once per episode and in ticket order, so it may be
// stateful without a lock, and the execution counters are folded into base
// at the same point.
//
// The replicas are kept on base for its next call (see actorReplicas), so a
// base serves one call at a time, as its execution counters already require.
//
// Cancelling ctx stops the learner and the actors and returns early with
// AsyncStats.Episodes < episodes (see rl.TrainAsyncCtx), once the executions
// already started have finished. Executions the learner never reached are
// not counted.
func TrainAsyncCtx(ctx context.Context, base *Env, agent *rl.Reinforce, episodes int, cfg rl.AsyncConfig,
	onEpisode func(i int, rec EpisodeRecord)) rl.AsyncStats {
	if cfg.Actors < 1 {
		// Same default rl.AsyncConfig documents: the replica count must be
		// fixed here, before the environments are built.
		cfg.Actors = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = base.maxSteps()
	}
	if cfg.Seed == 0 {
		cfg.Seed = base.Cfg.Seed + 1
	}
	replicas := base.actorReplicas(cfg.Actors)
	envs := make([]rl.Env, cfg.Actors)
	for w, r := range replicas {
		envs[w] = r
	}
	// Execution slots: at most GOMAXPROCS engine runs in flight; an actor
	// with a finished rollout waits for one before it starts the next.
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	after := func(w, _ int, _ rl.Trajectory) (any, *rl.Deferred) {
		r := replicas[w]
		rec := &EpisodeRecord{Query: r.Current(), Out: r.Last}
		if r.ph != phaseDone {
			return rec, nil // cut off by MaxSteps: nothing to evaluate
		}
		run := r.run
		d := &rl.Deferred{Reward: func() float64 {
			if run != nil {
				base.Executions++
				if rec.Out.TimedOut {
					base.TimedOutCount++
				}
			}
			return base.Cfg.Reward(rec.Out)
		}}
		if run != nil {
			done := make(chan struct{})
			d.Done = done
			slots <- struct{}{}
			go func() {
				rec.Out.LatencyMs, rec.Out.TimedOut = run()
				<-slots
				close(done)
			}()
		}
		return rec, d
	}
	var observe func(e rl.AsyncEpisode)
	if onEpisode != nil {
		i := 0
		observe = func(e rl.AsyncEpisode) {
			rec := e.Out.(*EpisodeRecord)
			rec.Traj = e.Traj // the trajectory with its terminal reward
			onEpisode(i, *rec)
			i++
		}
	}
	stats := rl.TrainAsyncCtx(ctx, agent, envs, episodes, cfg, after, observe)
	// Every actor has exited; taking every slot waits out the executions
	// still running (none on a normal return).
	for range cap(slots) {
		slots <- struct{}{}
	}
	return stats
}
