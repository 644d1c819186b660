package planspace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// TestTrainAsyncCollectsAndLearns: the async split over the plan-space MDP
// must honor the episode budget, deliver complete outcomes, update the
// learner, and respect the staleness bound.
func TestTrainAsyncCollectsAndLearns(t *testing.T) {
	f := fixture(t, 4, 3, 4)
	env := f.env(StagePrefix(2), CostReward, false)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 5})
	n := 0
	stats := TrainAsyncCtx(context.Background(), env, agent, 32, rl.AsyncConfig{Actors: 3, Staleness: 2}, func(i int, rec EpisodeRecord) {
		if i != n {
			t.Errorf("episode index %d, want %d", i, n)
		}
		n++
		if rec.Out.Plan == nil || rec.Query == nil {
			t.Errorf("episode %d has no plan/query", i)
		}
		if len(rec.Traj.Steps) == 0 {
			t.Errorf("episode %d has an empty trajectory", i)
		}
	})
	if n != 32 || stats.Episodes != 32 {
		t.Fatalf("observed %d episodes (stats %d), want 32", n, stats.Episodes)
	}
	if agent.Updates == 0 {
		t.Fatal("learner never updated")
	}
	if stats.MaxLag > 2 {
		t.Fatalf("staleness bound violated: MaxLag %d > 2", stats.MaxLag)
	}
}

// TestTrainAsyncFoldsExecutionCounters: §4-style timeout statistics must
// survive collection on replicas: every execution folds into the base env.
func TestTrainAsyncFoldsExecutionCounters(t *testing.T) {
	f := fixture(t, 3, 3, 3)
	env := f.env(StagePrefix(1), LatencyReward, true)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 6})
	TrainAsyncCtx(context.Background(), env, agent, 8, rl.AsyncConfig{Actors: 2, Staleness: 2}, nil)
	if env.Executions != 8 {
		t.Fatalf("base env folded %d executions, want 8", env.Executions)
	}
}

// TestReplicaIndependentEpisodes checks a replica owns its own episode state.
func TestReplicaIndependentEpisodes(t *testing.T) {
	f := fixture(t, 3, 3, 4)
	base := f.env(StagePrefix(1), CostReward, false)
	rep := base.Replica(1, 2)
	s1 := base.Reset()
	s2 := rep.Reset()
	if base.Current() == rep.Current() {
		t.Fatal("staggered replicas started on the same query")
	}
	if len(s1.Features) != len(s2.Features) {
		t.Fatal("replica observation dimension differs from base")
	}
}

// TestTrainAsyncCacheTransparent: async training over the full plan-space
// MDP must consume identical episodes with and without the plan cache, and
// the completions that end its episodes neither read nor fill the cache,
// which holds whole planning decisions only.
func TestTrainAsyncCacheTransparent(t *testing.T) {
	f := fixture(t, 4, 3, 4)
	run := func(cache *plancache.Cache) []EpisodeRecord {
		env := NewEnv(Config{
			Space:   f.space,
			Stages:  StagePrefix(2),
			Planner: f.planner,
			Latency: f.lat,
			Queries: f.queries,
			Reward:  CostReward,
			Cache:   cache,
			Seed:    3,
		})
		agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 5})
		var out []EpisodeRecord
		for sweep := 0; sweep < 3; sweep++ {
			TrainAsyncCtx(context.Background(), env, agent, 12, rl.AsyncConfig{Actors: 3}, func(_ int, rec EpisodeRecord) {
				out = append(out, rec)
			})
		}
		return out
	}
	plain := run(nil)
	cache := plancache.New(plancache.Config{Capacity: 4096, Shards: 8})
	cached := run(cache)
	if len(plain) != 36 || len(cached) != 36 {
		t.Fatalf("consumed %d and %d episodes, want 36", len(plain), len(cached))
	}
	for i := range plain {
		if plain[i].Out.Cost != cached[i].Out.Cost || plain[i].Query.Name != cached[i].Query.Name {
			t.Fatalf("episode %d differs with cache enabled: (%v,%s) vs (%v,%s)",
				i, plain[i].Out.Cost, plain[i].Query.Name, cached[i].Out.Cost, cached[i].Query.Name)
		}
		if plain[i].Out.Plan.Signature() != cached[i].Out.Plan.Signature() {
			t.Fatalf("episode %d plan differs with cache enabled", i)
		}
	}
	if st := cache.Stats(); st.Hits+st.Misses+st.Puts != 0 {
		t.Fatalf("training completions touched the plan cache: %+v", st)
	}
}

// seamExec is a test executor with the two properties that make deferred
// execution hard to get right: order-dependent state consulted when an
// execution is prepared (every `every`-th one is inflated ×5, like the
// engine's fault seam) and a run that takes a random, schedule-perturbing
// while (slow; the sleeps come from their own RNG). gate, when set, holds
// every run until it is closed; started receives one value per run begun.
type seamExec struct {
	inner Executor
	every int
	slow  bool

	mu  sync.Mutex
	n   int
	rng *rand.Rand

	gate    chan struct{}
	started chan struct{}
}

func (x *seamExec) Execute(q *query.Query, n plan.Node, budgetMs float64) (float64, bool) {
	return x.Prepare(q, n, budgetMs)()
}

func (x *seamExec) Prepare(q *query.Query, n plan.Node, budgetMs float64) func() (float64, bool) {
	x.mu.Lock()
	x.n++
	factor := 1.0
	if x.every > 0 && x.n%x.every == 0 {
		factor = 5
	}
	var nap time.Duration
	if x.slow {
		nap = time.Duration(x.rng.Intn(400)) * time.Microsecond
	}
	x.mu.Unlock()
	return func() (float64, bool) {
		if x.started != nil {
			x.started <- struct{}{}
		}
		if x.gate != nil {
			<-x.gate
		}
		time.Sleep(nap)
		lat, timedOut := x.inner.Execute(q, n, budgetMs)
		return lat * factor, timedOut
	}
}

// inlineTrain is TrainAsyncCtx without the deferral: plain replicas that
// execute and reward every episode inside Step, driven by rl.TrainAsyncCtx —
// which its own differential test ties to the sequential specification. It
// is the reference the deferred pipeline must equal.
func inlineTrain(base *Env, agent *rl.Reinforce, episodes int, cfg rl.AsyncConfig) []EpisodeRecord {
	cfg.MaxSteps = base.maxSteps()
	cfg.Seed = base.Cfg.Seed + 1
	replicas := make([]*Env, cfg.Actors)
	envs := make([]rl.Env, cfg.Actors)
	for w := range replicas {
		replicas[w] = base.Replica(w, cfg.Actors)
		envs[w] = replicas[w]
	}
	var recs []EpisodeRecord
	rl.TrainAsyncCtx(context.Background(), agent, envs, episodes, cfg,
		func(w, _ int, traj rl.Trajectory) (any, *rl.Deferred) {
			return EpisodeRecord{Query: replicas[w].Current(), Traj: traj, Out: replicas[w].Last}, nil
		},
		func(e rl.AsyncEpisode) { recs = append(recs, e.Out.(EpisodeRecord)) })
	return recs
}

// TestTrainAsyncMatchesSpecUnderSlowExecutions: executions that finish late
// and out of order, on other goroutines, change nothing. Every episode
// reaches onEpisode in ticket order with its latency filled and its reward
// in the trajectory, equal to the inline reference's; the final policy is
// the reference's bit for bit; the execution counters fold. With one actor
// the executor's prepare-time seam is armed too: its counter must advance in
// ticket order although the runs do not finish in it.
func TestTrainAsyncMatchesSpecUnderSlowExecutions(t *testing.T) {
	const episodes = 45
	f := fixture(t, 3, 3, 4)
	for _, actors := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("A%d", actors), func(t *testing.T) {
			every := 0
			if actors == 1 {
				every = 3
			}
			run := func(deferred bool) ([]EpisodeRecord, []uint64, *Env) {
				env := f.env(StagePrefix(2), LatencyReward, true)
				env.Cfg.Latency = &seamExec{inner: f.lat, every: every, slow: deferred,
					rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
				agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 5})
				cfg := rl.AsyncConfig{Actors: actors, Staleness: 1}
				var recs []EpisodeRecord
				if deferred {
					TrainAsyncCtx(context.Background(), env, agent, episodes, cfg, func(i int, rec EpisodeRecord) {
						if i != len(recs) {
							t.Errorf("episode index %d, want %d", i, len(recs))
						}
						recs = append(recs, rec)
					})
				} else {
					recs = inlineTrain(env, agent, episodes, cfg)
				}
				return recs, policyBits(agent), env
			}
			want, wantPolicy, _ := run(false)
			got, gotPolicy, env := run(true)
			if len(got) != episodes || len(want) != episodes {
				t.Fatalf("%d episodes observed, reference %d, want %d", len(got), len(want), episodes)
			}
			for i := range want {
				g, w := got[i], want[i]
				if math.IsNaN(g.Out.LatencyMs) {
					t.Fatalf("ticket %d reached onEpisode without a latency", i)
				}
				last := len(g.Traj.Steps) - 1
				if g.Query != w.Query || g.Out.Cost != w.Out.Cost || g.Out.LatencyMs != w.Out.LatencyMs ||
					g.Out.TimedOut != w.Out.TimedOut || g.Traj.Return != w.Traj.Return ||
					g.Traj.Return != LatencyReward(g.Out) || g.Traj.Steps[last].Reward != g.Traj.Return {
					t.Fatalf("ticket %d: query %p cost %v latency %v return %v; reference query %p cost %v latency %v return %v",
						i, g.Query, g.Out.Cost, g.Out.LatencyMs, g.Traj.Return, w.Query, w.Out.Cost, w.Out.LatencyMs, w.Traj.Return)
				}
			}
			if !slices.Equal(gotPolicy, wantPolicy) {
				t.Fatal("final policy bits differ from the inline reference's")
			}
			if env.Executions != episodes {
				t.Fatalf("base env folded %d executions, want %d", env.Executions, episodes)
			}
		})
	}
}

// TestTrainAsyncCtxCancelWhileExecutionInFlight: the learner is waiting for
// ticket 0's execution, which is stuck in the engine, when ctx is cancelled.
// The learner must stop waiting at once (nothing is consumed or counted);
// the call returns as soon as the runs already started have finished, and
// leaves no goroutine behind.
func TestTrainAsyncCtxCancelWhileExecutionInFlight(t *testing.T) {
	f := fixture(t, 3, 3, 3)
	baseline := runtime.NumGoroutine()
	env := f.env(StagePrefix(1), LatencyReward, true)
	exec := &seamExec{inner: f.lat, gate: make(chan struct{}), started: make(chan struct{}, 1024)}
	env.Cfg.Latency = exec
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, BatchSize: 8, Seed: 6})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan rl.AsyncStats, 1)
	go func() { done <- TrainAsyncCtx(ctx, env, agent, 1000, rl.AsyncConfig{Actors: 2, Staleness: 2}, nil) }()
	<-exec.started
	cancel()
	time.Sleep(2 * time.Millisecond)
	close(exec.gate)
	select {
	case stats := <-done:
		if stats.Episodes != 0 || env.Executions != 0 || agent.Pending() != 0 {
			t.Fatalf("consumed %d episodes, counted %d executions, %d pending; want none", stats.Episodes, env.Executions, agent.Pending())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TrainAsyncCtx did not return after cancellation with an execution in flight")
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines left, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
