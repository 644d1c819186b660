package rl

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func banditEnvs(n int, arms int, seed int64) []Env {
	envs := make([]Env, n)
	for w := range envs {
		envs[w] = &banditEnv{rng: rand.New(rand.NewSource(seed + int64(w))), arms: arms}
	}
	return envs
}

// pacedEnv adds a fixed per-step delay to an environment, so stress tests
// get genuine actor overlap instead of one fast actor draining the whole
// episode budget before the others are scheduled.
type pacedEnv struct {
	Env
	delay time.Duration
}

func (e *pacedEnv) Step(a int) (State, float64, bool) {
	time.Sleep(e.delay)
	return e.Env.Step(a)
}

func pacedEnvs(n, arms int, seed int64, delay time.Duration) []Env {
	envs := banditEnvs(n, arms, seed)
	for w := range envs {
		envs[w] = &pacedEnv{Env: envs[w], delay: delay}
	}
	return envs
}

// greedyAccuracy scores the greedy policy on fresh contexts.
func greedyAccuracy(agent *Reinforce, arms int, trials int) int {
	env := &banditEnv{rng: rand.New(rand.NewSource(99)), arms: arms}
	correct := 0
	for i := 0; i < trials; i++ {
		s := env.Reset()
		if agent.Greedy(s) == env.ctx {
			correct++
		}
	}
	return correct
}

// TestTrainAsyncConvergesLikeSync: asynchronous actor-learner training must
// reach the synchronous path's final reward within tolerance. The sequential
// reference on this task reaches ≥90/100 greedy accuracy
// (TestReinforceLearnsContextualBandit); bounded-staleness off-policy
// collection is allowed a small concession.
func TestTrainAsyncConvergesLikeSync(t *testing.T) {
	const arms = 4
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 1})
	stats := TrainAsyncCtx(context.Background(), agent, banditEnvs(4, arms, 42), 2000, AsyncConfig{
		Actors: 4, Staleness: 4, Seed: 7,
	}, nil, nil)
	if stats.Episodes != 2000 {
		t.Fatalf("collected %d episodes, want 2000", stats.Episodes)
	}
	if stats.Updates == 0 || stats.Publishes == 0 {
		t.Fatalf("learner never updated/published: %+v", stats)
	}
	if correct := greedyAccuracy(agent, arms, 100); correct < 85 {
		t.Fatalf("async greedy policy correct on %d/100 contexts, want ≥ 85 (sync reference: ≥ 90)", correct)
	}
}

// TestTrainAsyncStalenessBound is the stress + property test for the async
// path: 8 actors against a learner publishing a fresh snapshot after every
// episode (BatchSize 1), ≥200 publishes, staleness bound K=2. Run with
// -race this exercises the lock-free snapshot exchange under real
// contention; the property asserted is that NO actor ever collected an
// episode against a snapshot more than K versions behind the server at
// episode start, and that each actor's snapshot versions are monotone.
func TestTrainAsyncStalenessBound(t *testing.T) {
	const arms, episodes, K = 3, 300, 2
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 1, Seed: 2})
	type actorTrace struct {
		lastSeq     int
		lastVersion uint64
	}
	traces := make(map[int]*actorTrace)
	seen := 0
	stats := TrainAsyncCtx(context.Background(), agent, pacedEnvs(8, arms, 11, 100*time.Microsecond), episodes, AsyncConfig{
		Actors: 8, Staleness: K, Seed: 13,
	}, nil, func(e AsyncEpisode) {
		seen++
		if e.Lag > K {
			t.Errorf("worker %d episode %d acted on staleness %d > K=%d", e.Worker, e.Seq, e.Lag, K)
		}
		tr := traces[e.Worker]
		if tr == nil {
			tr = &actorTrace{lastSeq: -1}
			traces[e.Worker] = tr
		}
		// Channel sends from one worker arrive in seq order, and snapshot
		// versions can only move forward.
		if e.Seq != tr.lastSeq+1 {
			t.Errorf("worker %d: episode seq %d after %d", e.Worker, e.Seq, tr.lastSeq)
		}
		if e.Version < tr.lastVersion {
			t.Errorf("worker %d: snapshot version went backwards (%d after %d)", e.Worker, e.Version, tr.lastVersion)
		}
		tr.lastSeq, tr.lastVersion = e.Seq, e.Version
	})
	if seen != episodes {
		t.Fatalf("onEpisode saw %d episodes, want %d", seen, episodes)
	}
	if stats.MaxLag > K {
		t.Fatalf("MaxLag %d exceeds staleness bound %d", stats.MaxLag, K)
	}
	if stats.Publishes < 200 {
		t.Fatalf("stress run published %d snapshots, want ≥ 200", stats.Publishes)
	}
	if stats.Updates != episodes {
		t.Fatalf("updates = %d, want one per episode with BatchSize 1", stats.Updates)
	}
	if len(traces) < 2 {
		t.Fatalf("only %d actors delivered episodes", len(traces))
	}
}

// gatedEnv blocks every Step until the gate is closed: an actor that cannot
// finish its episode, for as long as the test says.
type gatedEnv struct {
	Env
	gate <-chan struct{}
}

func (e *gatedEnv) Step(a int) (State, float64, bool) {
	<-e.gate
	return e.Env.Step(a)
}

// TestTrainAsyncSlowActorStallsOthersWithinRunAhead: tickets are dealt
// round-robin and consumed in order, so one slow actor holds the learner —
// and, through the staleness rule, the other actors — back; that is the
// price of a repeatable result, and the run-ahead bound says how far the
// others still get. With actor 0 stuck on ticket 0 (K = 1, batch 4: bound
// (K+1)·4 = 8 tickets), actors 1–3 collect exactly their tickets below 8
// (1 2 3 5 6 7) and then wait for a version the learner cannot publish yet;
// once actor 0 moves, the run completes.
func TestTrainAsyncSlowActorStallsOthersWithinRunAhead(t *testing.T) {
	const arms, actors, episodes, K, batch = 3, 4, 64, 1, 4
	gate := make(chan struct{})
	envs := banditEnvs(actors, arms, 51)
	envs[0] = &gatedEnv{Env: envs[0], gate: gate}
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: batch, Seed: 7})
	var ahead atomic.Int64
	collected := make(chan struct{}, episodes)
	done := make(chan AsyncStats, 1)
	go func() {
		done <- TrainAsyncCtx(context.Background(), agent, envs, episodes, AsyncConfig{Actors: actors, Staleness: K, Seed: 9},
			func(w, _ int, _ Trajectory) (any, *Deferred) {
				if w != 0 {
					ahead.Add(1)
					collected <- struct{}{}
				}
				return nil, nil
			}, nil)
	}()
	const want = (K+1)*batch - (K+1)*batch/actors // tickets below the bound that are not actor 0's
	for i := 0; i < want; i++ {
		<-collected
	}
	time.Sleep(20 * time.Millisecond) // anything past the bound would be collected by now
	if got := ahead.Load(); got != want {
		t.Fatalf("actors 1–3 collected %d episodes while actor 0 was stuck, want exactly %d (run-ahead bound %d tickets)", got, want, (K+1)*batch)
	}
	close(gate)
	if stats := <-done; stats.Episodes != episodes || stats.MaxLag > K {
		t.Fatalf("after the slow actor moved: %+v, want %d episodes within lag %d", stats, episodes, K)
	}
}

// TestTrainAsyncCtxCancellationDrainsActors: cancelling the context mid-run
// must stop the learner early (Episodes < budget), unblock every actor —
// including actors blocked on the bounded queue — and return without
// deadlock. The paced envs keep actors mid-episode when the cancel lands.
func TestTrainAsyncCtxCancellationDrainsActors(t *testing.T) {
	const arms = 3
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 8, Seed: 5})
	envs := pacedEnvs(4, arms, 31, 200*time.Microsecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan AsyncStats, 1)
	go func() {
		done <- TrainAsyncCtx(ctx, agent, envs, 1_000_000, AsyncConfig{
			Actors: 4, Staleness: 2, Seed: 11,
		}, nil, nil)
	}()
	select {
	case stats := <-done:
		if stats.Episodes >= 1_000_000 {
			t.Fatalf("cancelled run consumed the whole budget (%d episodes)", stats.Episodes)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("TrainAsyncCtx deadlocked after cancellation")
	}
}

// TestTrainAsyncCtxCompletesNormally: with a background context
// TrainAsyncCtx consumes the full budget.
func TestTrainAsyncCtxCompletesNormally(t *testing.T) {
	const arms = 3
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 8, Seed: 6})
	stats := TrainAsyncCtx(context.Background(), agent, banditEnvs(2, arms, 77), 64, AsyncConfig{
		Actors: 2, Staleness: 2, Seed: 13,
	}, nil, nil)
	if stats.Episodes != 64 {
		t.Fatalf("consumed %d episodes, want 64", stats.Episodes)
	}
}
