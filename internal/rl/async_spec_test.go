package rl

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
)

// specTrainAsync is the specification TrainAsyncCtx must equal bit for bit: a
// plain loop over tickets, no goroutines. Ticket i belongs to actor i mod A;
// the actor keeps its cached snapshot while the learner — which here really
// has consumed every earlier ticket — is at most K versions past it, and
// otherwise takes the learner's current version.
func specTrainAsync(learner *Reinforce, envs []Env, episodes int, cfg AsyncConfig,
	after func(worker, seq int, traj Trajectory) (any, *Deferred),
	onEpisode func(e AsyncEpisode)) AsyncStats {
	cfg.fill()
	type actor struct {
		rng     *rand.Rand
		logits  nn.Mat
		version uint64
		policy  *nn.PackedNetwork
	}
	actors := make([]actor, len(envs))
	for w := range actors {
		actors[w].rng = rand.New(rand.NewSource(cfg.Seed + 1000*int64(w+1)))
	}
	var stats AsyncStats
	latest := learner.Policy.CloneForInference().Pack()
	for i := 0; i < episodes; i++ {
		w := i % len(envs)
		a := &actors[w]
		if a.policy == nil || stats.Publishes-a.version > uint64(cfg.Staleness) {
			if a.policy != nil {
				stats.Refetches++
			}
			a.version, a.policy = stats.Publishes, latest
		}
		lag := stats.Publishes - a.version
		stats.MaxLag = max(stats.MaxLag, lag)
		traj := RunEpisode(envs[w], func(s State) int {
			a.policy.InferVec(s.Features, &a.logits)
			return sampleFrom(nn.MaskedSoftmax(a.logits.Data, s.Mask), a.rng)
		}, cfg.MaxSteps)
		e := AsyncEpisode{Traj: traj, Worker: w, Seq: i / len(envs), Version: a.version, Lag: lag}
		if after != nil {
			var late *Deferred
			if e.Out, late = after(w, e.Seq, traj); late != nil {
				r := late.Reward()
				e.Traj.Steps[len(e.Traj.Steps)-1].Reward += r
				e.Traj.Return += r
			}
		}
		stats.Episodes++
		if learner.Observe(e.Traj) {
			stats.Updates++
			stats.Publishes++
			latest = learner.Policy.CloneForInference().Pack()
		}
		if onEpisode != nil {
			onEpisode(e)
		}
	}
	return stats
}

// jitterEnv sleeps a random while before every step. The sleeps come from
// its own RNG, so they perturb the schedule and leave the episode stream
// alone.
type jitterEnv struct {
	Env
	rng *rand.Rand
}

func (e *jitterEnv) Step(a int) (State, float64, bool) {
	time.Sleep(time.Duration(e.rng.Intn(80)) * time.Microsecond)
	return e.Env.Step(a)
}

// ticketTrace is everything observable about one consumed episode.
type ticketTrace struct {
	worker, seq  int
	version, lag uint64
	actions      []int
	rewards      []float64
	ret          float64
}

// specRun trains a fresh learner (primed with `pending` episodes toward its
// first batch) with train and returns the per-ticket trace, the stats, the
// final policy bytes and the trailing pending count. Every odd ticket's
// reward is deferred and comes from a counter, so it is right only if Reward
// is called once per episode in ticket order; with jitter the deferral also
// completes late, from another goroutine.
func specRun(t *testing.T, train func(*Reinforce, []Env, int, AsyncConfig, func(int, int, Trajectory) (any, *Deferred), func(AsyncEpisode)) AsyncStats,
	actors, k, pending, episodes int, jitter bool) ([]ticketTrace, AsyncStats, []byte, int) {
	const arms = 4
	learner := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 16, Seed: 3})
	prime := &banditEnv{rng: rand.New(rand.NewSource(17)), arms: arms}
	for i := 0; i < pending; i++ {
		learner.Observe(RunEpisode(prime, learner.Sample, 10))
	}
	envs := banditEnvs(actors, arms, 23)
	if jitter {
		for w := range envs {
			envs[w] = &jitterEnv{Env: envs[w], rng: rand.New(rand.NewSource(time.Now().UnixNano() + int64(w)))}
		}
	}
	if k == 0 {
		k = -1 // AsyncConfig spells a bound of 0 as a negative Staleness
	}
	calls := 0
	var trace []ticketTrace
	stats := train(learner, envs, episodes, AsyncConfig{Actors: actors, Staleness: k, Seed: 29},
		func(w, seq int, _ Trajectory) (any, *Deferred) {
			if (seq*actors+w)%2 == 0 {
				return nil, nil
			}
			d := &Deferred{Reward: func() float64 { calls++; return float64(calls) }}
			if jitter {
				done := make(chan struct{})
				d.Done = done
				go func() {
					time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
					close(done)
				}()
			}
			return nil, d
		},
		func(e AsyncEpisode) {
			tr := ticketTrace{worker: e.Worker, seq: e.Seq, version: e.Version, lag: e.Lag, ret: e.Traj.Return}
			for _, st := range e.Traj.Steps {
				tr.actions = append(tr.actions, st.Action)
				tr.rewards = append(tr.rewards, st.Reward)
			}
			trace = append(trace, tr)
		})
	policy, err := learner.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	return trace, stats, policy, learner.Pending()
}

// TestTrainAsyncMatchesSpec is the differential test: over actor counts,
// staleness bounds, pending partial batches and episode counts divisible by
// neither, the pipeline under a randomly perturbed schedule produces the
// specification loop's per-ticket snapshot versions, trajectories, stats and
// final policy, bit for bit.
func TestTrainAsyncMatchesSpec(t *testing.T) {
	pipeline := func(l *Reinforce, envs []Env, n int, cfg AsyncConfig, after func(int, int, Trajectory) (any, *Deferred), on func(AsyncEpisode)) AsyncStats {
		return TrainAsyncCtx(context.Background(), l, envs, n, cfg, after, on)
	}
	for _, actors := range []int{1, 2, 3, 8} {
		for _, k := range []int{0, 1, 4} {
			for _, pending := range []int{0, 12} {
				for _, episodes := range []int{37, 131} {
					name := fmt.Sprintf("A%d_K%d_pending%d_N%d", actors, k, pending, episodes)
					t.Run(name, func(t *testing.T) {
						wantTrace, wantStats, wantPolicy, wantPending := specRun(t, specTrainAsync, actors, k, pending, episodes, false)
						gotTrace, gotStats, gotPolicy, gotPending := specRun(t, pipeline, actors, k, pending, episodes, true)
						if gotStats != wantStats {
							t.Fatalf("stats %+v, specification %+v", gotStats, wantStats)
						}
						if len(gotTrace) != len(wantTrace) {
							t.Fatalf("%d episodes observed, specification %d", len(gotTrace), len(wantTrace))
						}
						for i := range wantTrace {
							if fmt.Sprint(gotTrace[i]) != fmt.Sprint(wantTrace[i]) {
								t.Fatalf("ticket %d: %+v, specification %+v", i, gotTrace[i], wantTrace[i])
							}
						}
						if !bytes.Equal(gotPolicy, wantPolicy) {
							t.Fatal("final policy bytes differ from the specification's")
						}
						if gotPending != wantPending {
							t.Fatalf("pending batch %d, specification %d", gotPending, wantPending)
						}
						if wantStats.MaxLag > uint64(k) {
							t.Fatalf("specification itself exceeded the bound: MaxLag %d > K %d", wantStats.MaxLag, k)
						}
					})
				}
			}
		}
	}
}

// settled waits for goroutines that have finished their work but not yet
// exited, then reports whether the count is back at the baseline.
func settled(baseline int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestTrainAsyncCtxCancelAtRefetchPoint: the learner is held inside its
// callback on ticket 0, so the one actor collects up to its run-ahead bound
// (K = 0, batch 4: tickets 0–3) and then waits for version 1, which cannot
// come. Cancelling must release that wait: the call returns, no goroutine is
// left, and the partial batch is intact.
func TestTrainAsyncCtxCancelAtRefetchPoint(t *testing.T) {
	const arms, batch, pending = 3, 4, 1
	baseline := runtime.NumGoroutine()
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: batch, Seed: 5})
	agent.Observe(RunEpisode(banditEnvs(1, arms, 3)[0], agent.Sample, 10))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collected := make(chan int, 1000) // never blocks the actor
	hold := make(chan struct{})
	done := make(chan AsyncStats, 1)
	go func() {
		done <- TrainAsyncCtx(ctx, agent, banditEnvs(1, arms, 31), 1000, AsyncConfig{Actors: 1, Staleness: -1, Seed: 11},
			func(_, seq int, _ Trajectory) (any, *Deferred) { collected <- seq; return nil, nil },
			func(e AsyncEpisode) {
				if e.Seq == 0 {
					<-hold
				}
			})
	}()
	// pending 1 of 4: tickets 0–2 fill the batch, so ticket 3 needs version 1.
	for seq := range collected {
		if seq == batch-pending-1 {
			break
		}
	}
	time.Sleep(5 * time.Millisecond) // let the actor reach the wait
	select {
	case seq := <-collected:
		t.Fatalf("actor collected ticket %d past its refetch point", seq)
	default:
	}
	cancel()
	close(hold)
	select {
	case stats := <-done:
		if stats.Episodes < 1 || stats.Episodes == 1000 {
			t.Fatalf("consumed %d episodes, want at least the held one and not the whole budget", stats.Episodes)
		}
		if want := (pending + stats.Episodes) % batch; agent.Pending() != want {
			t.Fatalf("pending batch %d after %d episodes, want %d", agent.Pending(), stats.Episodes, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TrainAsyncCtx did not return after cancellation at a refetch point")
	}
	if !settled(baseline) {
		t.Fatalf("%d goroutines left, baseline %d", runtime.NumGoroutine(), baseline)
	}
}

// TestTrainAsyncCtxCancelDuringDeferredReward: the learner reaches ticket 0
// while its deferred evaluation is still in flight (it never finishes).
// Cancelling must release the learner: the call returns with nothing
// consumed, no goroutine left and the partial batch untouched.
func TestTrainAsyncCtxCancelDuringDeferredReward(t *testing.T) {
	const arms, pending = 3, 2
	baseline := runtime.NumGoroutine()
	agent := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 8, Seed: 6})
	prime := banditEnvs(1, arms, 4)[0]
	for i := 0; i < pending; i++ {
		agent.Observe(RunEpisode(prime, agent.Sample, 10))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	never := make(chan struct{})
	started := make(chan struct{}, 1)
	done := make(chan AsyncStats, 1)
	go func() {
		done <- TrainAsyncCtx(ctx, agent, banditEnvs(2, arms, 41), 1000, AsyncConfig{Actors: 2, Staleness: 2, Seed: 13},
			func(w, seq int, _ Trajectory) (any, *Deferred) {
				if w == 0 && seq == 0 {
					started <- struct{}{}
				}
				return nil, &Deferred{Done: never, Reward: func() float64 {
					t.Error("Reward called for an evaluation that never finished")
					return 0
				}}
			}, nil)
	}()
	<-started
	time.Sleep(2 * time.Millisecond) // let the learner reach the wait
	cancel()
	select {
	case stats := <-done:
		if stats.Episodes != 0 || stats.Updates != 0 {
			t.Fatalf("stats %+v, want nothing consumed", stats)
		}
		if agent.Pending() != pending {
			t.Fatalf("pending batch %d, want the %d it started with", agent.Pending(), pending)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TrainAsyncCtx did not return while the learner waited on a deferred reward")
	}
	if !settled(baseline) {
		t.Fatalf("%d goroutines left, baseline %d", runtime.NumGoroutine(), baseline)
	}
}

// TestTrainAsyncSharedServer: training in chunks on a shared server — a
// tenant's one server, whose versions the serving path reads — is the
// private-server run, ticket for ticket and bit for bit, with every snapshot
// version offset by the version the chunk started from. At each chunk's end
// the server's latest snapshot holds exactly the learner's policy (every
// update published), which is what lets a caller evaluate that snapshot's
// pack instead of packing the learner afresh; Publishes counts the chunk's
// own publishes.
func TestTrainAsyncSharedServer(t *testing.T) {
	const arms = 4
	chunks := []int{37, 64, 131}
	for _, actors := range []int{1, 2} {
		t.Run(fmt.Sprintf("A%d", actors), func(t *testing.T) {
			run := func(shared *paramserver.Server) ([][]ticketTrace, []AsyncStats, *Reinforce) {
				learner := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 16, Seed: 3})
				prime := &banditEnv{rng: rand.New(rand.NewSource(17)), arms: arms}
				for i := 0; i < 12; i++ {
					learner.Observe(RunEpisode(prime, learner.Sample, 10))
				}
				if shared != nil {
					shared.Publish(learner.Policy, learner.Updates)
				}
				envs := banditEnvs(actors, arms, 23)
				var traces [][]ticketTrace
				var stats []AsyncStats
				for c, n := range chunks {
					var trace []ticketTrace
					base := uint64(0)
					if shared != nil {
						base = shared.Version()
					}
					st := TrainAsyncCtx(context.Background(), learner, envs, n,
						AsyncConfig{Actors: actors, Seed: 29 + int64(c), Server: shared}, nil,
						func(e AsyncEpisode) {
							tr := ticketTrace{worker: e.Worker, seq: e.Seq, version: e.Version - base, lag: e.Lag, ret: e.Traj.Return}
							for _, s := range e.Traj.Steps {
								tr.actions = append(tr.actions, s.Action)
							}
							trace = append(trace, tr)
						})
					if shared != nil {
						if got := shared.Version() - base; got != st.Publishes {
							t.Fatalf("chunk %d: the server moved %d versions, the run reports %d publishes", c, got, st.Publishes)
						}
						snap := shared.Acquire()
						got, err := snap.Net.MarshalBinary()
						snap.Release()
						if err != nil {
							t.Fatal(err)
						}
						if want, err := learner.Policy.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
							t.Fatalf("chunk %d: the latest snapshot is not the learner's policy (err %v)", c, err)
						}
					}
					traces = append(traces, trace)
					stats = append(stats, st)
				}
				return traces, stats, learner
			}
			wantTraces, wantStats, want := run(nil)
			gotTraces, gotStats, got := run(paramserver.New(nil))
			for c := range chunks {
				if gotStats[c] != wantStats[c] {
					t.Fatalf("chunk %d: stats %+v, private server %+v", c, gotStats[c], wantStats[c])
				}
				if fmt.Sprint(gotTraces[c]) != fmt.Sprint(wantTraces[c]) {
					t.Fatalf("chunk %d: the shared-server trace differs from the private server's", c)
				}
			}
			gp, err1 := got.MarshalPolicy()
			wp, err2 := want.MarshalPolicy()
			if err1 != nil || err2 != nil || !bytes.Equal(gp, wp) {
				t.Fatalf("final policies differ (errors %v, %v)", err1, err2)
			}
		})
	}
}

// TestTrainAsyncSharedServerMustHoldThePolicy: a shared server whose latest
// snapshot is not the learner's (another update count, or no network at all)
// is refused before any actor starts, since versions would no longer match
// the specification's.
func TestTrainAsyncSharedServerMustHoldThePolicy(t *testing.T) {
	const arms = 4
	learner := NewReinforce(arms, arms, ReinforceConfig{Hidden: []int{8}, BatchSize: 4, Seed: 3})
	stale := paramserver.New(nil)
	stale.Publish(learner.Policy, learner.Updates+1)
	for name, srv := range map[string]*paramserver.Server{"empty": paramserver.New(nil), "stale": stale} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("TrainAsyncCtx accepted a server that does not hold the learner's policy")
				}
			}()
			TrainAsyncCtx(context.Background(), learner, banditEnvs(1, arms, 1), 8, AsyncConfig{Server: srv}, nil, nil)
		})
	}
}

// TestSamplerAllocatesNothing: once its buffers have grown, an actor's
// sampling step — packed inference, masked softmax, draw — allocates
// nothing.
func TestSamplerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	net := nn.NewMLP(rand.New(rand.NewSource(1)), 6, 16, 5)
	smp := &sampler{packed: net.Pack(), rng: rand.New(rand.NewSource(2))}
	st := State{Features: []float64{1, 0, 0.5, 0, 2, 0}, Mask: []bool{true, false, true, true, false}}
	smp.choose(st)
	if allocs := testing.AllocsPerRun(100, func() { smp.choose(st) }); allocs != 0 {
		t.Fatalf("a sampling step allocated %.0f times", allocs)
	}
}
