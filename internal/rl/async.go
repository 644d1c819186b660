package rl

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
)

// This file implements the actor-learner training split as a specification
// and a schedule of it.
//
// The specification is a sequential loop over tickets i = 0 … N−1:
//
//	actor i mod A collects episode i under snapshot v(i);
//	the learner observes it (and publishes if that completed a batch).
//
// v(i) is the staleness rule evaluated as if the learner had already
// consumed every ticket before i: with P(i) the number of publishes tickets
// 0 … i−1 cause (a pure function of i, the batch size and the learner's
// pending partial batch), the actor keeps its cached snapshot while
// P(i) − cached ≤ K and otherwise takes version P(i) itself. No clock and no
// queue depth enters v(i), so every sampled action, every update and the
// final policy are the same on every run, for any actor count.
//
// TrainAsyncCtx runs that loop as a pipeline and is bit-equal to it
// (async_spec_test.go holds the loop and the differential test). Each actor
// draws its own tickets (w, w+A, …) into its own FIFO; the learner consumes
// the FIFOs round-robin, i.e. strictly in ticket order. An actor runs ahead
// of the learner until the next ticket whose snapshot is not yet published —
// at most (K+1)·BatchSize tickets — so collecting overlaps updating instead
// of alternating with it. An episode whose terminal reward is still being
// evaluated when its rollout ends (a plan executing on another core) travels
// as a Deferred; the learner waits for it only when it reaches that ticket.

// AsyncConfig configures TrainAsyncCtx.
type AsyncConfig struct {
	// Actors is the number of concurrent actor goroutines (and environment
	// replicas) the planspace driver builds; default
	// runtime.GOMAXPROCS(0). TrainAsyncCtx itself runs one actor per
	// environment it is handed.
	Actors int
	// Staleness is K, the maximum number of snapshot versions an actor's
	// policy may lag the version the sequential specification holds at its
	// ticket; an actor lagging more takes exactly that version before
	// collecting. 0 selects the default of 4; negative means 0 (every episode
	// is collected under the newest policy, so collection and learning
	// alternate).
	Staleness int
	// MaxSteps bounds episode length (default 128).
	MaxSteps int
	// Seed derives the per-actor action-sampling RNG streams.
	Seed int64
	// Server, when non-nil, is the parameter server the run publishes to and
	// its actors read from: a tenant's one server, which its serving path
	// reads too, so each version is packed once for both. Its current
	// snapshot must be the learner's policy as it stands — published after the
	// learner's last update — and the run's versions continue from it. Nil
	// gives the run a private server whose version 0 is a copy of the policy.
	Server *paramserver.Server
}

func (c *AsyncConfig) fill() {
	if c.Staleness == 0 {
		c.Staleness = 4
	}
	if c.Staleness < 0 {
		c.Staleness = 0
	}
	if c.MaxSteps < 1 {
		c.MaxSteps = 128
	}
}

// Deferred is a terminal reward still being evaluated when the rollout that
// earned it ended. The learner waits for Done (nil means ready) when it
// reaches the episode's ticket and then calls Reward, on its own goroutine,
// once per episode and in ticket order — so Reward may be stateful — and
// adds the result to the trajectory's last step and Return before observing
// it.
type Deferred struct {
	Done   <-chan struct{}
	Reward func() float64
}

// sampler is one actor's sampling step: packed inference into the actor's
// logits buffer, the masked softmax into its probabilities buffer and a draw
// from its RNG, so once the buffers have grown a step allocates nothing.
type sampler struct {
	packed *nn.PackedNetwork
	rng    *rand.Rand
	logits nn.Mat
	probs  []float64
}

func (s *sampler) choose(st State) int {
	s.packed.InferVec(st.Features, &s.logits)
	n := len(s.logits.Data)
	if cap(s.probs) < n {
		s.probs = make([]float64, n)
	}
	s.probs = s.probs[:n]
	nn.MaskedSoftmaxInto(s.probs, s.logits.Data, st.Mask)
	return sampleFrom(s.probs, s.rng)
}

// AsyncEpisode is one episode delivered from an actor to the learner.
type AsyncEpisode struct {
	Traj Trajectory
	// Worker is the actor that collected the episode; Seq is the actor's
	// own episode counter. The episode's ticket is Seq·A + Worker, and
	// episodes reach the learner in ticket order.
	Worker int
	Seq    int
	// Version is the snapshot version the episode was collected under.
	Version uint64
	// Lag is the episode's staleness: the version the sequential
	// specification holds at this ticket minus Version. Lag ≤ K.
	Lag uint64
	// Out is whatever the after hook returned for this episode (nil
	// without a hook) — the environment outcome captured worker-side.
	Out any

	late *Deferred
}

// AsyncStats summarizes one TrainAsyncCtx run. For a run that completes, every
// field is a pure function of the inputs.
type AsyncStats struct {
	// Episodes is the number of episodes consumed by the learner (== the
	// budget, unless a TrainAsyncCtx cancellation returned early).
	Episodes int
	// Updates is how many policy updates the learner applied.
	Updates int
	// Publishes is how many snapshots this run published (excluding the
	// snapshot it started from).
	Publishes uint64
	// MaxLag is the largest staleness any actor acted on (≤ K).
	MaxLag uint64
	// Refetches counts staleness-bound-forced snapshot refetches across
	// all actors.
	Refetches uint64
}

// TrainAsyncCtx trains learner with the actor-learner split: one actor
// goroutine per environment in envs, actor w collecting episodes w, w+A, …
// against the snapshot the staleness rule assigns each of them, with the
// learner (on the calling goroutine) consuming the episodes in ticket order,
// folding them into policy-batch updates via Observe, and publishing a copy
// of the policy after every update. The result — trajectories, updates,
// final policy — is the sequential specification's, bit for bit, whatever
// the scheduler does.
//
// Environments must be independent replicas: each is owned by exactly one
// actor goroutine. The optional after hook runs on the actor goroutine
// immediately after each rollout — the place to capture per-episode
// environment state (last plan, cost, outcome); it must touch only
// worker-local state. Its first result travels to the learner as
// AsyncEpisode.Out; a non-nil second result defers the episode's terminal
// reward (see Deferred). The optional onEpisode callback runs on the calling
// goroutine for every consumed episode, in ticket order.
//
// TrainAsyncCtx returns once exactly `episodes` episodes have been collected
// and consumed. A trailing partial policy batch stays pending inside the
// learner, exactly as in sequential training. When ctx is cancelled (or its
// deadline passes) the learner stops consuming — also while it waits for an
// actor or for a Deferred — the actors stop at their next ticket, refetch
// wait or delivery, and the call returns once every actor has exited, with
// AsyncStats.Episodes reporting how many episodes were actually consumed
// (less than the budget on cancellation). The learner's pending partial
// batch is preserved, exactly as on a normal return.
func TrainAsyncCtx(ctx context.Context, learner *Reinforce, envs []Env, episodes int, cfg AsyncConfig,
	after func(worker, seq int, traj Trajectory) (any, *Deferred),
	onEpisode func(e AsyncEpisode)) AsyncStats {
	cfg.fill()
	actors := len(envs)
	if actors == 0 {
		panic("rl: TrainAsyncCtx needs at least one environment")
	}
	if episodes <= 0 {
		return AsyncStats{}
	}

	srv := cfg.Server
	if srv == nil {
		srv = paramserver.New(learner.Policy.CloneForInference())
	} else if cur := srv.Latest(); cur.Net == nil || cur.Updates != learner.Updates {
		panic(fmt.Sprintf("rl: the shared server's version %d holds %d updates, the learner has made %d",
			cur.Version, cur.Updates, learner.Updates))
	}

	// published(i) is P(i): the version the server holds once tickets
	// 0 … i−1 are learned from — base plus the publishes they cause. The
	// first comes when the pending partial batch fills, then one per batch.
	base := srv.Version()
	batch := max(learner.Cfg.BatchSize, 1)
	first := max(batch-learner.Pending(), 1)
	published := func(i int) uint64 {
		if i < first {
			return base
		}
		return base + uint64(1+(i-first)/batch)
	}
	// An actor is never more than (K+1)·batch tickets ahead of the learner
	// (past that its next snapshot is unpublished), so FIFOs that together
	// hold that many never block a send: the rule is the only backpressure.
	runAhead := min((cfg.Staleness+1)*batch, episodes)
	fifoCap := (runAhead+actors-1)/actors + 1

	// actx stops the actors: on ctx, and when the learner is done.
	actx, stop := context.WithCancel(ctx)
	defer stop()
	fifos := make([]chan AsyncEpisode, actors)
	clients := make([]*paramserver.Client, actors)
	var wg sync.WaitGroup
	for w := range envs {
		fifos[w] = make(chan AsyncEpisode, fifoCap)
		clients[w] = srv.NewClient(cfg.Staleness)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer clients[w].Close()
			// Snapshots pack their weight panels once per version
			// (paramserver.Snapshot.Packed) and the actor's sampler reuses
			// its buffers, so the sampling hot path allocates nothing in
			// steady state.
			smp := &sampler{rng: rand.New(rand.NewSource(cfg.Seed + 1000*int64(w+1)))}
			choose := smp.choose
			for seq, i := 0, w; i < episodes; seq, i = seq+1, i+actors {
				snap, lag, err := clients[w].At(actx, published(i))
				if err != nil {
					return
				}
				smp.packed = snap.Packed()
				traj := RunEpisode(envs[w], choose, cfg.MaxSteps)
				e := AsyncEpisode{Traj: traj, Worker: w, Seq: seq, Version: snap.Version, Lag: lag}
				if after != nil {
					e.Out, e.late = after(w, seq, traj)
				}
				select {
				case fifos[w] <- e:
				case <-actx.Done():
					return
				}
			}
		}(w)
	}

	startUpdates := learner.Updates
	var stats AsyncStats
learn:
	for i := 0; i < episodes; i++ {
		var e AsyncEpisode
		select {
		case e = <-fifos[i%actors]:
		case <-ctx.Done():
			break learn
		}
		if d := e.late; d != nil {
			if d.Done != nil {
				select {
				case <-d.Done:
				case <-ctx.Done():
					break learn
				}
			}
			r := d.Reward()
			if n := len(e.Traj.Steps); n > 0 {
				e.Traj.Steps[n-1].Reward += r
			}
			e.Traj.Return += r
		}
		stats.Episodes++
		if learner.Observe(e.Traj) {
			srv.Publish(learner.Policy, learner.Updates)
			stats.Publishes++
		}
		if onEpisode != nil {
			onEpisode(e)
		}
	}
	stop()
	wg.Wait()

	stats.Updates = learner.Updates - startUpdates
	for _, c := range clients {
		stats.MaxLag = max(stats.MaxLag, c.MaxLag())
		stats.Refetches += c.Refetches()
	}
	return stats
}
