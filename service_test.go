package handsfree

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// testService builds a small service with a training workload attached.
func testService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := New(append([]Option{
		WithScale(0.05),
		WithWorkload(4, 4, 5, 3),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestServiceServesExpertBeforeTraining(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	if got := svc.Phase(); got != PhaseIdle {
		t.Fatalf("phase before training = %v, want idle", got)
	}
	for _, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceExpert {
			t.Fatalf("untrained service served source %v, want expert", res.Source)
		}
		if res.Plan == nil || res.Cost <= 0 || res.Cost != res.ExpertCost {
			t.Fatalf("bad expert decision: %+v", res)
		}
		if res.PolicyVersion != 0 {
			t.Fatalf("policy version %d before any publish", res.PolicyVersion)
		}
		if !math.IsNaN(res.LearnedCost) {
			t.Fatalf("learned cost %v without a learned rollout", res.LearnedCost)
		}
	}
	if _, err := svc.PlanSQL(ctx, `SELECT COUNT(*) FROM title t WHERE t.production_year > 50`); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(ctx, nil); err == nil {
		t.Fatal("nil query accepted")
	}
	st := svc.LifecycleStats()
	if st.ExpertServed == 0 || st.LearnedServed != 0 || st.Fallbacks != 0 {
		t.Fatalf("serving counters %+v", st)
	}
}

func TestServicePlanHonorsContext(t *testing.T) {
	svc := testService(t)
	q, err := svc.System().Workload.ByRelations(12, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Already-cancelled context: immediate error, no planning.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Plan(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Plan err = %v, want context.Canceled", err)
	}

	// A deadline that expires mid-search: the 12-relation DP sweep takes far
	// longer than 3ms, so the enumeration loop's per-subset check must cut
	// it off and surface context.DeadlineExceeded promptly.
	start := time.Now()
	ctx, cancel2 := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel2()
	_, err = svc.Plan(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Plan err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("Plan took %v to notice an expired 3ms deadline", elapsed)
	}

	// Without a deadline the same query plans fine.
	if res, err := svc.Plan(context.Background(), q); err != nil || res.Plan == nil {
		t.Fatalf("unbounded Plan: res=%+v err=%v", res, err)
	}
}

// publishRandomPolicy installs a serving layout and publishes an untrained
// (deliberately regressed) policy with matching dimensions — the safeguard's
// worst case, injected without depending on training stochasticity.
func publishRandomPolicy(t testing.TB, svc *Service, seed int64) *rl.Reinforce {
	return publishPolicySized(t, svc, seed, []int{16})
}

// publishPolicySized is publishRandomPolicy with the hidden layout exposed:
// the serving benchmarks publish production-sized policies so the inference
// path carries a realistic share of each Plan call.
func publishPolicySized(t testing.TB, svc *Service, seed int64, hidden []int) *rl.Reinforce {
	t.Helper()
	maxRels := 0
	for _, q := range svc.Queries() {
		if len(q.Relations) > maxRels {
			maxRels = len(q.Relations)
		}
	}
	space := featurize.NewSpace(maxRels, svc.sys.Est)
	sp := newServePool(svc, space, maxRels)
	svc.serve.Store(sp)
	learner := rl.NewReinforce(sp.obsDim, sp.actionDim, rl.ReinforceConfig{
		Hidden: hidden, Seed: seed,
	})
	svc.publish(learner)
	return learner
}

func TestServiceSafeguardNeverServesRegression(t *testing.T) {
	// FallbackRatio 1.0: the learned plan may only be served when it is at
	// least as cheap as the expert's. A random policy regresses on most
	// queries, so the guard must fire and every served cost must stay
	// bounded by the expert's.
	svc, err := New(WithScale(0.05), WithWorkload(4, 7, 8, 5), WithFallbackRatio(1.0))
	if err != nil {
		t.Fatal(err)
	}
	publishRandomPolicy(t, svc, 99)
	if v := svc.PolicyVersion(); v != 1 {
		t.Fatalf("policy version %d after one publish", v)
	}

	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for _, q := range svc.Queries() {
			res, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || res.Cost <= 0 {
				t.Fatalf("service served no plan: %+v", res)
			}
			// The safeguard invariant: never serve worse than ratio × expert.
			if res.Cost > svc.FallbackRatio()*res.ExpertCost*(1+1e-12) {
				t.Fatalf("served cost %.1f breaches %.2f× expert %.1f (source %v)",
					res.Cost, svc.FallbackRatio(), res.ExpertCost, res.Source)
			}
			if res.Source == SourceFallback && res.Cost != res.ExpertCost {
				t.Fatalf("fallback decision did not serve the expert plan: %+v", res)
			}
			if res.PolicyVersion != 1 {
				t.Fatalf("decision consulted version %d, want 1", res.PolicyVersion)
			}
		}
	}
	st := svc.LifecycleStats()
	if st.Fallbacks == 0 {
		t.Fatalf("random policy never triggered the regression guard: %+v", st)
	}
}

func TestServiceSafeguardDisabled(t *testing.T) {
	// Ratio ≤ 0 disables the guard: the learned plan is served regardless
	// of regression (when the rollout produces one).
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0))
	if err != nil {
		t.Fatal(err)
	}
	publishRandomPolicy(t, svc, 41)
	learned := 0
	for _, q := range svc.Queries() {
		res, err := svc.Plan(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source == SourceLearned {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("guard disabled but no learned plan was ever served")
	}
}

// quickLifecycle is a budget small enough for test runs while still passing
// through every phase.
func quickLifecycle() LifecycleConfig {
	return LifecycleConfig{
		Hidden:          []int{32},
		DemoSweeps:      1,
		CostEpisodes:    48,
		EvalEvery:       24,
		LatencyEpisodes: 16,
		Actors:          2,
		Seed:            7,
	}
}

// checkTransitions fails t unless every recorded transition is an edge of
// the learning state machine: a start (PhaseIdle, PhaseDone or PhaseStopped
// → PhaseDemonstration, with StartTraining's reason), a nextPhase edge, or a
// running phase stopping.
func checkTransitions(t *testing.T, trans []PhaseChange) {
	t.Helper()
	for i, tr := range trans {
		running := tr.From != PhaseIdle && tr.From != PhaseStopped
		next, ok := nextPhase[tr.From]
		switch {
		case tr.To == PhaseDemonstration && (tr.From == PhaseIdle || tr.From == PhaseDone || tr.From == PhaseStopped):
			if tr.Reason != "lifecycle started: observe the expert" {
				t.Fatalf("transition %d: lifecycle start %v→%v with reason %q", i, tr.From, tr.To, tr.Reason)
			}
		case ok && next == tr.To, running && tr.To == PhaseStopped:
		default:
			t.Fatalf("transition %d: %v→%v (%q) is not an edge of the state machine", i, tr.From, tr.To, tr.Reason)
		}
	}
}

// TestLifecyclePhaseTable walks nextPhase: every phase but PhaseStopped has
// exactly one successor, the first round reaches PhaseDone from PhaseIdle in
// four steps, and a drift re-entry leaves PhaseDone for PhaseDriftRetraining
// and rejoins the round at PhaseCostTraining.
func TestLifecyclePhaseTable(t *testing.T) {
	for p := PhaseIdle; p <= PhaseDriftRetraining; p++ {
		if next, ok := nextPhase[p]; ok == (p == PhaseStopped) {
			t.Fatalf("%v: successor %v (present %v)", p, next, ok)
		}
	}
	if len(nextPhase) != int(PhaseDriftRetraining) {
		t.Fatalf("nextPhase has %d rows, want one per phase but stopped", len(nextPhase))
	}
	p, steps := PhaseIdle, 0
	for ; p != PhaseDone && steps <= len(nextPhase); steps++ {
		p = nextPhase[p]
	}
	if p != PhaseDone || steps != 4 {
		t.Fatalf("the walk from idle reached %v in %d steps, want done in 4", p, steps)
	}
	if a, b := nextPhase[PhaseDone], nextPhase[nextPhase[PhaseDone]]; a != PhaseDriftRetraining || b != PhaseCostTraining {
		t.Fatalf("done → %v → %v, want drift-retraining → cost-training", a, b)
	}
}

func TestServiceLifecyclePhasesInOrder(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartTraining(ctx, quickLifecycle()); err == nil {
		t.Fatal("second StartTraining accepted while the first is running")
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.LifecycleStats()
	if st.Phase != PhaseDone {
		t.Fatalf("final phase %v, want done (%+v)", st.Phase, st)
	}
	checkTransitions(t, st.Transitions)
	want := []struct{ from, to LifecyclePhase }{
		{PhaseIdle, PhaseDemonstration},
		{PhaseDemonstration, PhaseCostTraining},
		{PhaseCostTraining, PhaseLatencyTuning},
		{PhaseLatencyTuning, PhaseDone},
	}
	if len(st.Transitions) != len(want) {
		t.Fatalf("transitions %+v, want %d of them", st.Transitions, len(want))
	}
	for i, w := range want {
		got := st.Transitions[i]
		if got.From != w.from || got.To != w.to || got.Reason == "" {
			t.Fatalf("transition %d = %+v, want %v→%v with a reason", i, got, w.from, w.to)
		}
	}
	if st.Demonstrations != len(svc.Queries()) {
		t.Fatalf("demonstrated %d queries, want %d", st.Demonstrations, len(svc.Queries()))
	}
	if st.CostEpisodes != 48 || st.LatencyEpisodes != 16 {
		t.Fatalf("episode accounting %+v", st)
	}
	if st.PolicyVersion == 0 {
		t.Fatal("lifecycle finished without publishing a policy")
	}
	// A trained service serves learned plans (bounded by the safeguard) for
	// its workload without error.
	for _, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.PolicyVersion == 0 {
			t.Fatalf("post-training decision consulted no policy: %+v", res)
		}
	}
}

// TestDemonstrationPublishesInitialPolicy: Demonstration demonstrates every
// workload query and publishes v1 before the learner has updated — 1 sweep ×
// 4 demonstrations is short of a batch of 16, so v1 is the initial policy,
// weight for weight — and the lifecycle takes exactly its four transitions.
func TestDemonstrationPublishesInitialPolicy(t *testing.T) {
	svc := testService(t)
	cfg := quickLifecycle()
	// The hook keeps v1 past its supersession, so it holds a reference:
	// otherwise v1's buffers would be recycled for a later version.
	var v1 *paramserver.Snapshot
	svc.policies.OnPublish = func(snap *paramserver.Snapshot) {
		if snap.Version == 1 && snap.Acquire() {
			v1 = snap
		}
	}
	ctx := context.Background()
	if err := svc.StartTraining(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.LifecycleStats()
	if st.Demonstrations != len(svc.Queries()) {
		t.Fatalf("demonstrated %d queries, want %d", st.Demonstrations, len(svc.Queries()))
	}
	if len(st.Transitions) != 4 {
		t.Fatalf("transitions %+v, want 4", st.Transitions)
	}
	want := fmt.Sprintf("policy v1 published after 0 learner updates, %d expert trajectories pending", len(svc.Queries()))
	if reason := st.Transitions[1].Reason; !strings.Contains(reason, want) {
		t.Fatalf("demonstration → cost-training reason %q does not say %q", reason, want)
	}
	if v1 == nil || v1.Updates != 0 {
		t.Fatalf("v1 = %+v, want a snapshot of 0 updates", v1)
	}
	defer v1.Release()
	initial := rl.NewReinforce(v1.Net.InDim(), v1.Net.OutDim(), rl.ReinforceConfig{Hidden: cfg.Hidden, Seed: cfg.Seed})
	if policyDigest(v1.Net) != policyDigest(initial.Policy) {
		t.Fatal("v1 is not the initial policy")
	}
}

// greedyRatioSequential is the reference greedyRatio must equal: one loop on
// one env, the learner's own Greedy (Forward), the expert planned per query.
func greedyRatioSequential(t *testing.T, svc *Service, env *planspace.Env, learner *rl.Reinforce) float64 {
	var logSum float64
	n := 0
	for _, q := range svc.Queries() {
		out, err := env.GreedyRollout(context.Background(), q, learner.Greedy)
		if err != nil || out.Plan == nil {
			continue
		}
		planned, err := svc.sys.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(out.Cost / planned.Cost)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(logSum / float64(n))
}

// TestGreedyRatioMatchesSequential: the greedy ratio fanned out over the
// cores equals the sequential loop bit for bit, at GOMAXPROCS 1 and 2, on
// untrained policies and on the policy a short lifecycle ends with — packed
// afresh, and as the lifecycle evaluates it: through the latest snapshot's
// own pack, the one training built into recycled panels.
func TestGreedyRatioMatchesSequential(t *testing.T) {
	svc := testService(t)
	queries := svc.Queries()
	expert := make([]float64, len(queries))
	for i, q := range queries {
		planned, err := svc.sys.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		expert[i] = planned.Cost
	}
	check := func(t *testing.T, learner *rl.Reinforce, packed *nn.PackedNetwork) {
		sp := svc.serve.Load()
		env := planspace.NewEnv(planspace.Config{
			Space:   sp.space,
			Planner: svc.sys.Planner,
			Latency: svc.observed,
			Queries: queries,
			Cache:   svc.sys.PlanCache,
		})
		want := greedyRatioSequential(t, svc, env, learner)
		if math.IsInf(want, 0) || math.IsNaN(want) {
			t.Fatalf("reference ratio %v: no query planned", want)
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got := greedyRatio(sp, packed, queries, expert)
			runtime.GOMAXPROCS(prev)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("GOMAXPROCS %d: greedy ratio %v, sequential loop %v", procs, got, want)
			}
		}
	}
	t.Run("untrained", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			learner := publishRandomPolicy(t, svc, seed)
			check(t, learner, learner.Policy.Pack())
		}
	})
	t.Run("trained", func(t *testing.T) {
		ctx := context.Background()
		if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
			t.Fatal(err)
		}
		if err := svc.WaitTraining(ctx); err != nil {
			t.Fatal(err)
		}
		snap := svc.policies.Acquire()
		defer snap.Release()
		learner := &rl.Reinforce{Policy: snap.Net.Clone()}
		check(t, learner, learner.Policy.Pack())
		check(t, learner, snap.Packed())
	})
}

// policyDigest is a network's identity for bit-for-bit comparisons: the
// sha256 of its input and output widths and every parameter's bits.
func policyDigest(net *nn.Network) [sha256.Size]byte {
	buf := binary.LittleEndian.AppendUint64(nil, uint64(net.InDim()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(net.OutDim()))
	for _, w := range net.FlattenParams() {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
	}
	return sha256.Sum256(buf)
}

// TestBenchmarkLifecycleRepeatable runs the lifecycle bench/ measures
// (bench/setup.go: scale 0.05, workload 6×4–6 seed 3, lifecycle seed 3, 1536
// cost episodes, one actor) twice on fresh services and requires the same
// final cost ratio, the same served decision per query and the same final
// policy — every weight, after the latency phase — bit for bit. The second
// lifecycle runs while two goroutines spin Plan on a third service: which
// snapshot an episode sees is decided by its ticket, so a starved learner or
// actor must change nothing. The pair is repeated with two actors and with
// another seed. Every plan-quality number the benchmark reports rests on
// this; a numerics change in nn that moved seed 3's ratio fails here, on the
// pinned literal, before it reaches the benchmark gate.
func TestBenchmarkLifecycleRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("six full training lifecycles; skipped in -short mode")
	}
	type served struct {
		source PlanSource
		cost   uint64
	}
	type result struct {
		ratio  float64
		policy [sha256.Size]byte
		served []served
		stats  StatsMode
	}
	ctx := context.Background()
	run := func(cfg LifecycleConfig) result {
		svc, err := New(WithScale(0.05), WithWorkload(6, 4, 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.StartTraining(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		if err := svc.WaitTraining(ctx); err != nil {
			t.Fatal(err)
		}
		res := result{ratio: svc.LifecycleStats().CostRatio, policy: policyDigest(svc.policies.Latest().Net), stats: svc.StatsMode()}
		for _, q := range svc.Queries() {
			d, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			res.served = append(res.served, served{d.Source, math.Float64bits(d.Cost)})
		}
		return res
	}
	// underPressure runs f with both cores contended by Plan loops.
	underPressure := func(f func()) {
		busy, err := New(WithScale(0.05), WithWorkload(6, 4, 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := busy.Plan(ctx, busy.Queries()[i%len(busy.Queries())]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		f()
		close(stop)
		wg.Wait()
	}
	for _, cfg := range []LifecycleConfig{
		{Seed: 3, CostEpisodes: 1536, Actors: 1},
		{Seed: 3, CostEpisodes: 1536, Actors: 2},
		{Seed: 5, CostEpisodes: 1536, Actors: 1},
	} {
		t.Run(fmt.Sprintf("seed%d_actors%d", cfg.Seed, cfg.Actors), func(t *testing.T) {
			a := run(cfg)
			var b result
			underPressure(func() { b = run(cfg) })
			if math.Float64bits(a.ratio) != math.Float64bits(b.ratio) {
				t.Fatalf("final cost ratio %v on the first lifecycle, %v on the second", a.ratio, b.ratio)
			}
			if a.policy != b.policy {
				t.Fatalf("final policy sha256 %x on the first lifecycle, %x on the second (under scheduler pressure)", a.policy, b.policy)
			}
			for i := range a.served {
				if a.served[i] != b.served[i] {
					t.Fatalf("query %d: served %v at cost bits %x, then %v at %x",
						i, a.served[i].source, a.served[i].cost, b.served[i].source, b.served[i].cost)
				}
			}
			// final_cost_ratio of every benchmark run since PR 11, and what the
			// same lifecycle reads when the expert plans on sketches (CI's
			// HANDSFREE_STATS=sketch leg): other estimates, another expert
			// baseline, the same repeatability.
			benchmarkRatio := map[StatsMode]float64{StatsExact: 1.4240199646682297, StatsSketch: 1.4380658630071081}[a.stats]
			if cpu := nn.DetectCPU(); cfg.Seed == 3 && cfg.Actors == 1 && cpu.AVX2 && cpu.FMA && a.ratio != benchmarkRatio {
				t.Fatalf("final cost ratio %v, the benchmark's pinned value under %v statistics is %v", a.ratio, a.stats, benchmarkRatio)
			}
		})
	}
}

// TestLatencyPhaseFaultSeamOrder: a latency-phase episode consults the fault
// seam when its rollout ends and runs on the engine later, on another core,
// so runs finish out of order; the seam's counter — the clock of periodic
// spikes — must still advance in ticket order. With every third execution
// inflated ×5 and one actor, the latency and reward of every episode equal
// those of the sequential loop: the same plans, executed one after another
// through a fresh seam armed the same way.
func TestLatencyPhaseFaultSeamOrder(t *testing.T) {
	// The budget censors the catastrophic plans an untrained policy samples.
	const episodes, budgetMs = 48, 50
	svc := testService(t)
	svc.Faults().Spike(3, 5)
	maxRels := 0
	for _, q := range svc.Queries() {
		maxRels = max(maxRels, len(q.Relations))
	}
	env := planspace.NewEnv(planspace.Config{
		Space:              featurize.NewSpace(maxRels, svc.sys.cardEstimator()),
		Planner:            svc.sys.Planner,
		Latency:            svc.observed,
		Queries:            svc.Queries(),
		Reward:             planspace.LatencyReward,
		RewardNeedsLatency: true,
		LatencyBudgetMs:    budgetMs,
		Cache:              svc.sys.PlanCache,
		Seed:               4,
	})
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{32}, Seed: 4})
	var recs []planspace.EpisodeRecord
	planspace.TrainAsyncCtx(context.Background(), env, agent, episodes, rl.AsyncConfig{Actors: 1}, func(_ int, rec planspace.EpisodeRecord) {
		recs = append(recs, rec)
	})
	if st := svc.Faults().Stats(); st.Executions != episodes || st.Spikes != episodes/3 {
		t.Fatalf("seam saw %d executions and %d spikes, want %d and %d", st.Executions, st.Spikes, episodes, episodes/3)
	}

	sequential := &engine.Observed{Eng: svc.observed.Eng, MsPerWork: svc.observed.MsPerWork, Faults: engine.NewFaults()}
	sequential.Faults.Spike(3, 5)
	unspiked := engine.NewObserved(svc.observed.Eng)
	unspiked.MsPerWork = svc.observed.MsPerWork
	moved := 0
	for i, rec := range recs {
		lat, timedOut := sequential.Execute(rec.Query, rec.Out.Plan, budgetMs)
		if plain, _ := unspiked.Execute(rec.Query, rec.Out.Plan, budgetMs); plain != lat {
			moved++
		}
		want := planspace.LatencyReward(planspace.Outcome{LatencyMs: lat, TimedOut: timedOut})
		if math.Float64bits(rec.Out.LatencyMs) != math.Float64bits(lat) || rec.Out.TimedOut != timedOut || rec.Traj.Return != want {
			t.Fatalf("ticket %d: latency %v reward %v, the sequential loop gives %v and %v",
				i, rec.Out.LatencyMs, rec.Traj.Return, lat, want)
		}
	}
	if moved == 0 {
		t.Fatal("no spike changed a latency: the test cannot tell one seam order from another")
	}
}

// TestLifecycleRewards pins the lifecycle's two rewards: −log of the cost,
// then of the observed latency, each −1e6 when there is no positive value
// to take the log of. Each reads only its own indicator, and a censored run
// is rewarded at its budget.
func TestLifecycleRewards(t *testing.T) {
	const budgetMs = 50
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		reward planspace.RewardFunc
		out    planspace.Outcome
		want   float64
	}{
		{"cost/inf", lifecycleCostReward, planspace.Outcome{Cost: inf, LatencyMs: 3}, -1e6},
		{"cost/zero", lifecycleCostReward, planspace.Outcome{Cost: 0, LatencyMs: 3}, -1e6},
		{"cost/finite", lifecycleCostReward, planspace.Outcome{Cost: 2500, LatencyMs: nan}, -math.Log(2500)},
		{"latency/nan", lifecycleLatencyReward, planspace.Outcome{Cost: 2500, LatencyMs: nan}, -1e6},
		{"latency/zero", lifecycleLatencyReward, planspace.Outcome{Cost: 2500, LatencyMs: 0}, -1e6},
		{"latency/negative", lifecycleLatencyReward, planspace.Outcome{Cost: 2500, LatencyMs: -3}, -1e6},
		{"latency/finite", lifecycleLatencyReward, planspace.Outcome{Cost: inf, LatencyMs: 12.5}, -math.Log(12.5)},
		{"latency/censored", lifecycleLatencyReward, planspace.Outcome{Cost: 2500, LatencyMs: budgetMs, TimedOut: true}, -math.Log(budgetMs)},
	} {
		if got := c.reward(c.out); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("%s: reward %v, want %v", c.name, got, c.want)
		}
	}
}

func TestServiceLifecycleCancellation(t *testing.T) {
	svc := testService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before it can get anywhere
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	err := svc.WaitTraining(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lifecycle err = %v, want context.Canceled", err)
	}
	if got := svc.Phase(); got != PhaseStopped {
		t.Fatalf("phase after cancellation = %v, want stopped", got)
	}
	// The service still serves (expert path) and can start a fresh lifecycle.
	if _, err := svc.Plan(context.Background(), svc.Queries()[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartTraining(context.Background(), quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkTransitions(t, svc.LifecycleStats().Transitions)
}

// TestStartTrainingRejectsOversizedQuery: the training envs hold relation
// sets as uint32 bitmasks, so a training query wider than
// planspace.MaxRelations is refused up front with an error, and the service
// neither starts a lifecycle nor stops serving.
func TestStartTrainingRejectsOversizedQuery(t *testing.T) {
	svc := testService(t)
	base := svc.Queries()[0].Relations[0]
	wide := &Query{Name: "wide"}
	for i := 0; i <= planspace.MaxRelations; i++ {
		wide.Relations = append(wide.Relations, query.Relation{Table: base.Table, Alias: fmt.Sprintf("r%d", i)})
	}
	cfg := quickLifecycle()
	cfg.Queries = append([]*Query{wide}, svc.Queries()...)
	if err := svc.StartTraining(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "wide") {
		t.Fatalf("StartTraining with a %d-relation query: err = %v, want a refusal naming it", len(wide.Relations), err)
	}
	if got := svc.Phase(); got != PhaseIdle {
		t.Fatalf("phase after the refusal = %v, want idle", got)
	}
	if _, err := svc.Plan(context.Background(), svc.Queries()[0]); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConcurrentPlanDuringTraining hammers Plan from several
// goroutines while the lifecycle trains and hot-swaps policies, asserting
// no torn reads (every decision is a complete, safeguard-bounded plan) and
// per-goroutine monotone policy versions. Run with -race.
func TestServiceConcurrentPlanDuringTraining(t *testing.T) {
	svc := testService(t, WithCache(CacheConfig{Capacity: 1 << 14}))
	ratio := svc.FallbackRatio()
	ctx := context.Background()
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}

	const hammers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, hammers)
	stop := make(chan struct{})
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := svc.Queries()
			var lastVersion uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				res, err := svc.Plan(ctx, q)
				if err != nil {
					errCh <- err
					return
				}
				if res.Plan == nil || res.Cost <= 0 || math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) {
					errCh <- errors.New("torn or empty planning decision")
					return
				}
				if ratio > 0 && res.Cost > ratio*res.ExpertCost*(1+1e-12) {
					errCh <- errors.New("safeguard breached under concurrency")
					return
				}
				if res.PolicyVersion < lastVersion {
					errCh <- errors.New("policy version went backwards")
					return
				}
				lastVersion = res.PolicyVersion
			}
		}(g)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := svc.LifecycleStats()
	if st.Phase != PhaseDone || st.PolicyVersion == 0 {
		t.Fatalf("lifecycle under load ended %+v", st)
	}
	if st.Plans == 0 {
		t.Fatal("hammer goroutines planned nothing")
	}
}

// TestServiceRolloutHonorsDeadlineMidEpisode drives the learned-rollout
// branch of Plan with an expiring deadline: cancellation must surface from
// inside the planspace rollout loop, not only from the expert's enumerator.
func TestServiceRolloutHonorsDeadlineMidEpisode(t *testing.T) {
	svc := testService(t)
	publishRandomPolicy(t, svc, 11)
	q := svc.Queries()[0]
	// Expire the context between the (cached-fast) expert plan and the
	// rollout by pre-warming the expert plan, then using a context that is
	// already at its deadline when the rollout begins.
	if _, err := svc.Plan(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	env := svc.serve.Load().get()
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	_, err := env.GreedyRollout(ctx, q, func(st rl.State) int {
		steps++
		cancel() // cancel mid-episode, after the first decision
		return planspaceFirstValid(st)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("rollout err = %v after %d steps, want context.Canceled", err, steps)
	}
	if steps != 1 {
		t.Fatalf("rollout took %d decisions after cancellation, want exactly 1", steps)
	}
}

func planspaceFirstValid(st rl.State) int {
	for i, ok := range st.Mask {
		if ok {
			return i
		}
	}
	return -1
}

// TestServiceSharedInferenceParity pins the shared-packing serving contract:
// Plan decisions made on the snapshot's packed weights are bitwise identical
// to a greedy rollout that runs the unpacked network's Forward per call, so
// the per-publish pack changes only how fast the service serves, never what.
func TestServiceSharedInferenceParity(t *testing.T) {
	svc := testService(t, WithFallbackRatio(0))
	publishRandomPolicy(t, svc, 71)
	sp, snap := svc.serve.Load(), svc.policies.Latest()
	unpacked := snap.Net.CloneForInference()

	ctx := context.Background()
	learned := 0
	for i, q := range svc.Queries() {
		res, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		env := sp.get()
		want, err := env.GreedyRollout(ctx, q, func(st rl.State) int {
			return argmaxMasked(unpacked.Forward(nn.FromVec(st.Features)).Data, st.Mask)
		})
		sp.put(env)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.LearnedCost) != math.Float64bits(want.Cost) {
			t.Fatalf("query %d: packed learned cost %x != unpacked %x",
				i, math.Float64bits(res.LearnedCost), math.Float64bits(want.Cost))
		}
		if res.Source == SourceLearned {
			learned++
			if ExplainPlan(res.Plan) != ExplainPlan(want.Plan) {
				t.Fatalf("query %d: packed and unpacked plans differ:\n%s\nvs\n%s",
					i, ExplainPlan(res.Plan), ExplainPlan(want.Plan))
			}
		}
	}
	if learned == 0 {
		t.Fatal("parity check never exercised the learned-rollout path")
	}
}
