package handsfree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"handsfree/internal/plancache"
	"handsfree/internal/rl"
)

// Plan rolls the published policy out once per (fingerprint, policy version)
// and reads the outcome back from the plan cache afterwards (Service.rollout).
// These tests pin what that may and may not change: a remembered decision is
// the decision a fresh rollout would make, a publish forgets it, the guards
// are still judged per request, and nothing policy-dependent is persisted.

// decisionService is the benchmark tenant (bench/setup.go: scale 0.05, six
// 4–6-relation workload queries, seed 3) with the plan cache on.
func decisionService(t testing.TB, opts ...Option) *Service {
	t.Helper()
	svc, err := New(append([]Option{
		WithScale(0.05),
		WithWorkload(6, 4, 6, 3),
		WithCache(CacheConfig{Capacity: 1 << 14}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// trainDecisionService runs one short single-actor lifecycle on svc, so the
// published policy serves learned plans as well as fallbacks.
func trainDecisionService(t testing.TB, svc *Service) {
	t.Helper()
	ctx := context.Background()
	if err := svc.StartTraining(ctx, LifecycleConfig{Seed: 3, CostEpisodes: 512, Actors: 1}); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
}

// publishRandomVersion publishes one more (untrained) policy version on the
// serving layout already installed.
func publishRandomVersion(svc *Service, seed int64) *rl.Reinforce {
	sp := svc.serve.Load()
	learner := rl.NewReinforce(sp.obsDim, sp.actionDim, rl.ReinforceConfig{Hidden: []int{16}, Seed: seed})
	svc.publish(learner)
	return learner
}

// decisionQueries returns the workload plus n generated 4–6-relation queries,
// one per fingerprint.
func decisionQueries(t testing.TB, svc *Service, n int) []*Query {
	t.Helper()
	extra, err := svc.System().Workload.Training(n+n/4, 4, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var out []*Query
	for _, q := range append(append([]*Query(nil), svc.Queries()...), extra...) {
		if fp := plancache.Fingerprint(q); !seen[fp] {
			seen[fp] = true
			out = append(out, q)
		}
	}
	if len(out) < len(svc.Queries())+n {
		t.Fatalf("only %d distinct queries generated, want ≥ %d", len(out), len(svc.Queries())+n)
	}
	return out
}

// rolloutKey is the plan-cache key Service.rollout files q's decision under.
func rolloutKey(svc *Service, q *Query) plancache.Key {
	return plancache.Key{
		Query: plancache.Fingerprint(q),
		Mode:  plancache.ModeServedRollout,
		Epoch: svc.PolicyVersion(),
	}
}

// sameDecision compares two decisions field by field, floats by bit pattern.
func sameDecision(a, b PlanResult) error {
	sig := func(p PlanNode) string {
		if p == nil {
			return "<nil>"
		}
		return p.Signature()
	}
	switch {
	case a.Source != b.Source:
		return fmt.Errorf("source %v vs %v", a.Source, b.Source)
	case math.Float64bits(a.Cost) != math.Float64bits(b.Cost):
		return fmt.Errorf("cost %v vs %v", a.Cost, b.Cost)
	case math.Float64bits(a.LearnedCost) != math.Float64bits(b.LearnedCost):
		return fmt.Errorf("learned cost %v vs %v", a.LearnedCost, b.LearnedCost)
	case math.Float64bits(a.ExpertCost) != math.Float64bits(b.ExpertCost):
		return fmt.Errorf("expert cost %v vs %v", a.ExpertCost, b.ExpertCost)
	case a.PolicyVersion != b.PolicyVersion:
		return fmt.Errorf("policy version %d vs %d", a.PolicyVersion, b.PolicyVersion)
	case a.Fingerprint != b.Fingerprint || a.LatencyGuarded != b.LatencyGuarded:
		return fmt.Errorf("fingerprint/guard %x/%v vs %x/%v", a.Fingerprint, a.LatencyGuarded, b.Fingerprint, b.LatencyGuarded)
	case sig(a.Plan) != sig(b.Plan):
		return fmt.Errorf("plan %s vs %s", sig(a.Plan), sig(b.Plan))
	}
	return nil
}

// conserved checks Plans == LearnedServed + ExpertServed + Fallbacks.
func conserved(t testing.TB, svc *Service) {
	t.Helper()
	st := svc.LifecycleStats()
	if st.Plans != st.LearnedServed+st.ExpertServed+st.Fallbacks {
		t.Fatalf("decision counters not conserved: %d plans = %d learned + %d expert + %d fallbacks",
			st.Plans, st.LearnedServed, st.ExpertServed, st.Fallbacks)
	}
}

// TestPlanDecisionHitMatchesMiss: over the benchmark workload plus 200
// generated queries and four policy versions (one trained, two random, one
// that produces no plan at all), the first Plan of a (fingerprint, version)
// rolls out exactly once, the second rolls out nothing, and the two
// decisions are identical; every publish makes the next Plan roll out again.
func TestPlanDecisionHitMatchesMiss(t *testing.T) {
	svc := decisionService(t)
	trainDecisionService(t, svc)
	queries := decisionQueries(t, svc, 200)
	ctx := context.Background()

	bySource := map[PlanSource]int{}
	round := func(name string) {
		t.Helper()
		version := svc.PolicyVersion()
		puts := svc.CacheStats().Puts
		for i, q := range queries {
			before := svc.rollouts.Load()
			miss, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := svc.rollouts.Load() - before; got != 1 {
				t.Fatalf("%s, query %d: first Plan at version %d ran %d rollouts, want 1", name, i, version, got)
			}
			hit, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := svc.rollouts.Load() - before; got != 1 {
				t.Fatalf("%s, query %d: second Plan rolled out again", name, i)
			}
			if err := sameDecision(miss, hit); err != nil {
				t.Fatalf("%s, query %d (%d relations): remembered decision differs: %v", name, i, len(q.Relations), err)
			}
			if miss.PolicyVersion != version || math.IsNaN(miss.LearnedCost) {
				t.Fatalf("%s, query %d: decision %+v did not consult version %d", name, i, miss, version)
			}
			bySource[miss.Source]++
		}
		if got := svc.CacheStats().Puts - puts; got < uint64(len(queries)) {
			t.Fatalf("%s: %d cache puts for %d first decisions", name, got, len(queries))
		}
		conserved(t, svc)
	}

	round("trained policy")
	if bySource[SourceLearned] == 0 || bySource[SourceFallback] == 0 {
		t.Fatalf("trained policy served %v: want both learned and fallback decisions", bySource)
	}
	for seed := int64(1); seed <= 2; seed++ {
		publishRandomVersion(svc, 50+seed)
		round(fmt.Sprintf("random policy %d", seed))
	}

	// A policy whose logits are all NaN picks no action: the rollout ends
	// with no plan, and that outcome is remembered and guarded like any other.
	broken := publishRandomVersion(svc, 60)
	for _, p := range broken.Policy.F32().Params() {
		for i := range p.Value {
			p.Value[i] = float32(math.NaN())
		}
	}
	svc.publish(broken)
	fallbacks := bySource[SourceFallback]
	round("plan-less policy")
	if got := bySource[SourceFallback] - fallbacks; got != len(queries) {
		t.Fatalf("a policy that produces no plan fell back on %d of %d queries", got, len(queries))
	}
}

// countdownCtx reports no error for its first `left` Err calls and
// context.Canceled from then on: a cancellation placed at an exact point of
// Plan's sequence of context checks.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestPlanDecisionHonorsContext: a Plan cancelled at any of its context
// checks — before the expert search, before the rollout, between rollout
// decisions — returns the context's error, counts no decision and remembers
// nothing; a cancelled context gets the same answer once the decision is
// remembered.
func TestPlanDecisionHonorsContext(t *testing.T) {
	svc := decisionService(t)
	publishRandomPolicy(t, svc, 11)
	q := svc.Queries()[0]
	key := rolloutKey(svc, q)

	cutMidRollout := 0
	for n := int32(0); ; n++ {
		if n > 64 {
			t.Fatal("Plan still cancelled after 64 context checks")
		}
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(n)
		plans, rollouts := svc.plans.Load(), svc.rollouts.Load()
		_, err := svc.Plan(ctx, q)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Plan cancelled at check %d: err = %v", n, err)
		}
		if svc.plans.Load() != plans {
			t.Fatalf("Plan cancelled at check %d still counted a decision", n)
		}
		if _, ok := svc.sys.PlanCache.Get(key); ok {
			t.Fatalf("Plan cancelled at check %d remembered a decision", n)
		}
		if svc.rollouts.Load() != rollouts {
			cutMidRollout++
		}
	}
	if cutMidRollout == 0 {
		t.Fatal("no cancellation landed inside the rollout")
	}
	if _, ok := svc.sys.PlanCache.Get(key); !ok {
		t.Fatal("the completed Plan remembered nothing")
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	plans := svc.plans.Load()
	if _, err := svc.Plan(cancelled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Plan of a remembered decision: err = %v", err)
	}
	if svc.plans.Load() != plans {
		t.Fatal("cancelled Plan counted a decision")
	}
	conserved(t, svc)
}

// TestPlanDecisionNotPersisted: SavePlanCache/LoadPlanCache carry the expert
// plans across processes and none of the remembered rollouts.
func TestPlanDecisionNotPersisted(t *testing.T) {
	svc := decisionService(t)
	publishRandomPolicy(t, svc, 11)
	ctx := context.Background()
	for _, q := range svc.Queries() {
		if _, err := svc.Plan(ctx, q); err != nil {
			t.Fatal(err)
		}
		if _, ok := svc.sys.PlanCache.Get(rolloutKey(svc, q)); !ok {
			t.Fatal("Plan remembered no decision to persist")
		}
	}
	var buf bytes.Buffer
	if err := svc.System().SavePlanCache(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := decisionService(t)
	n, err := fresh.System().LoadPlanCache(&buf)
	if err != nil || n == 0 {
		t.Fatalf("LoadPlanCache restored %d entries, err %v", n, err)
	}
	for version := uint64(0); version <= svc.PolicyVersion(); version++ {
		for _, q := range svc.Queries() {
			key := rolloutKey(svc, q)
			key.Epoch = version
			if _, ok := fresh.sys.PlanCache.Get(key); ok {
				t.Fatalf("a remembered rollout (version %d) crossed the process boundary", version)
			}
		}
	}
	// The restored service decides for itself, from a warm expert cache.
	publishRandomPolicy(t, fresh, 11)
	before := fresh.rollouts.Load()
	if _, err := fresh.Plan(ctx, fresh.Queries()[0]); err != nil {
		t.Fatal(err)
	}
	if fresh.rollouts.Load() != before+1 {
		t.Fatal("the restored service did not roll its own policy out")
	}
}

// TestPlanDecisionLatencyGuardLive: the observed-latency guard reads the
// live history on every Plan, remembered decision or not. With a learned
// decision remembered, executor faults push the fingerprint's ratio past
// GuardRatio: the very next Plan falls back (LatencyGuarded) without rolling
// out; flushing the learned windows, as a drift re-train does, serves the
// learned plan again, still without a rollout.
func TestPlanDecisionLatencyGuardLive(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0),
		WithCache(CacheConfig{Capacity: 1 << 12}),
		WithExecution(ExecutionConfig{MinLearned: 2, MinExpert: 1, ProbeEvery: 2, GuardRatio: 1.5, DriftRatio: -1}))
	if err != nil {
		t.Fatal(err)
	}
	q, learned := learnedDivergent(t, svc)
	ctx := context.Background()
	rollouts := svc.rollouts.Load()
	svc.Faults().InflatePlan(learned.Plan.Signature(), 50)

	tripped := false
	for i := 0; i < 40 && !tripped; i++ {
		if _, err := svc.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
		ratio, _, _ := svc.ObservedRatio(q)
		tripped = ratio > svc.execCfg.GuardRatio
		conserved(t, svc)
	}
	if !tripped {
		t.Fatal("inflated learned latency never pushed the ratio past the guard")
	}
	guardedBefore := svc.latencyGuarded.Load()
	dec, err := svc.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Source != SourceFallback || !dec.LatencyGuarded || svc.latencyGuarded.Load() != guardedBefore+1 {
		t.Fatalf("Plan right after the ratio passed the guard: %+v", dec)
	}
	if dec.Plan.Signature() != learned.expertPlan.Signature() || dec.LearnedCost != learned.LearnedCost {
		t.Fatalf("guarded decision %+v does not serve the expert plan beside the remembered learned cost", dec)
	}

	svc.history.FlushLearned()
	dec, err = svc.Plan(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if dec.LatencyGuarded || sameDecision(dec, learned) != nil {
		t.Fatalf("after the learned windows were flushed: %+v, want the learned decision back (%v)", dec, sameDecision(dec, learned))
	}
	if got := svc.rollouts.Load(); got != rollouts {
		t.Fatalf("the guard's verdicts cost %d rollouts, want 0", got-rollouts)
	}
	conserved(t, svc)
}

// TestPlanDecisionHammer plans the workload — the shared training queries
// themselves and freshly parsed statements of the same fingerprints — from
// several goroutines while a lifecycle trains on those queries and publishes:
// per goroutine the policy version never goes back, every goroutine that
// decided a (fingerprint, version) pair got the same decision, and the
// decision counters are conserved. Run under -race: the training queries'
// fingerprints are first written by whichever side gets there first.
func TestPlanDecisionHammer(t *testing.T) {
	svc := testService(t, WithCache(CacheConfig{Capacity: 1 << 14}))
	ctx := context.Background()
	var sqls []string
	for _, q := range svc.Queries() {
		sqls = append(sqls, q.SQL())
	}
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}

	type pair struct{ fp, version uint64 }
	type verdict struct {
		source     PlanSource
		cost, lrnd uint64
	}
	var (
		mu      sync.Mutex
		decided = map[pair]verdict{}
	)
	const hammers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, hammers)
	stop := make(chan struct{})
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var last uint64
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var res PlanResult
				var err error
				if k := i % (2 * len(sqls)); k < len(sqls) {
					res, err = svc.Plan(ctx, svc.Queries()[k])
				} else {
					res, err = svc.PlanSQL(ctx, sqls[k-len(sqls)])
				}
				if err != nil {
					errCh <- err
					return
				}
				if res.PolicyVersion < last {
					errCh <- fmt.Errorf("policy version went back from %d to %d", last, res.PolicyVersion)
					return
				}
				last = res.PolicyVersion
				v := verdict{res.Source, math.Float64bits(res.Cost), math.Float64bits(res.LearnedCost)}
				mu.Lock()
				prev, ok := decided[pair{res.Fingerprint, res.PolicyVersion}]
				decided[pair{res.Fingerprint, res.PolicyVersion}] = v
				mu.Unlock()
				if ok && prev != v {
					errCh <- fmt.Errorf("fingerprint %x at version %d decided %+v, then %+v", res.Fingerprint, res.PolicyVersion, prev, v)
					return
				}
			}
		}(g)
	}
	werr := svc.WaitTraining(ctx)
	close(stop)
	wg.Wait()
	close(errCh)
	if werr != nil {
		t.Fatal(werr)
	}
	for err := range errCh {
		t.Fatal(err)
	}
	if len(decided) == 0 || svc.PolicyVersion() == 0 {
		t.Fatalf("hammer decided %d pairs up to policy version %d", len(decided), svc.PolicyVersion())
	}
	conserved(t, svc)
}

// TestPlanHitAllocs caps what a remembered decision may allocate, so a later
// change cannot quietly put the rollout's featurize/infer/complete
// allocations back on the path every repeated query takes.
func TestPlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	svc := decisionService(t)
	publishPolicySized(t, svc, 71, []int{128, 64})
	ctx := context.Background()
	q := svc.Queries()[0]

	if _, err := svc.Plan(ctx, q); err != nil {
		t.Fatal(err)
	}
	rollouts := svc.rollouts.Load()
	hit := testing.AllocsPerRun(200, func() {
		if _, err := svc.Plan(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if svc.rollouts.Load() != rollouts {
		t.Fatal("the measured Plan calls were not cache hits")
	}
	const ceiling = 2
	if hit > ceiling {
		t.Fatalf("a remembered Plan allocates %.0f objects, ceiling %d", hit, ceiling)
	}
}
