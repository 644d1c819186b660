package handsfree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestServiceExecuteUntrained: Execute works before any lifecycle — it serves
// and runs the expert plan, observes a real latency, and records the
// execution as an expert baseline in the history store.
func TestServiceExecuteUntrained(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	for _, q := range svc.Queries() {
		res, err := svc.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceExpert || res.Plan == nil {
			t.Fatalf("untrained Execute served %+v", res.PlanResult)
		}
		if res.TimedOut || res.Failed {
			t.Fatalf("untrained Execute degraded: %+v", res)
		}
		if !(res.LatencyMs > 0) || res.WorkUnits <= 0 {
			t.Fatalf("no observed latency/work: %+v", res)
		}
		if res.Fingerprint == 0 {
			t.Fatal("decision carries no fingerprint")
		}
	}
	st := svc.ExecStats()
	if st.Executions != uint64(len(svc.Queries())) || st.Failures != 0 {
		t.Fatalf("exec stats %+v", st)
	}
	if st.History.Expert != st.History.Records || st.History.Learned != 0 {
		t.Fatalf("expert executions recorded as %+v", st.History)
	}
	if _, err := svc.ExecuteSQL(ctx, `SELECT COUNT(*) FROM title t WHERE t.production_year > 50`); err != nil {
		t.Fatal(err)
	}
}

// learnedDivergent publishes learned policies until some workload query is
// served a learned plan whose signature differs from the expert's, returning
// that query and its decision. The cost guard must be disabled on svc.
func learnedDivergent(t *testing.T, svc *Service) (*Query, PlanResult) {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		publishRandomPolicy(t, svc, 40+seed)
		for _, q := range svc.Queries() {
			res, err := svc.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source == SourceLearned && res.Plan.Signature() != res.expertPlan.Signature() {
				return q, res
			}
		}
	}
	t.Fatal("no published policy produced a learned plan diverging from the expert's")
	return nil, PlanResult{}
}

// TestServiceExecuteRecordsHistoryAndProbes: served learned executions land
// in the learned window, the expert baseline is refreshed by shadow probes,
// and the rolling ratio becomes defined once both windows hold their minima.
func TestServiceExecuteRecordsHistoryAndProbes(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0),
		WithExecution(ExecutionConfig{MinLearned: 2, MinExpert: 1, ProbeEvery: 2, GuardRatio: -1, DriftRatio: -1}))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := learnedDivergent(t, svc)
	ctx := context.Background()
	var last ExecResult
	for i := 0; i < 6; i++ {
		last, err = svc.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if last.Source != SourceLearned {
			t.Fatalf("guardless Execute %d served %v", i, last.Source)
		}
	}
	st := svc.ExecStats()
	if st.History.Learned < 6 {
		t.Fatalf("learned window holds %d records, want ≥ 6", st.History.Learned)
	}
	// Probes every 2 learned executions: the expert baseline must have been
	// refreshed several times even though only learned plans were served.
	if st.History.Expert < 2 {
		t.Fatalf("expert baseline has %d records despite probing: %+v", st.History.Expert, st.History)
	}
	if ratio, ln, en := svc.ObservedRatio(q); math.IsNaN(ratio) || ratio <= 0 {
		t.Fatalf("rolling ratio undefined after 6 executions: %v (windows %d/%d)", ratio, ln, en)
	}
}

// TestServiceExecuteFailureFallsBackToExpert: an injected failure of the
// served learned plan is absorbed — the expert plan is executed and served
// (Failed, SourceFallback), never an error to the caller.
func TestServiceExecuteFailureFallsBackToExpert(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0),
		WithExecution(ExecutionConfig{GuardRatio: -1, DriftRatio: -1}))
	if err != nil {
		t.Fatal(err)
	}
	q, res := learnedDivergent(t, svc)
	svc.Faults().FailPlan(res.Plan.Signature())

	out, err := svc.Execute(context.Background(), q)
	if err != nil {
		t.Fatalf("failure was not absorbed: %v", err)
	}
	if !out.Failed || out.Source != SourceFallback {
		t.Fatalf("failed learned execution served %+v", out)
	}
	if out.Plan.Signature() != res.expertPlan.Signature() || out.Cost != out.ExpertCost {
		t.Fatal("failure fallback did not serve the expert plan")
	}
	if !(out.LatencyMs > 0) {
		t.Fatalf("fallback execution observed no latency: %+v", out)
	}
	st := svc.ExecStats()
	if st.Failures == 0 || st.History.Failures == 0 {
		t.Fatalf("failure not counted: %+v", st)
	}

	// When the expert plan itself fails too, the error surfaces.
	svc.Faults().FailPlan(res.expertPlan.Signature())
	if _, err := svc.Execute(context.Background(), q); err == nil {
		t.Fatal("both plans failing produced no error")
	}
}

// TestServiceLatencyGuard: once the observed rolling latency of a
// fingerprint's learned plans regresses past GuardRatio × the expert's, the
// decision falls back to the expert plan (LatencyGuarded) — and the guard
// never serves a learned plan from a regressed fingerprint.
func TestServiceLatencyGuard(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(3, 4, 5, 5), WithFallbackRatio(0),
		WithExecution(ExecutionConfig{MinLearned: 2, MinExpert: 1, ProbeEvery: 2, GuardRatio: 1.5, DriftRatio: -1}))
	if err != nil {
		t.Fatal(err)
	}
	q, res := learnedDivergent(t, svc)
	svc.Faults().InflatePlan(res.Plan.Signature(), 50)

	ctx := context.Background()
	guarded := false
	for i := 0; i < 40 && !guarded; i++ {
		out, err := svc.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// The invariant under test: a decision made while the rolling ratio
		// exceeded the guard must not have served the learned plan.
		dec, err := svc.Plan(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if dec.LatencyRatio > svc.execCfg.GuardRatio && dec.Source == SourceLearned {
			t.Fatalf("guard breached: learned plan served at ratio %.2f", dec.LatencyRatio)
		}
		guarded = out.LatencyGuarded || dec.LatencyGuarded
	}
	if !guarded {
		t.Fatal("inflated learned latency never tripped the guard")
	}
	st := svc.ExecStats()
	if st.LatencyGuarded == 0 {
		t.Fatalf("guard fired but was not counted: %+v", st)
	}
	// Guarded decisions keep executing the expert plan; its observed
	// latency stays healthy (well under the inflated learned latencies).
	out, err := svc.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source == SourceLearned {
		t.Fatal("regressed fingerprint still served the learned plan")
	}
}

// driftLifecycle is quickLifecycle with the resident drift watcher on.
func driftLifecycle() LifecycleConfig {
	cfg := quickLifecycle()
	cfg.DriftRetrain = true
	return cfg
}

// driftTargets picks the workload queries whose served learned plan diverges
// from the expert's — the fingerprints differential drift can be injected on.
func driftTargets(t *testing.T, svc *Service) []*Query {
	t.Helper()
	var targets []*Query
	for _, q := range svc.Queries() {
		res, err := svc.Plan(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source == SourceLearned && res.Plan.Signature() != res.expertPlan.Signature() {
			targets = append(targets, q)
			svc.Faults().InflatePlan(res.Plan.Signature(), 40)
		}
	}
	return targets
}

// TestServiceDriftRetrainsEndToEnd is the headline feedback-loop test, fully
// deterministic fault injection end to end:
//
//  1. train to PhaseDone with the resident drift watcher on;
//  2. serve Execute traffic to build observed-latency baselines;
//  3. inject a differential regression (inflate the served learned plans'
//     signatures 40×) and keep serving until the drift detector trips and
//     the lifecycle re-enters training — asserting along the way that the
//     latency guard never serves a learned plan from a regressed
//     fingerprint;
//  4. clear the faults (transient incident) and wait for the
//     PhaseDriftRetraining → … → PhaseDone round to complete;
//  5. assert the rolling ratios recovered, learned serving resumed (the
//     fallback rate decays), and policy versions stayed monotone throughout.
func TestServiceDriftRetrainsEndToEnd(t *testing.T) {
	// GuardRatio == DriftRatio: the guard stops serving the learned plan at
	// the same threshold the detector counts as degraded, so any regression
	// the guard freezes out is also one the detector sustains on.
	svc, err := New(WithScale(0.05), WithWorkload(4, 4, 5, 3), WithFallbackRatio(0),
		WithExecution(ExecutionConfig{
			Window: 8, MinLearned: 2, MinExpert: 1, ProbeEvery: 3,
			GuardRatio: 2.0, DriftRatio: 2.0, DriftSustain: 4,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := svc.StartTraining(ctx, driftLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	if got := svc.Phase(); got != PhaseDone {
		t.Fatalf("phase after training = %v", got)
	}

	// (2) Baseline traffic.
	var lastVersion uint64
	serveRound := func() {
		t.Helper()
		for _, q := range svc.Queries() {
			res, err := svc.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || !(res.Cost > 0) {
				t.Fatalf("incomplete decision %+v", res)
			}
			if res.PolicyVersion < lastVersion {
				t.Fatalf("policy version went backwards: %d after %d", res.PolicyVersion, lastVersion)
			}
			lastVersion = res.PolicyVersion
			if res.LatencyRatio > svc.execCfg.GuardRatio && res.Source == SourceLearned {
				t.Fatalf("latency guard breached: learned served at ratio %.2f", res.LatencyRatio)
			}
		}
	}
	for i := 0; i < 4; i++ {
		serveRound()
	}

	// (3) Inject differential drift on every divergent learned plan. If the
	// trained policy happens to reproduce the expert everywhere, hot-swap
	// policies until it diverges (serving-side swap only; the resident
	// lifecycle keeps its own learner for re-training).
	targets := driftTargets(t, svc)
	if len(targets) == 0 {
		_, _ = learnedDivergent(t, svc)
		targets = driftTargets(t, svc)
	}
	if len(targets) == 0 {
		t.Fatal("no learned plan diverges from the expert; cannot inject differential drift")
	}

	deadline := time.Now().Add(90 * time.Second)
	for svc.ExecStats().DriftEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift never tripped; stats %+v", svc.ExecStats())
		}
		for _, q := range targets {
			if _, err := svc.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}

	// (4) The incident is transient: resolve it while the lifecycle retrains.
	svc.Faults().Clear()
	for svc.Phase() != PhaseDone || svc.ExecStats().Retrains == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift re-training never completed: phase %v, stats %+v",
				svc.Phase(), svc.ExecStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	var sawDrift, sawRecost bool
	for _, tr := range svc.LifecycleStats().Transitions {
		if tr.To == PhaseDriftRetraining {
			sawDrift = true
			if tr.Reason == "" {
				t.Fatal("drift transition recorded no reason")
			}
		}
		if tr.From == PhaseDriftRetraining && tr.To == PhaseCostTraining {
			sawRecost = true
		}
	}
	if !sawDrift || !sawRecost {
		t.Fatalf("transitions missing drift re-entry: %+v", svc.LifecycleStats().Transitions)
	}
	checkTransitions(t, svc.LifecycleStats().Transitions)

	// (5) Recovery: the flushed windows refill with healthy latencies, the
	// ratio drops below the drift threshold, and learned serving resumes.
	recovered := false
	var learnedAgain bool
	for !recovered || !learnedAgain {
		if time.Now().After(deadline) {
			t.Fatalf("ratios never recovered: recovered=%v learnedAgain=%v stats %+v",
				recovered, learnedAgain, svc.ExecStats())
		}
		serveRound()
		recovered = true
		for _, q := range targets {
			if ratio, _, _ := svc.ObservedRatio(q); !math.IsNaN(ratio) && ratio >= svc.execCfg.DriftRatio {
				recovered = false
			}
			res, err := svc.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source == SourceLearned {
				learnedAgain = true
			}
		}
	}
	// The fallback rate decays after recovery: a healthy round adds no new
	// latency-guard fallbacks on the recovered fingerprints.
	before := svc.ExecStats().LatencyGuarded
	for _, q := range targets {
		if _, err := svc.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if after := svc.ExecStats().LatencyGuarded; after != before {
		t.Fatalf("latency guard still firing after recovery: %d → %d", before, after)
	}
	if err := svc.StopTraining(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServiceStaleDriftSignalDropped: a drift signal raised while no
// lifecycle watches — against the policy of a lifecycle run without
// DriftRetrain — waits in the channel; the next lifecycle's PhaseDone drops
// it rather than re-training on it, so the resident watcher stays at
// PhaseDone until it is stopped.
func TestServiceStaleDriftSignalDropped(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(4, 4, 5, 3), WithFallbackRatio(0),
		WithExecution(ExecutionConfig{
			Window: 8, MinLearned: 2, MinExpert: 1, ProbeEvery: 3,
			GuardRatio: 2.0, DriftRatio: 2.0, DriftSustain: 4,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := svc.StartTraining(ctx, quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, q := range svc.Queries() {
			if _, err := svc.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	targets := driftTargets(t, svc)
	if len(targets) == 0 {
		_, _ = learnedDivergent(t, svc)
		targets = driftTargets(t, svc)
	}
	if len(targets) == 0 {
		t.Fatal("no learned plan diverges from the expert; cannot inject differential drift")
	}
	deadline := time.Now().Add(90 * time.Second)
	for svc.ExecStats().DriftEvents == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift never tripped; stats %+v", svc.ExecStats())
		}
		for _, q := range targets {
			if _, err := svc.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Faults().Clear()

	first := len(svc.LifecycleStats().Transitions)
	if err := svc.StartTraining(ctx, driftLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(svc.driftCh); n != 0 {
		t.Fatalf("%d drift signal(s) from the earlier lifecycle still pending at done", n)
	}
	if err := svc.StopTraining(ctx); err != nil {
		t.Fatal(err)
	}
	trans := svc.LifecycleStats().Transitions
	checkTransitions(t, trans)
	for _, tr := range trans[first:] {
		if tr.To == PhaseDriftRetraining {
			t.Fatalf("the new lifecycle re-trained on a stale drift signal: %v→%v (%s)", tr.From, tr.To, tr.Reason)
		}
	}
	if last := trans[len(trans)-1]; last.From != PhaseDone || last.To != PhaseStopped {
		t.Fatalf("last transition %v→%v, want done→stopped", last.From, last.To)
	}
	if r := svc.ExecStats().Retrains; r != 0 {
		t.Fatalf("%d re-training rounds, want none", r)
	}
}

// TestServiceConcurrentExecuteDuringDriftRetraining hammers Execute from 8
// goroutines while drift trips and the resident lifecycle re-trains live,
// asserting every decision is complete and policy versions are monotone per
// caller. Run with -race.
func TestServiceConcurrentExecuteDuringDriftRetraining(t *testing.T) {
	svc, err := New(WithScale(0.05), WithWorkload(4, 4, 5, 3), WithFallbackRatio(0),
		WithCache(CacheConfig{Capacity: 1 << 14}),
		WithExecution(ExecutionConfig{
			Window: 8, MinLearned: 2, MinExpert: 1, ProbeEvery: 3,
			GuardRatio: 2.0, DriftRatio: 2.0, DriftSustain: 3,
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := svc.StartTraining(ctx, driftLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(ctx); err != nil {
		t.Fatal(err)
	}

	const hammers = 8
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
				res, err := svc.Execute(ctx, queries[(g+i)%len(queries)])
				if err != nil {
					errCh <- err
					return
				}
				if res.Plan == nil || !(res.Cost > 0) || math.IsNaN(res.Cost) {
					errCh <- errors.New("torn execution decision")
					return
				}
				if !res.TimedOut && (math.IsNaN(res.LatencyMs) || res.LatencyMs <= 0) {
					errCh <- fmt.Errorf("completed execution with latency %v", res.LatencyMs)
					return
				}
				if res.PolicyVersion < lastVersion {
					errCh <- errors.New("policy version went backwards under concurrency")
					return
				}
				lastVersion = res.PolicyVersion
			}
		}(g)
	}

	// Inject drift under load, let the resident lifecycle retrain live, then
	// resolve the incident and wait for it to finish.
	deadline := time.Now().Add(90 * time.Second)
	if len(driftTargets(t, svc)) == 0 {
		_, _ = learnedDivergent(t, svc)
		if len(driftTargets(t, svc)) == 0 {
			close(stop)
			wg.Wait()
			t.Fatal("no learned plan diverges from the expert; cannot inject differential drift")
		}
	}
	for svc.ExecStats().DriftEvents == 0 && svc.Phase() == PhaseDone {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("drift never tripped under hammer load: %+v", svc.ExecStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc.Faults().Clear()
	for svc.Phase() != PhaseDone {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("live re-training never completed: phase %v", svc.Phase())
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := svc.ExecStats()
	if st.Executions == 0 || st.History.Records == 0 {
		t.Fatalf("hammer executed nothing: %+v", st)
	}
	if err := svc.StopTraining(ctx); err != nil {
		t.Fatal(err)
	}
	if got := svc.Phase(); got != PhaseStopped {
		t.Fatalf("phase after StopTraining = %v, want stopped", got)
	}
	checkTransitions(t, svc.LifecycleStats().Transitions)
}
