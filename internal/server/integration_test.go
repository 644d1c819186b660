package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"handsfree"
)

// The end-to-end integration harness: every test here drives the full
// network path — JSON over HTTP through httptest, the admission queue, the
// tenant registry, and the Service's safeguarded Plan(ctx) — against live
// substrate, asserting the serving contracts the front end exists for:
// deadlines become 504s promptly, saturation sheds without dropping
// admitted work, policy hot-swaps are visible across requests, tenants are
// isolated, and drain completes in-flight plans even mid-training.

// twelveRelSQL renders a 12-relation query whose DP sweep takes long enough
// (~200ms on the test substrate) to be cancelled mid-flight.
func twelveRelSQL(t testing.TB, svc *handsfree.Service) string {
	t.Helper()
	q, err := svc.System().Workload.ByRelations(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return q.SQL()
}

// rawPost is postJSON without testing.T plumbing, safe to call from
// goroutines other than the test's own (t.Fatal must not run there).
func rawPost(client *http.Client, url string, body any) (status int, retryAfter string, raw []byte, err error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, "", nil, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), raw, err
}

// liveTraining is a lifecycle whose cost budget is effectively unbounded for
// test purposes: the tenant stays in live training until stopped.
func liveTraining() handsfree.LifecycleConfig {
	return handsfree.LifecycleConfig{
		Hidden:          []int{16},
		DemoSweeps:      1,
		CostEpisodes:    1 << 20,
		EvalEvery:       512,
		LatencyEpisodes: 8,
		Actors:          2,
		Seed:            7,
	}
}

// quickLifecycle passes through every phase in a couple of seconds.
func quickLifecycle() handsfree.LifecycleConfig {
	return handsfree.LifecycleConfig{
		Hidden:          []int{16},
		DemoSweeps:      1,
		CostEpisodes:    48,
		EvalEvery:       24,
		LatencyEpisodes: 8,
		Actors:          2,
		Seed:            7,
	}
}

// TestIntegrationDeadline504MidDPSweep maps a per-request deadline onto the
// Plan(ctx) cancellation path: a 12-relation DP sweep (~200ms uncancelled)
// under a 120ms timeout_ms must surface as a 504 in well under 2× the
// deadline, proving the enumeration loop's context checks cut the search
// off mid-sweep rather than running it to completion.
func TestIntegrationDeadline504MidDPSweep(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := twelveRelSQL(t, svc)

	const deadline = 120 * time.Millisecond
	start := time.Now()
	var er ErrorResponse
	resp := postJSON(t, client, ts.URL+"/plansql",
		PlanRequest{SQL: sql, TimeoutMs: deadline.Milliseconds()}, &er)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout || er.Error.Code != "deadline_exceeded" {
		t.Fatalf("status %d body %+v (want 504 deadline_exceeded)", resp.StatusCode, er)
	}
	if elapsed >= 2*deadline {
		t.Fatalf("504 took %v, want < 2× the %v deadline", elapsed, deadline)
	}

	// The same query under a generous deadline completes, proving the 504
	// was a mid-sweep cancellation and not a broken query.
	var plan PlanResponse
	resp = postJSON(t, client, ts.URL+"/plansql",
		PlanRequest{SQL: sql, TimeoutMs: 30_000}, &plan)
	if resp.StatusCode != http.StatusOK || plan.Cost <= 0 {
		t.Fatalf("unbounded replan: status %d %+v", resp.StatusCode, plan)
	}

	// The 504 is counted.
	var stats StatsResponse
	getJSON(t, client, ts.URL+"/stats", &stats)
	if stats.Server.Timeouts != 1 {
		t.Fatalf("timeouts counter = %d, want 1", stats.Server.Timeouts)
	}
}

// TestIntegrationClientCancelMidSweep cancels the client's request context
// mid-DP-sweep: the server must notice through the same ctx path, count the
// cancellation, drain the in-flight slot, and keep serving.
func TestIntegrationClientCancelMidSweep(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := twelveRelSQL(t, svc)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond) // let the DP sweep get going
		cancel()
	}()
	body, err := json.Marshal(PlanRequest{SQL: sql, TimeoutMs: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/plansql", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request returned a response")
	}

	// The handler finishes asynchronously after the client goes away: poll
	// until the cancellation is counted and the in-flight gauge drains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats StatsResponse
		getJSON(t, client, ts.URL+"/stats", &stats)
		if stats.Server.ClientCancels >= 1 && stats.Server.Inflight <= 1 {
			break // Inflight includes this /stats request itself
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation never drained: %+v", stats.Server)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server still serves.
	var plan PlanResponse
	if resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: svc.Queries()[0].SQL()}, &plan); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel plan status %d", resp.StatusCode)
	}
}

// TestIntegrationLoadShedUnderSaturation saturates a 1-slot server with slow
// 12-relation plans: the bounded queue and the queue-wait SLO must shed the
// excess with 429 + Retry-After while every admitted request completes —
// zero in-flight requests dropped.
func TestIntegrationLoadShedUnderSaturation(t *testing.T) {
	svc := newTestTenant(t, 3)
	srv, ts := newTestServer(t, Config{
		Concurrency: 1,
		QueueDepth:  2,
		SLO:         60 * time.Millisecond,
	}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := twelveRelSQL(t, svc)

	const total = 10
	type outcome struct {
		status     int
		retryAfter string
		err        error
	}
	results := make(chan outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, retryAfter, _, err := rawPost(client, ts.URL+"/plansql",
				PlanRequest{SQL: sql, TimeoutMs: 30_000})
			results <- outcome{status: status, retryAfter: retryAfter, err: err}
		}()
	}
	wg.Wait()
	close(results)

	ok, shed := 0, 0
	for o := range results {
		if o.err != nil {
			t.Fatal(o.err)
		}
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" || o.retryAfter == "0" {
				t.Fatalf("429 without a Retry-After header: %+v", o)
			}
		default:
			t.Fatalf("unexpected status %d under saturation", o.status)
		}
	}
	if ok == 0 {
		t.Fatal("saturation completed zero plans")
	}
	if shed == 0 {
		t.Fatal("saturation shed nothing: admission control is not engaging")
	}
	if ok+shed != total {
		t.Fatalf("%d ok + %d shed != %d requests", ok, shed, total)
	}

	// Zero admitted requests were dropped: every admission is accounted for
	// by a completed 200, and the shed counters cover every 429.
	var stats StatsResponse
	getJSON(t, client, ts.URL+"/stats", &stats)
	if got := stats.Server.Admitted; got != uint64(ok) {
		t.Fatalf("admitted %d but %d requests completed: an in-flight request was dropped", got, ok)
	}
	if got := stats.Server.ShedQueueFull + stats.Server.ShedSLO; got != uint64(shed) {
		t.Fatalf("shed counters %d != %d observed 429s", got, shed)
	}
	if srv.adm.queued.Load() != 0 {
		t.Fatalf("queue gauge %d after the burst", srv.adm.queued.Load())
	}
}

// TestIntegrationHotPolicySwapAcrossRequests runs a full lifecycle under
// live HTTP traffic: responses must expose monotone non-decreasing policy
// versions, at least one hot swap must be observed across requests, and the
// phase endpoint must report the completed state machine afterwards.
func TestIntegrationHotPolicySwapAcrossRequests(t *testing.T) {
	svc := newTestTenant(t, 3, handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}))
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()

	if err := svc.StartTraining(context.Background(), quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	var versions []uint64
	queries := svc.Queries()
	for i := 0; svc.TrainingActive(); i++ {
		var plan PlanResponse
		resp := postJSON(t, client, ts.URL+"/plansql",
			PlanRequest{SQL: queries[i%len(queries)].SQL()}, &plan)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mid-training plan status %d", resp.StatusCode)
		}
		if plan.Cost <= 0 || plan.ExpertCost <= 0 || plan.Source == "" {
			t.Fatalf("torn decision under training: %+v", plan)
		}
		versions = append(versions, plan.PolicyVersion)
	}
	if err := svc.WaitTraining(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One more request after the lifecycle completes: it must observe the
	// final published policy, so the version stream ends above zero.
	var final PlanResponse
	if resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: queries[0].SQL()}, &final); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-training plan status %d", resp.StatusCode)
	}
	versions = append(versions, final.PolicyVersion)

	var last uint64
	swaps := 0
	for _, v := range versions {
		if v < last {
			t.Fatalf("policy version went backwards across requests: %v", versions)
		}
		if v > last {
			swaps++
		}
		last = v
	}
	if last == 0 || swaps == 0 {
		t.Fatalf("no hot policy swap observed across %d requests", len(versions))
	}

	var phase PhaseResponse
	getJSON(t, client, ts.URL+"/phase", &phase)
	if phase.Phase != "done" || phase.TrainingActive || phase.PolicyVersion == 0 {
		t.Fatalf("phase after lifecycle: %+v", phase)
	}
	if len(phase.Transitions) != 4 {
		t.Fatalf("transitions %+v, want the 4-step state machine", phase.Transitions)
	}
	for i, tr := range phase.Transitions {
		if tr.Reason == "" {
			t.Fatalf("transition without a reason: %+v", tr)
		}
		// Timestamps are monotone, so each phase's duration is the
		// difference of two of them.
		if tr.At.IsZero() {
			t.Fatalf("transition %d has no time: %+v", i, tr)
		}
		if i > 0 && tr.At.Before(phase.Transitions[i-1].At) {
			t.Fatalf("transition %d at %v, before the one it follows at %v", i, tr.At, phase.Transitions[i-1].At)
		}
	}
}

// TestIntegrationPolicyVersionSurvivesBypass: a query wider than the policy
// was trained for is served by the expert, but its response still reports
// the latest published policy version — a client alternating covered and
// uncovered queries never sees policy_version drop back to 0.
func TestIntegrationPolicyVersionSurvivesBypass(t *testing.T) {
	svc := newTestTenant(t, 3, handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}))
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	if err := svc.StartTraining(context.Background(), quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svc.WaitTraining(context.Background()); err != nil {
		t.Fatal(err)
	}
	var narrow *handsfree.Query
	for _, q := range svc.Queries() {
		if len(q.Relations) == 4 {
			narrow = q
		}
	}
	wide, err := svc.System().Workload.ByRelations(7, 5)
	if narrow == nil || err != nil {
		t.Fatalf("no 4-relation workload query (%v) or no 7-relation one (%v)", narrow, err)
	}
	var last uint64
	for i, q := range []*handsfree.Query{narrow, wide, narrow, wide} {
		var plan PlanResponse
		if resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: q.SQL()}, &plan); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if q == wide && plan.Source != "expert" {
			t.Fatalf("7-relation query served from %q, want the expert bypass", plan.Source)
		}
		if plan.PolicyVersion == 0 || plan.PolicyVersion < last {
			t.Fatalf("request %d (%d relations): policy_version %d after %d", i, len(q.Relations), plan.PolicyVersion, last)
		}
		last = plan.PolicyVersion
	}
}

// TestIntegrationTwoTenantsIsolated proves the multi-tenant registry keeps
// workloads independent: tenant A trains to completion and serves from its
// own cache with its own fallback counters while tenant B — same listener,
// same admission queue — stays untrained, uncached, and uncounted.
func TestIntegrationTwoTenantsIsolated(t *testing.T) {
	// A's safeguard ratio is absurdly tight so its learned rollouts always
	// fall back — a deterministic way to exercise A's fallback counter.
	svcA := newTestTenant(t, 3,
		handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}),
		handsfree.WithFallbackRatio(1e-9))
	svcB := newTestTenant(t, 5)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"alpha": svcA, "beta": svcB})
	client := ts.Client()

	if err := svcA.StartTraining(context.Background(), quickLifecycle()); err != nil {
		t.Fatal(err)
	}
	if err := svcA.WaitTraining(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Serve A's workload twice (second pass hits A's plan cache).
	for round := 0; round < 2; round++ {
		for _, q := range svcA.Queries() {
			var plan PlanResponse
			resp := postJSON(t, client, ts.URL+"/plansql?tenant=alpha", PlanRequest{SQL: q.SQL()}, &plan)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("alpha plan status %d", resp.StatusCode)
			}
			if plan.PolicyVersion == 0 {
				t.Fatalf("trained tenant served with no policy: %+v", plan)
			}
		}
	}

	var statsA, statsB StatsResponse
	getJSON(t, client, ts.URL+"/stats?tenant=alpha", &statsA)
	getJSON(t, client, ts.URL+"/stats?tenant=beta", &statsB)
	a, b := statsA.Tenants[0], statsB.Tenants[0]
	if a.Phase != "done" || a.PolicyVersion == 0 || a.Plans != 8 {
		t.Fatalf("tenant alpha: %+v", a)
	}
	if a.Fallbacks == 0 {
		t.Fatalf("alpha's 1e-9 safeguard never fired: %+v", a)
	}
	if b.Phase != "idle" || b.PolicyVersion != 0 || b.Plans != 0 || b.Fallbacks != 0 {
		t.Fatalf("tenant beta leaked state from alpha: %+v", b)
	}

	// Caches are isolated: alpha's warmed, beta's empty (disabled).
	var cacheA, cacheB CacheResponse
	getJSON(t, client, ts.URL+"/cache?tenant=alpha", &cacheA)
	getJSON(t, client, ts.URL+"/cache?tenant=beta", &cacheB)
	if cacheA.Hits == 0 || cacheA.Size == 0 {
		t.Fatalf("alpha cache never warmed: %+v", cacheA)
	}
	if cacheB.Hits != 0 || cacheB.Misses != 0 || cacheB.Size != 0 {
		t.Fatalf("beta cache leaked from alpha: %+v", cacheB)
	}

	// Beta still serves — untrained, expert source, version 0.
	var planB PlanResponse
	resp := postJSON(t, client, ts.URL+"/plansql?tenant=beta", PlanRequest{SQL: svcB.Queries()[0].SQL()}, &planB)
	if resp.StatusCode != http.StatusOK || planB.Source != "expert" || planB.PolicyVersion != 0 {
		t.Fatalf("beta plan: status %d %+v", resp.StatusCode, planB)
	}
	getJSON(t, client, ts.URL+"/stats?tenant=beta", &statsB)
	if statsB.Tenants[0].Plans != 1 || statsB.Tenants[0].ExpertServed != 1 {
		t.Fatalf("beta counters: %+v", statsB.Tenants[0])
	}
}

// TestIntegrationGracefulDrainMidTraining shuts the server down while a
// tenant is mid-training and a slow plan is in flight: the in-flight plan
// must complete with 200, new requests must bounce with 503, healthz must
// flip to draining, the lifecycle goroutine must stop cleanly, and no
// goroutines may leak.
func TestIntegrationGracefulDrainMidTraining(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := newTestTenant(t, 3)
	srv, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := twelveRelSQL(t, svc)

	if err := svc.StartTraining(context.Background(), liveTraining()); err != nil {
		t.Fatal(err)
	}
	// Wait for training to actually be under way (past demonstration).
	deadline := time.Now().Add(30 * time.Second)
	for svc.Phase() != handsfree.PhaseCostTraining {
		if time.Now().After(deadline) {
			t.Fatalf("lifecycle never reached cost training (phase %v)", svc.Phase())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Put a slow plan in flight, then drain while it runs.
	inflight := make(chan PlanResponse, 1)
	inflightErr := make(chan error, 1)
	go func() {
		status, _, raw, err := rawPost(client, ts.URL+"/plansql",
			PlanRequest{SQL: sql, TimeoutMs: 30_000})
		if err != nil {
			inflightErr <- err
			return
		}
		if status != http.StatusOK {
			inflightErr <- fmt.Errorf("in-flight plan status %d: %s", status, raw)
			return
		}
		var plan PlanResponse
		if err := json.Unmarshal(raw, &plan); err != nil {
			inflightErr <- err
			return
		}
		inflight <- plan
	}()
	// Wait until the plan has passed admission and its sweep is under way —
	// only planning requests touch the Admitted counter, so this is exact.
	for waitStart := time.Now(); ; {
		var stats StatsResponse
		getJSON(t, client, ts.URL+"/stats", &stats)
		if stats.Server.Admitted >= 1 {
			break
		}
		if time.Since(waitStart) > 10*time.Second {
			t.Fatalf("plan request never admitted: %+v", stats.Server)
		}
		time.Sleep(2 * time.Millisecond)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	drainTime := time.Since(start)

	// The in-flight plan completed during the drain.
	select {
	case err := <-inflightErr:
		t.Fatal(err)
	case plan := <-inflight:
		if plan.Cost <= 0 {
			t.Fatalf("drained in-flight plan is torn: %+v", plan)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight plan never returned after drain")
	}
	if drainTime > 20*time.Second {
		t.Fatalf("drain took %v", drainTime)
	}

	// The lifecycle stopped cleanly mid-training.
	if got := svc.Phase(); got != handsfree.PhaseStopped {
		t.Fatalf("phase after drain = %v, want stopped", got)
	}
	if svc.TrainingActive() {
		t.Fatal("lifecycle goroutine still running after drain")
	}

	// New requests bounce with 503 + draining; healthz flips to draining.
	var er ErrorResponse
	resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: svc.Queries()[0].SQL()}, &er)
	if resp.StatusCode != http.StatusServiceUnavailable || er.Error.Code != "draining" {
		t.Fatalf("post-drain request: status %d body %+v", resp.StatusCode, er)
	}
	var health HealthResponse
	hresp := getJSON(t, client, ts.URL+"/healthz", &health)
	if hresp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz after drain: status %d %+v", hresp.StatusCode, health)
	}

	// No goroutine leak: with the listener closed and idle connections shut,
	// the count returns to (about) where it started.
	ts.Close()
	client.CloseIdleConnections()
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
