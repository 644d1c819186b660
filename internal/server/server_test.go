package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"handsfree"
	"handsfree/internal/plancache"
)

// newTestTenant builds a small-scale service with a 4-query workload.
func newTestTenant(t testing.TB, seed int64, opts ...handsfree.Option) *handsfree.Service {
	t.Helper()
	svc, err := handsfree.New(append([]handsfree.Option{
		handsfree.WithScale(0.05),
		handsfree.WithWorkload(4, 4, 5, seed),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// newTestServer mounts tenants on a Server behind httptest. The returned
// base URL has no trailing slash.
func newTestServer(t testing.TB, cfg Config, tenants map[string]*handsfree.Service) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for name, svc := range tenants {
		if _, err := reg.Add(name, svc); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(cfg, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON posts a JSON body and decodes the response into out (which may be
// nil to skip decoding). It returns the raw response for status/header
// checks; the body is fully read and closed.
func postJSON(t testing.TB, client *http.Client, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	return resp
}

// getJSON fetches a URL and decodes the JSON response into out.
func getJSON(t testing.TB, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	return resp
}

func TestHealthzAndTenantRouting(t *testing.T) {
	svcA := newTestTenant(t, 3)
	svcB := newTestTenant(t, 5)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"alpha": svcA, "beta": svcB})
	client := ts.Client()

	var health HealthResponse
	if resp := getJSON(t, client, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Tenants != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// Two tenants registered: a request naming none is a 400 listing them.
	var errResp ErrorResponse
	resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: "SELECT * FROM title t"}, &errResp)
	if resp.StatusCode != http.StatusBadRequest || errResp.Error.Code != "unknown_tenant" {
		t.Fatalf("tenantless request: status %d body %+v", resp.StatusCode, errResp)
	}
	if !strings.Contains(errResp.Error.Message, "alpha") || !strings.Contains(errResp.Error.Message, "beta") {
		t.Fatalf("tenantless error does not list tenants: %q", errResp.Error.Message)
	}

	// Unknown tenant name: 404.
	resp = postJSON(t, client, ts.URL+"/plansql?tenant=nope", PlanRequest{SQL: "SELECT * FROM title t"}, &errResp)
	if resp.StatusCode != http.StatusNotFound || errResp.Error.Code != "unknown_tenant" {
		t.Fatalf("unknown tenant: status %d body %+v", resp.StatusCode, errResp)
	}

	// Named tenants plan fine, via query param and via header.
	var plan PlanResponse
	resp = postJSON(t, client, ts.URL+"/plansql?tenant=alpha", PlanRequest{SQL: svcA.Queries()[0].SQL()}, &plan)
	if resp.StatusCode != http.StatusOK || plan.Tenant != "alpha" || plan.Cost <= 0 {
		t.Fatalf("alpha plan: status %d body %+v", resp.StatusCode, plan)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/plansql", strings.NewReader(`{"sql":"SELECT * FROM title t"}`))
	req.Header.Set("X-Tenant", "beta")
	hr, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("X-Tenant plan: status %d body %s", hr.StatusCode, body)
	}
}

func TestSingleTenantNeedsNoName(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	var plan PlanResponse
	resp := postJSON(t, ts.Client(), ts.URL+"/plansql", PlanRequest{SQL: svc.Queries()[0].SQL(), Explain: true}, &plan)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if plan.Tenant != "solo" || plan.Source != "expert" || plan.PolicyVersion != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Plan == "" {
		t.Fatal("explain=true returned no plan tree")
	}
	if plan.LearnedCost != nil {
		t.Fatalf("learned cost %v with no policy", *plan.LearnedCost)
	}
}

// wireOf renders a logical query in the /plan wire form.
func wireOf(q *handsfree.Query) *WireQuery {
	wq := &WireQuery{Name: q.Name}
	for _, r := range q.Relations {
		wq.Relations = append(wq.Relations, WireRelation{Table: r.Table, Alias: r.Alias})
	}
	for _, j := range q.Joins {
		wq.Joins = append(wq.Joins, WireJoin{LeftAlias: j.LeftAlias, LeftCol: j.LeftCol, RightAlias: j.RightAlias, RightCol: j.RightCol})
	}
	for _, f := range q.Filters {
		wq.Filters = append(wq.Filters, WireFilter{Alias: f.Alias, Column: f.Column, Op: f.Op.String(), Value: f.Value})
	}
	for _, a := range q.Aggregates {
		wq.Aggregates = append(wq.Aggregates, WireAggregate{Kind: a.Kind.String(), Alias: a.Alias, Column: a.Column})
	}
	for _, g := range q.GroupBys {
		wq.GroupBys = append(wq.GroupBys, WireGroupBy{Alias: g.Alias, Column: g.Column})
	}
	return wq
}

// TestFingerprintCarriedFromEveryConstructor: however a query reaches the
// planner — generated, parsed from SQL, decoded off the wire — the
// fingerprint the plan cache reads off it is the canonical one, before and
// after the service has planned it.
func TestFingerprintCarriedFromEveryConstructor(t *testing.T) {
	svc := newTestTenant(t, 3, handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 10}))
	generated, err := svc.System().Workload.Training(24, 2, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	cache := svc.System().PlanCache
	for i, q := range append(generated, svc.Queries()...) {
		parsed, err := handsfree.ParseSQL(q.SQL())
		if err != nil {
			t.Fatal(err)
		}
		decoded, apiErr := wireOf(q).toQuery()
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		want := plancache.Fingerprint(q)
		for _, v := range []struct {
			how string
			q   *handsfree.Query
		}{{"generated", q}, {"parsed", parsed}, {"wire-decoded", decoded}} {
			for _, when := range []string{"first lookup", "second lookup", "after Plan"} {
				if got := cache.FingerprintOf(v.q); got != want || got != plancache.Fingerprint(v.q) {
					t.Fatalf("query %d, %s, %s: FingerprintOf %x, Fingerprint %x, the generated query's %x",
						i, v.how, when, got, plancache.Fingerprint(v.q), want)
				}
				if when == "second lookup" {
					if res, err := svc.Plan(context.Background(), v.q); err != nil || res.Fingerprint != want {
						t.Fatalf("query %d, %s: Plan keyed %x (err %v), want %x", i, v.how, res.Fingerprint, err, want)
					}
				}
			}
		}
	}
}

func TestStructuredPlanEndpoint(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()

	// Build the wire form of a workload query and check /plan agrees with
	// /plansql on its SQL rendering.
	q := svc.Queries()[0]
	wq := wireOf(q)
	var structured, sql PlanResponse
	if resp := postJSON(t, client, ts.URL+"/plan", PlanRequest{Query: wq}, &structured); resp.StatusCode != http.StatusOK {
		t.Fatalf("/plan status %d: %+v", resp.StatusCode, structured)
	}
	if resp := postJSON(t, client, ts.URL+"/plansql", PlanRequest{SQL: q.SQL()}, &sql); resp.StatusCode != http.StatusOK {
		t.Fatalf("/plansql status %d", resp.StatusCode)
	}
	if structured.Cost != sql.Cost || structured.ExpertCost != sql.ExpertCost {
		t.Fatalf("structured cost %v vs sql cost %v", structured.Cost, sql.Cost)
	}
}

func TestMalformedRequestsAre400WithStructuredErrors(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()

	cases := []struct {
		name string
		path string
		body string
	}{
		{"empty body", "/plansql", ""},
		{"not JSON", "/plansql", "SELECT * FROM title"},
		{"trailing garbage", "/plansql", `{"sql":"SELECT * FROM title t"} extra`},
		{"unknown field", "/plansql", `{"sql":"SELECT * FROM title t","bogus":1}`},
		{"missing sql", "/plansql", `{}`},
		{"query on plansql", "/plansql", `{"sql":"x","query":{"relations":[{"table":"title"}]}}`},
		{"negative timeout", "/plansql", `{"sql":"SELECT * FROM title t","timeout_ms":-5}`},
		{"bad SQL", "/plansql", `{"sql":"DELETE FROM title"}`},
		{"missing query", "/plan", `{}`},
		{"sql on plan", "/plan", `{"sql":"SELECT * FROM title t"}`},
		{"no relations", "/plan", `{"query":{"relations":[]}}`},
		{"bad op", "/plan", `{"query":{"relations":[{"table":"title","alias":"t"}],"filters":[{"alias":"t","column":"id","op":"LIKE","value":1}]}}`},
		{"undeclared alias", "/plan", `{"query":{"relations":[{"table":"title","alias":"t"}],"filters":[{"alias":"x","column":"id","op":"=","value":1}]}}`},
		{"duplicate alias", "/plan", `{"query":{"relations":[{"table":"title","alias":"t"},{"table":"title","alias":"t"}]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("400 body is not the error envelope: %s", raw)
			}
			if er.Error.Code == "" || er.Error.Message == "" {
				t.Fatalf("unstructured 400: %+v", er)
			}
		})
	}

	// A well-formed query over names the tenant's schema lacks is a client
	// error too: tables and columns are validated against the catalog.
	var er ErrorResponse
	resp := postJSON(t, client, ts.URL+"/plan",
		PlanRequest{Query: &WireQuery{Relations: []WireRelation{{Table: "no_such_table"}}}}, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
		t.Fatalf("unknown table: status %d body %+v", resp.StatusCode, er)
	}
	resp = postJSON(t, client, ts.URL+"/plan",
		PlanRequest{Query: &WireQuery{
			Relations: []WireRelation{{Table: "title", Alias: "t"}},
			Filters:   []WireFilter{{Alias: "t", Column: "no_such_column", Op: "=", Value: 1}},
		}}, &er)
	if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
		t.Fatalf("unknown column: status %d body %+v", resp.StatusCode, er)
	}
}

// TestHugeTimeoutClampedToMax: a timeout_ms too large to count in
// nanoseconds is clamped to MaxTimeout like any other value above the cap,
// instead of wrapping to a deadline already past and answering 504.
func TestHugeTimeoutClampedToMax(t *testing.T) {
	svc := newTestTenant(t, 3)
	reg := NewRegistry()
	if _, err := reg.Add("solo", svc); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{}, reg)
	h := srv.Handler()
	sql := oneJoinSQL(t, svc)
	for _, ms := range []int64{10_000_000_000_000, 1 << 62, math.MaxInt64} {
		if d := srv.timeoutFor(&PlanRequest{TimeoutMs: ms}); d != srv.cfg.MaxTimeout {
			t.Errorf("timeout_ms %d resolves to %v, want the cap %v", ms, d, srv.cfg.MaxTimeout)
		}
		body, err := json.Marshal(PlanRequest{SQL: sql, TimeoutMs: ms})
		if err != nil {
			t.Fatal(err)
		}
		if rec := serveOnce(h, "/plansql", body); rec.Code != http.StatusOK {
			t.Errorf("timeout_ms %d: status %d, want 200: %s", ms, rec.Code, rec.Body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	resp, err := ts.Client().Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /plan status %d, want 405", resp.StatusCode)
	}
}

func TestAdmissionFastPathAndQueueFull(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond)
	release, wait, apiErr := a.admit(context.Background())
	if apiErr != nil || wait != 0 {
		t.Fatalf("fast path: wait %v err %+v", wait, apiErr)
	}
	// Slot held: one waiter fits the queue, the second is shed immediately.
	waiterDone := make(chan *apiError, 1)
	go func() {
		r2, _, e2 := a.admit(context.Background())
		if r2 != nil {
			defer r2()
		}
		waiterDone <- e2
	}()
	// Give the waiter time to enqueue, then overflow the queue.
	deadline := time.Now().Add(time.Second)
	for a.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_, _, e3 := a.admit(context.Background())
	if e3 == nil || e3.status != http.StatusTooManyRequests || e3.code != "queue_full" {
		t.Fatalf("overflow: %+v", e3)
	}
	if e3.retryAfterSec < 1 {
		t.Fatalf("429 without Retry-After estimate: %+v", e3)
	}
	release()
	if e2 := <-waiterDone; e2 != nil {
		t.Fatalf("queued waiter shed despite a freed slot: %+v", e2)
	}
	if got := a.shedQueueFull.Load(); got != 1 {
		t.Fatalf("shedQueueFull = %d", got)
	}
}

func TestAdmissionSLOShed(t *testing.T) {
	a := newAdmission(1, 4, 30*time.Millisecond)
	release, _, apiErr := a.admit(context.Background())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	defer release()
	start := time.Now()
	_, _, e2 := a.admit(context.Background())
	if e2 == nil || e2.code != "slo_shed" || e2.status != http.StatusTooManyRequests {
		t.Fatalf("SLO shed: %+v", e2)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("shed after %v, want ≈ the 30ms SLO", elapsed)
	}
	if a.shedSLO.Load() != 1 {
		t.Fatalf("shedSLO = %d", a.shedSLO.Load())
	}
}

func TestAdmissionCanceledWhileQueued(t *testing.T) {
	a := newAdmission(1, 4, time.Minute)
	release, _, apiErr := a.admit(context.Background())
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(time.Second)
		for a.queued.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, _, e2 := a.admit(ctx)
	if e2 == nil || e2.code != "canceled" {
		t.Fatalf("canceled waiter: %+v", e2)
	}
}

// TestDescribeGolden pins the operator-facing serving-config rendering: the
// `handsfree env` serving section must stay diffable across deployments, so
// its exact layout is golden.
func TestDescribeGolden(t *testing.T) {
	pinned := Config{
		Addr:           ":9090",
		Concurrency:    8,
		QueueDepth:     32,
		SLO:            250 * time.Millisecond,
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     time.Minute,
		DrainTimeout:   15 * time.Second,
	}
	want := `serving:
  addr:            :9090
  tenants:         2
  concurrency:     8
  queue depth:     32
  queue-wait SLO:  250ms
  default timeout: 10s
  max timeout:     1m0s
  drain timeout:   15s
`
	if got := pinned.Describe(2); got != want {
		t.Fatalf("Describe mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestDescribeDefaults(t *testing.T) {
	got := Config{}.Describe(1)
	var c Config
	c.fill()
	for _, want := range []string{
		"addr:            :8080",
		"tenants:         1",
		fmt.Sprintf("concurrency:     %d", c.Concurrency),
		fmt.Sprintf("queue depth:     %d", 4*c.Concurrency),
		"queue-wait SLO:  500ms",
		"default timeout: 30s",
		"max timeout:     2m0s",
		"drain timeout:   30s",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("Describe defaults missing %q:\n%s", want, got)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	svc := newTestTenant(t, 3)
	if _, err := reg.Add("", svc); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	if _, err := reg.Add("a", nil); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := reg.Add("a", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("a", svc); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if _, ok := reg.Get("a"); !ok {
		t.Fatal("registered tenant not found")
	}
	if _, ok := reg.Get(""); !ok {
		t.Fatal("single-tenant empty-name lookup failed")
	}
	if _, err := reg.Add("b", svc); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(""); ok {
		t.Fatal("empty-name lookup resolved with two tenants")
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}
}
