package server

import (
	"net/http"
	"testing"

	"handsfree"
)

// oneJoinSQL renders a small query from the tenant's workload (same seed ⇒
// same schema across tenants, so one SQL string drives both).
func oneJoinSQL(t testing.TB, svc *handsfree.Service) string {
	t.Helper()
	q, err := svc.System().Workload.ByRelations(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q.SQL()
}

// TestExecuteEndpoint drives POST /executesql end to end on an untrained
// tenant: the response carries the serving decision (expert — nothing is
// trained) plus a real observed latency, and GET /drift reflects the
// execution in the tenant's feedback-loop counters.
func TestExecuteEndpoint(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := oneJoinSQL(t, svc)

	var er ExecuteResponse
	resp := postJSON(t, client, ts.URL+"/executesql",
		PlanRequest{SQL: sql, Explain: true}, &er)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %+v", resp.StatusCode, er)
	}
	if er.Source != "expert" {
		t.Fatalf("untrained tenant served source %q, want expert", er.Source)
	}
	if er.LatencyMs <= 0 || er.Rows <= 0 || er.WorkUnits <= 0 {
		t.Fatalf("execution observables missing: latency=%v rows=%d work=%d",
			er.LatencyMs, er.Rows, er.WorkUnits)
	}
	if er.Fingerprint == "" || er.Fingerprint == "0000000000000000" {
		t.Fatalf("fingerprint %q, want non-zero hex", er.Fingerprint)
	}
	if er.Plan == "" {
		t.Fatal("explain requested but no plan rendering returned")
	}
	if er.TotalMs < 0 {
		t.Fatalf("total_ms %v", er.TotalMs)
	}

	var dr DriftResponse
	getJSON(t, client, ts.URL+"/drift", &dr)
	if dr.Executions != 1 || dr.History.Records != 1 || dr.History.Expert != 1 {
		t.Fatalf("drift counters after one execute: %+v", dr)
	}
	if dr.GuardRatio != handsfree.DefaultLatencyGuardRatio {
		t.Fatalf("guard_ratio %v, want default %v", dr.GuardRatio, handsfree.DefaultLatencyGuardRatio)
	}
	if dr.DriftRatio <= 0 || dr.DriftSustain <= 0 {
		t.Fatalf("drift thresholds unresolved: %+v", dr)
	}
	// The per-fingerprint view: one expert execution ⇒ one entry keyed by
	// the decision's fingerprint, an expert-only window, no ratio verdict
	// yet, no drift streak.
	if len(dr.Entries) != 1 {
		t.Fatalf("drift entries after one execute: %+v", dr.Entries)
	}
	ent := dr.Entries[0]
	if ent.Fingerprint != er.Fingerprint {
		t.Fatalf("entry fingerprint %q, decision fingerprint %q", ent.Fingerprint, er.Fingerprint)
	}
	if ent.Expert != 1 || ent.Learned != 0 || ent.Ratio != nil || ent.Streak != 0 {
		t.Fatalf("entry after one expert execute: %+v", ent)
	}
	if ent.LastSource != "expert" {
		t.Fatalf("entry last_source %q, want expert", ent.LastSource)
	}

	// The executor's memo, next to the history. An operator's output is kept
	// the second time it is computed, so the same statement twice more runs
	// once more and then not at all: the third execution is one hit, at the
	// plan's root, and nothing beneath it is asked or built — with the same
	// rows, work and latency.
	if m := dr.ScanMemo; m.ScanMisses == 0 || m.PlanMisses == 0 || m.PlanHits != 0 || m.Bytes <= 0 {
		t.Fatalf("scan_memo after one execute: %+v", m)
	}
	var memo [2]ScanMemoInfo
	for i := range memo {
		var again ExecuteResponse
		postJSON(t, client, ts.URL+"/executesql", PlanRequest{SQL: sql}, &again)
		if again.Rows != er.Rows || again.WorkUnits != er.WorkUnits || again.LatencyMs != er.LatencyMs {
			t.Fatalf("execute %d (rows %d, work %d, %v ms) differs from the first (%d, %d, %v ms)",
				i+2, again.Rows, again.WorkUnits, again.LatencyMs, er.Rows, er.WorkUnits, er.LatencyMs)
		}
		var d DriftResponse
		getJSON(t, client, ts.URL+"/drift", &d)
		memo[i] = d.ScanMemo
	}
	want := memo[0]
	want.PlanHits++
	if memo[1] != want {
		t.Fatalf("scan_memo after the third execute: %+v, want the second's with one more plan hit: %+v", memo[1], want)
	}

	// The structured endpoint rejects a SQL body and vice versa, like /plan.
	resp = postJSON(t, client, ts.URL+"/execute", PlanRequest{SQL: sql}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/execute with sql body: status %d, want 400", resp.StatusCode)
	}
}

// TestExecuteEndpointErrors: unknown tenants and malformed bodies surface as
// structured 4xx, and an injected execution failure on an expert-served plan
// is a 422 execute_error (there is no cheaper plan to fall back to).
func TestExecuteEndpointErrors(t *testing.T) {
	svc := newTestTenant(t, 3)
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"solo": svc})
	client := ts.Client()
	sql := oneJoinSQL(t, svc)

	var er ErrorResponse
	resp := postJSON(t, client, ts.URL+"/executesql?tenant=ghost", PlanRequest{SQL: sql}, &er)
	if resp.StatusCode != http.StatusNotFound || er.Error.Code != "unknown_tenant" {
		t.Fatalf("unknown tenant: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	resp = postJSON(t, client, ts.URL+"/executesql", PlanRequest{SQL: "SELECT nonsense"}, &er)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL: status %d, want 400", resp.StatusCode)
	}

	getJSON(t, client, ts.URL+"/drift?tenant=ghost", &er)
	if er.Error.Code != "unknown_tenant" {
		t.Fatalf("/drift unknown tenant code %q", er.Error.Code)
	}

	// Every execution fails ⇒ the expert-served plan has no fallback left.
	svc.Faults().FailEvery(1)
	defer svc.Faults().Clear()
	resp = postJSON(t, client, ts.URL+"/executesql", PlanRequest{SQL: sql}, &er)
	if resp.StatusCode != http.StatusUnprocessableEntity || er.Error.Code != "execute_error" {
		t.Fatalf("injected failure: status %d code %q, want 422 execute_error", resp.StatusCode, er.Error.Code)
	}
}

// TestIntegrationTwoTenantDriftIsolation: tenants share the listener and the
// admission queue but nothing in the execution feedback loop. Faults injected
// into tenant A's engine (latency inflation + periodic failures) must inflate
// A's observed latencies and failure counters while tenant B — same schema,
// same SQL — keeps executing at baseline with a clean /drift snapshot.
func TestIntegrationTwoTenantDriftIsolation(t *testing.T) {
	svcA := newTestTenant(t, 3)
	svcB := newTestTenant(t, 3) // same seed: same schema, comparable latencies
	_, ts := newTestServer(t, Config{}, map[string]*handsfree.Service{"a": svcA, "b": svcB})
	client := ts.Client()
	sql := oneJoinSQL(t, svcA)

	// Baseline on B, then inject drift into A only: every table 25× slower,
	// every 3rd execution fails outright.
	var base ExecuteResponse
	if resp := postJSON(t, client, ts.URL+"/executesql?tenant=b", PlanRequest{SQL: sql}, &base); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline execute on b: status %d", resp.StatusCode)
	}
	for _, tbl := range svcA.System().DB.Catalog.TableNames() {
		svcA.Faults().InflateTable(tbl, 25)
	}
	svcA.Faults().FailEvery(3)

	const rounds = 6
	aFailures := 0
	for i := 0; i < rounds; i++ {
		var ea ExecuteResponse
		resp := postJSON(t, client, ts.URL+"/executesql?tenant=a", PlanRequest{SQL: sql}, &ea)
		switch resp.StatusCode {
		case http.StatusOK:
			if ea.LatencyMs < 20*base.LatencyMs {
				t.Fatalf("tenant a execution %d not inflated: %v ms vs baseline %v ms", i, ea.LatencyMs, base.LatencyMs)
			}
		case http.StatusUnprocessableEntity:
			aFailures++
		default:
			t.Fatalf("tenant a execution %d: status %d", i, resp.StatusCode)
		}
		var eb ExecuteResponse
		if resp := postJSON(t, client, ts.URL+"/executesql?tenant=b", PlanRequest{SQL: sql}, &eb); resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant b execution %d: status %d", i, resp.StatusCode)
		} else if eb.LatencyMs != base.LatencyMs {
			t.Fatalf("tenant b latency moved under a's faults: %v ms vs %v ms", eb.LatencyMs, base.LatencyMs)
		}
	}
	if aFailures == 0 {
		t.Fatal("FailEvery(3) on tenant a never surfaced over 6 executions")
	}

	var da, db DriftResponse
	getJSON(t, client, ts.URL+"/drift?tenant=a", &da)
	getJSON(t, client, ts.URL+"/drift?tenant=b", &db)
	if da.Executions != rounds || da.Failures == 0 {
		t.Fatalf("tenant a drift snapshot: %+v (want %d executions, >0 failures)", da, rounds)
	}
	if db.Executions != rounds+1 || db.Failures != 0 || db.History.Failures != 0 {
		t.Fatalf("tenant b drift snapshot polluted by a's faults: %+v", db)
	}
	if db.History.Records != rounds+1 {
		t.Fatalf("tenant b history records %d, want %d", db.History.Records, rounds+1)
	}
}
