package handsfree

import (
	"context"
	"math"
	"testing"

	"handsfree/internal/query"
)

// approxQuery is a sketch-eligible single-relation aggregate over the
// generated title table: COUNT(*) and SUM(production_year).
func approxQuery() *Query {
	return &Query{
		Relations: []query.Relation{{Table: "title", Alias: "t"}},
		Aggregates: []query.Aggregate{
			{Kind: query.AggCount},
			{Kind: query.AggSum, Alias: "t", Column: "production_year"},
		},
	}
}

// exactAggs computes the true COUNT and SUM the approximate path estimates.
func exactAggs(t *testing.T, svc *Service, q *Query) (count, sum float64) {
	t.Helper()
	tab := svc.System().DB.Store.Tables[q.Relations[0].Table]
	if tab == nil {
		t.Fatal("no such table")
	}
	col := tab.Cols[q.Aggregates[1].Column]
	for i := 0; i < tab.N; i++ {
		ok := true
		for _, f := range q.Filters {
			if !matchOp(f.Op, tab.Cols[f.Column][i], f.Value) {
				ok = false
				break
			}
		}
		if ok {
			count++
			sum += float64(col[i])
		}
	}
	return count, sum
}

func matchOp(op query.CmpOp, v, c int64) bool {
	switch op {
	case query.Eq:
		return v == c
	case query.Ne:
		return v != c
	case query.Lt:
		return v < c
	case query.Le:
		return v <= c
	case query.Gt:
		return v > c
	case query.Ge:
		return v >= c
	}
	return false
}

// TestServiceExecuteApprox is the end-to-end acceptance property: an
// approximate execution reports estimates whose confidence intervals cover
// the exact answers, records a reduced-scan latency, and the first serve's
// exact audit scores full CI coverage.
func TestServiceExecuteApprox(t *testing.T) {
	svc := testService(t)
	q := approxQuery()
	res, err := svc.ExecuteApprox(context.Background(), q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approx || res.ApproxFellBack {
		t.Fatalf("expected an approximately served answer, got %+v", res)
	}
	if len(res.Estimates) != 3 { // COUNT, SUM, derived AVG
		t.Fatalf("got %d estimates, want 3: %+v", len(res.Estimates), res.Estimates)
	}
	count, sum := exactAggs(t, svc, q)
	want := map[string]float64{
		"agg0_COUNT":           count,
		"agg1_SUM":             sum,
		"avg1_production_year": sum / count,
	}
	for _, est := range res.Estimates {
		exact, ok := want[est.Name]
		if !ok {
			t.Fatalf("unexpected estimate %q", est.Name)
		}
		if est.Lo > exact || est.Hi < exact {
			t.Errorf("%s: CI [%.1f, %.1f] misses exact %.1f", est.Name, est.Lo, est.Hi, exact)
		}
		if est.RelError > 0.05 {
			t.Errorf("%s: rel error %.3f exceeds the met budget", est.Name, est.RelError)
		}
	}
	if !(res.LatencyMs > 0) || res.WorkUnits <= 0 {
		t.Fatalf("no observed latency/work: %+v", res)
	}
	if !(res.SampleFraction > 0 && res.SampleFraction <= 1) {
		t.Fatalf("SampleFraction %v out of range", res.SampleFraction)
	}
	st := svc.ApproxStats()
	if st.Served != 1 || st.Fallbacks != 0 {
		t.Fatalf("approx stats %+v", st)
	}
	// The first approximate serve is audited against exact execution: every
	// auditable estimate's CI must have covered the truth.
	if st.Audits != 1 || st.AuditEstimates == 0 || st.AuditCovered != st.AuditEstimates {
		t.Fatalf("audit did not confirm coverage: %+v", st)
	}
	if math.IsNaN(st.AuditMeanRelError) || st.AuditMeanRelError > 0.05 {
		t.Fatalf("audit mean relative error %v exceeds budget", st.AuditMeanRelError)
	}
	// The approximate execution landed in the latency history like any other.
	if es := svc.ExecStats(); es.Executions != 1 || es.History.Records == 0 {
		t.Fatalf("approx execution not recorded: %+v", es)
	}
}

// TestServiceExecuteApproxFallsBackIneligible: a multi-relation query cannot
// be approximated; ExecuteApprox transparently serves the exact execution.
func TestServiceExecuteApproxFallsBackIneligible(t *testing.T) {
	svc := testService(t)
	q := svc.Queries()[0] // 4–5 relations: joins are ineligible
	res, err := svc.ExecuteApprox(context.Background(), q, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || !res.ApproxFellBack {
		t.Fatalf("join query should have fallen back to exact: %+v", res)
	}
	if len(res.Estimates) != 0 || !(res.LatencyMs > 0) {
		t.Fatalf("fallback result malformed: %+v", res)
	}
	if st := svc.ApproxStats(); st.Served != 0 || st.Fallbacks != 1 {
		t.Fatalf("approx stats %+v", st)
	}
}

// TestServiceExecuteApproxFallsBackOnBudget: an unsatisfiably tight error
// budget triggers the exact fallback — the caller still gets an answer.
func TestServiceExecuteApproxFallsBackOnBudget(t *testing.T) {
	svc := testService(t)
	res, err := svc.ExecuteApprox(context.Background(), approxQuery(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || !res.ApproxFellBack {
		t.Fatalf("unsatisfiable budget should have fallen back: %+v", res)
	}
	if st := svc.ApproxStats(); st.Fallbacks != 1 {
		t.Fatalf("fallback not counted: %+v", st)
	}
}
