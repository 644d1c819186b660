package handsfree

import (
	"context"
	"strings"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	sys := testService(t).System()
	if sys.DB == nil || sys.Planner == nil || sys.Latency == nil || sys.Engine == nil {
		t.Fatal("New left components nil")
	}
	if n := sys.DB.Catalog.NumTables(); n != 21 {
		t.Fatalf("catalog has %d tables, want 21", n)
	}
}

func TestPlanSQLEndToEnd(t *testing.T) {
	svc := testService(t)
	planned, err := svc.PlanSQL(context.Background(), `SELECT COUNT(*) FROM title t, movie_companies mc
		WHERE mc.movie_id = t.id AND t.production_year > 50`)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Cost <= 0 {
		t.Fatalf("cost %v", planned.Cost)
	}
	explain := ExplainPlan(planned.Plan)
	if !strings.Contains(explain, "title") || !strings.Contains(explain, "movie_companies") {
		t.Fatalf("explain output missing relations:\n%s", explain)
	}
}

func TestExecuteMatchesPlanShape(t *testing.T) {
	svc := testService(t)
	q, err := ParseSQL(`SELECT COUNT(*) FROM title t WHERE t.production_year > 100`)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := svc.ExpertPlan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, work, err := svc.System().Execute(q, planned.Root)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 {
		t.Fatalf("aggregate result rows = %d, want 1", res.N)
	}
	if work.TuplesRead == 0 {
		t.Fatal("no work recorded")
	}
}

func TestLatencyModelPositiveAndDeterministic(t *testing.T) {
	svc := testService(t)
	sys := svc.System()
	q := sys.Workload.MustNamed("1a")
	planned, err := svc.ExpertPlan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	l1 := sys.Latency.Latency(q, planned.Root)
	l2 := sys.Latency.Latency(q, planned.Root)
	if l1 <= 0 || l1 != l2 {
		t.Fatalf("latency %v / %v", l1, l2)
	}
}

func TestParseSQLErrors(t *testing.T) {
	if _, err := ParseSQL("DROP TABLE title"); err == nil {
		t.Fatal("accepted non-SELECT statement")
	}
}
