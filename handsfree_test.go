package handsfree

import (
	"bytes"
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

func TestPlanCacheWarmStartAPI(t *testing.T) {
	ctx := context.Background()
	coldSvc := testService(t, WithCache(CacheConfig{}))
	cold := coldSvc.System()
	q, err := cold.Workload.ByRelations(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldSvc.ExpertPlan(ctx, q); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cold.SavePlanCache(&buf); err != nil {
		t.Fatal(err)
	}

	warmSvc := testService(t, WithCache(CacheConfig{}))
	warm := warmSvc.System()
	restored, err := warm.LoadPlanCache(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("no entries restored from the dump")
	}
	q2, err := warm.Workload.ByRelations(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmSvc.ExpertPlan(ctx, q2); err != nil {
		t.Fatal(err)
	}
	st := warm.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("warm-started system planned without cache hits: %+v", st)
	}

	// Cache disabled → explicit errors, not nil panics.
	bare := testService(t).System()
	if err := bare.SavePlanCache(&buf); err == nil {
		t.Fatal("SavePlanCache succeeded without a cache")
	}
	if _, err := bare.LoadPlanCache(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadPlanCache succeeded without a cache")
	}
}

func TestLoadPlanCacheRejectsDifferentSystem(t *testing.T) {
	srcSvc := testService(t, WithCache(CacheConfig{}))
	src := srcSvc.System()
	q, err := src.Workload.ByRelations(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcSvc.ExpertPlan(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SavePlanCache(&buf); err != nil {
		t.Fatal(err)
	}
	// A differently scaled system computes different plans/costs for the
	// same fingerprints: the dump must be refused, not silently served.
	other := testService(t, WithScale(0.1), WithCache(CacheConfig{})).System()
	if _, err := other.LoadPlanCache(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("plan-cache dump from a different system configuration loaded without error")
	}
}

// TestSystemTagStable pins the plan-identity tag of three configurations, so
// plan-cache and execution-history dumps written by earlier builds keep
// loading: the tag still mixes the oracle seed 11 it mixed when that seed
// was a setting.
func TestSystemTagStable(t *testing.T) {
	for _, c := range []struct {
		cfg  config
		want uint64
	}{
		{config{Stats: StatsExact}, 0xffe56ab2d181c7b2},
		{config{Stats: StatsSketch}, 0x6e31f134898dcf6b},
		{config{Scale: 0.05, Stats: StatsExact}, 0x31625eac6de0c8e2},
	} {
		c.cfg.fill()
		if got := systemTag(c.cfg); got != c.want {
			t.Fatalf("systemTag(%+v) = %#x, want %#x", c.cfg, got, c.want)
		}
	}
}
