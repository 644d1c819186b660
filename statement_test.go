package handsfree

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"handsfree/internal/plancache"
	"handsfree/internal/query"
)

// TestStatementResolve: the second sight of a text stores it; from then on
// every caller, lenient or checking, gets the one stored query and its one
// cached fingerprint; errors are typed so a front end can tell a name the
// catalog lacks from text that does not parse.
func TestStatementResolve(t *testing.T) {
	svc := decisionService(t)
	ctx := context.Background()
	sql := svc.Queries()[0].SQL()
	first, err := svc.ResolveSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.ResolveSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("a statement was stored at first sight")
	}
	if _, err := svc.PlanSQL(ctx, sql); err != nil {
		t.Fatal(err)
	}
	fp, ok := second.CachedFingerprint()
	if !ok || fp != plancache.Fingerprint(svc.Queries()[0]) {
		t.Fatalf("planning the text left fingerprint %x (cached: %v) on the stored query", fp, ok)
	}
	for i := 0; i < 3; i++ {
		if q, err := svc.ResolveSQL(sql); err != nil || q != second {
			t.Fatalf("ResolveSQL = %p, %v; want the stored query %p", q, err, second)
		}
	}
	if res, err := svc.ExecuteSQL(ctx, sql); err != nil || res.Fingerprint != fp {
		t.Fatalf("ExecuteSQL: fingerprint %x, err %v", res.Fingerprint, err)
	}
	if st := svc.CacheStats().Statements; st.Size != 1 || st.Misses != 2 || st.Hits != 5 {
		t.Fatalf("statement table %+v, want 1 held, 2 misses, 5 hits", st)
	}

	var ce *CatalogError
	if _, err := svc.ResolveSQL("SELECT * FROM no_such_table n"); !errors.As(err, &ce) || ce.Table != "no_such_table" {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := svc.ResolveSQL("SELECT * FROM title t WHERE t.nope = 1"); !errors.As(err, &ce) || ce.Table != "" {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := svc.ResolveSQL("SELEC 1"); err == nil || errors.As(err, &ce) {
		t.Fatalf("parse error: %v", err)
	}
}

// TestStatementTableBounded streams 50 000 distinct statements through the
// resolver, each twice so that every one is admitted: the table never holds
// more than its constant, and what it pins stays under a few megabytes.
func TestStatementTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 50 000 queries; skipped in -short mode")
	}
	svc, err := New(WithScale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := svc.System().Workload.Training(50_000, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, q := range queries {
		sql := q.SQL()
		for i := 0; i < 2; i++ {
			if _, err := svc.ResolveSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		if size := svc.CacheStats().Statements.Size; size > plancache.MaxStatements {
			t.Fatalf("%d statements held, the table's constant is %d", size, plancache.MaxStatements)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(queries)
	st := svc.CacheStats().Statements
	if st.Size != plancache.MaxStatements {
		t.Fatalf("%d statements held after %d distinct ones, want a full table of %d", st.Size, len(queries), plancache.MaxStatements)
	}
	const bound = 4 << 20
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > bound {
		t.Fatalf("live heap grew %d bytes over %d statements, bound %d", grown, len(queries), bound)
	}
	t.Logf("%d statements held, %d bytes retained, %d hits / %d misses", st.Size, grown, st.Hits, st.Misses)
}

// queryContent is a deep copy of everything a query says.
func queryContent(q *Query) Query {
	return Query{
		Name:       q.Name,
		Relations:  append([]query.Relation(nil), q.Relations...),
		Joins:      append([]query.Join(nil), q.Joins...),
		Filters:    append([]query.Filter(nil), q.Filters...),
		Aggregates: append([]query.Aggregate(nil), q.Aggregates...),
		GroupBys:   append([]query.GroupBy(nil), q.GroupBys...),
	}
}

// TestSharedQueryNotMutated: a query the statement table hands out is shared
// by every request that sends its text, and svc.Queries() by serving and
// training at once. Nothing that consumes a query — Plan, Execute,
// ExecuteApprox, a whole training lifecycle — may write to one.
func TestSharedQueryNotMutated(t *testing.T) {
	svc := decisionService(t)
	ctx := context.Background()
	shared := append([]*Query(nil), svc.Queries()...)
	for _, sql := range []string{
		svc.Queries()[1].SQL(),
		"SELECT COUNT(*), SUM(t.production_year) FROM title t WHERE t.production_year > 50",
		"SELECT t.kind_id, COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id GROUP BY t.kind_id",
	} {
		var q *Query
		for i := 0; i < 3; i++ {
			var err error
			if q, err = svc.ResolveSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
		shared = append(shared, q)
	}
	var want []Query
	for _, q := range shared {
		want = append(want, queryContent(q))
	}
	check := func(after string) {
		t.Helper()
		for i, q := range shared {
			if got := queryContent(q); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("after %s, shared query %d reads\n %+v\nit read\n %+v", after, i, got, want[i])
			}
		}
	}
	use := func(after string) {
		t.Helper()
		for _, q := range shared {
			if _, err := svc.Plan(ctx, q); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Execute(ctx, q); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.ExecuteApprox(ctx, q, 0.05); err != nil {
				t.Fatal(err)
			}
		}
		check(after)
	}
	use("serving untrained")
	trainDecisionService(t, svc)
	check("a training lifecycle")
	use("serving the trained policy")
}
