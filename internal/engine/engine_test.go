package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// tinyDB builds a small deterministic database for exact-answer tests.
//
//	users:  id 0..9,  age = id*10
//	orders: id 0..19, user_id = id % 10, amount = id
func tinyDB() *storage.DB {
	db := storage.NewDB()
	users := storage.NewTable("users", 10)
	ids := make([]int64, 10)
	ages := make([]int64, 10)
	for i := range ids {
		ids[i] = int64(i)
		ages[i] = int64(i * 10)
	}
	_ = users.AddColumn("id", ids)
	_ = users.AddColumn("age", ages)
	db.Add(users)

	orders := storage.NewTable("orders", 20)
	oid := make([]int64, 20)
	uid := make([]int64, 20)
	amt := make([]int64, 20)
	for i := range oid {
		oid[i] = int64(i)
		uid[i] = int64(i % 10)
		amt[i] = int64(i)
	}
	_ = orders.AddColumn("id", oid)
	_ = orders.AddColumn("user_id", uid)
	_ = orders.AddColumn("amount", amt)
	db.Add(orders)
	return db
}

func tinyQuery() *query.Query {
	return &query.Query{
		Relations: []query.Relation{
			{Table: "users", Alias: "u"},
			{Table: "orders", Alias: "o"},
		},
		Joins: []query.Join{
			{LeftAlias: "o", LeftCol: "user_id", RightAlias: "u", RightCol: "id"},
		},
	}
}

// rowsOf flattens a result into sorted strings for order-insensitive
// comparison.
func rowsOf(t *testing.T, r *Result, cols ...string) []string {
	t.Helper()
	out := make([]string, r.N)
	for i := 0; i < r.N; i++ {
		s := ""
		for _, c := range cols {
			col, err := r.Column(c)
			if err != nil {
				t.Fatal(err)
			}
			s += fmt.Sprintf("%d|", col[i])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	var want []string
	for _, algo := range plan.JoinAlgos {
		e := New(db)
		root := plan.JoinNodes(q, algo, plan.BuildScan(q, "o", plan.SeqScan, ""), plan.BuildScan(q, "u", plan.SeqScan, ""))
		res, _, err := e.Execute(q, root)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.N != 20 {
			t.Fatalf("%v: joined %d rows, want 20 (every order matches one user)", algo, res.N)
		}
		got := rowsOf(t, res, "o.id", "u.id", "u.age")
		if want == nil {
			want = got
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: row %d = %q, want %q", algo, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFiltersApplied(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	q.Filters = []query.Filter{{Alias: "u", Column: "age", Op: query.Ge, Value: 50}}
	e := New(db)
	root := plan.JoinNodes(q, plan.HashJoin,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	res, _, err := e.Execute(q, root)
	if err != nil {
		t.Fatal(err)
	}
	// Users 5..9 qualify; each has 2 orders → 10 rows.
	if res.N != 10 {
		t.Fatalf("got %d rows, want 10", res.N)
	}
	ages, _ := res.Column("u.age")
	for _, a := range ages {
		if a < 50 {
			t.Fatalf("row with age %d escaped the filter", a)
		}
	}
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations: []query.Relation{{Table: "orders", Alias: "o"}},
		Filters:   []query.Filter{{Alias: "o", Column: "user_id", Op: query.Eq, Value: 3}},
	}
	for _, access := range []struct {
		ap  plan.AccessPath
		col string
	}{
		{plan.IndexScan, "user_id"},
		{plan.HashIndexScan, "user_id"},
	} {
		e := New(db)
		res, _, err := e.Execute(q, plan.BuildScan(q, "o", access.ap, access.col))
		if err != nil {
			t.Fatal(err)
		}
		seqRes, _, err := New(db).Execute(q, plan.BuildScan(q, "o", plan.SeqScan, ""))
		if err != nil {
			t.Fatal(err)
		}
		got := rowsOf(t, res, "o.id", "o.amount")
		want := rowsOf(t, seqRes, "o.id", "o.amount")
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows vs seq %d", access.ap, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v row %d: %q vs %q", access.ap, i, got[i], want[i])
			}
		}
	}
}

func TestIndexRangeScan(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations: []query.Relation{{Table: "users", Alias: "u"}},
		Filters: []query.Filter{
			{Alias: "u", Column: "age", Op: query.Gt, Value: 20},
			{Alias: "u", Column: "age", Op: query.Le, Value: 60},
		},
	}
	e := New(db)
	res, w, err := e.Execute(q, plan.BuildScan(q, "u", plan.IndexScan, "age"))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 { // ages 30,40,50,60
		t.Fatalf("got %d rows, want 4", res.N)
	}
	// Range scan must read fewer tuples than the whole table.
	if w.TuplesRead >= 10 {
		t.Fatalf("index range scan read %d tuples, want < 10", w.TuplesRead)
	}
}

func TestCrossProductCounts(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	q.Joins = nil // force a cross product
	e := New(db)
	root := plan.JoinNodes(q, plan.NestLoop,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	res, _, err := e.Execute(q, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 200 {
		t.Fatalf("cross product produced %d rows, want 200", res.N)
	}
}

func TestBudgetAborts(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	q.Joins = nil
	e := New(db)
	e.Budget = 50
	root := plan.JoinNodes(q, plan.NestLoop,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	_, _, err := e.Execute(q, root)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// TestJoinFanOutStopsBeforeMaterializing: a join whose output dwarfs the work
// budget must return ErrBudget while it still holds only matched row indices.
// Both tables carry one key value, so the 2000×2000 join matches 4M pairs —
// 128 MB of output columns — against a budget worth ~70k pairs.
func TestJoinFanOutStopsBeforeMaterializing(t *testing.T) {
	const n = 2000
	db := storage.NewDB()
	for _, name := range []string{"l", "r"} {
		tab := storage.NewTable(name, n)
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		_ = tab.AddColumn("id", ids)
		_ = tab.AddColumn("k", make([]int64, n))
		db.Add(tab)
	}
	q := &query.Query{
		Relations: []query.Relation{{Table: "l", Alias: "l"}, {Table: "r", Alias: "r"}},
		Joins:     []query.Join{{LeftAlias: "l", LeftCol: "k", RightAlias: "r", RightCol: "k"}},
	}
	for _, algo := range plan.JoinAlgos {
		e := New(db)
		root := plan.JoinNodes(q, algo, plan.BuildScan(q, "l", plan.SeqScan, ""), plan.BuildScan(q, "r", plan.SeqScan, ""))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := e.ExecuteBudget(q, root, 200_000)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("%v: err = %v, want ErrBudget", algo, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%v: allocated %d MB before giving up, want well under the 128 MB output", algo, got>>20)
		}
	}
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// refusedJoin executes l ⋈ r — two 4000-row tables whose k column holds one
// value, so their cross product and their join on k are both 16M pairs, five
// times what the service's default 10⁷-unit budget admits — as a nested loop
// over the given predicates, and requires the refusal to come before the
// pairs are stored.
func refusedJoin(t *testing.T, joins []query.Join) {
	t.Helper()
	const n = 4000
	db := storage.NewDB()
	for _, name := range []string{"l", "r"} {
		tab := storage.NewTable(name, n)
		_ = tab.AddColumn("k", make([]int64, n))
		db.Add(tab)
	}
	q := &query.Query{Relations: []query.Relation{{Table: "l", Alias: "l"}, {Table: "r", Alias: "r"}}, Joins: joins}
	root := plan.JoinNodes(q, plan.NestLoop, plan.BuildScan(q, "l", plan.SeqScan, ""), plan.BuildScan(q, "r", plan.SeqScan, ""))
	if plan.CrossProduct(root) != (len(joins) == 0) {
		t.Fatalf("CrossProduct = %v with %d predicates", plan.CrossProduct(root), len(joins))
	}
	e := New(db)
	var err error
	got := allocatedBy(func() { _, _, err = e.ExecuteBudget(q, root, 1e7) })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if got > 1<<20 {
		t.Errorf("allocated %d KB before refusing, want under 1 MB", got>>10)
	}
}

// TestCrossProductRefusedBeforeAllocating: a cross product the budget refuses
// is refused from its row counts, before a single pair is stored. Storing
// pairs until the check trips holds 3.3M of them — tens of MB.
func TestCrossProductRefusedBeforeAllocating(t *testing.T) { refusedJoin(t, nil) }

// TestNestLoopRefusedBeforeAllocating: the same for a keyed nested loop whose
// every pair matches — it is refused holding a key index over the 4000 right
// rows and one probe per admitted left row, not the pairs.
func TestNestLoopRefusedBeforeAllocating(t *testing.T) {
	refusedJoin(t, []query.Join{{LeftAlias: "l", LeftCol: "k", RightAlias: "r", RightCol: "k"}})
}

// TestScanCopiesNoUnreadColumns: what executing a plan allocates depends on
// the rows it handles and the columns it names, not on how wide the tables
// are. The benchmark's six training queries run under their expert plans,
// then again after every table has grown 40 columns nobody reads.
func TestScanCopiesNoUnreadColumns(t *testing.T) {
	db, planner, queries := goldenWorkload(t)
	queries = queries[:6]
	roots := make([]plan.Node, len(queries))
	for i, q := range queries {
		p, err := planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = p.Root
	}
	measure := func() uint64 {
		e := New(db.Store)
		run := func() {
			for i, q := range queries {
				if _, _, err := e.Execute(q, roots[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // builds the indexes the plans use
		return allocatedBy(run)
	}
	narrow := measure()
	for _, tab := range db.Store.Tables {
		pad := make([]int64, tab.N)
		for i := 0; i < 40; i++ {
			if err := tab.AddColumn(fmt.Sprintf("pad%d", i), pad); err != nil {
				t.Fatal(err)
			}
		}
	}
	wide := measure()
	if wide > narrow+narrow/20 {
		t.Errorf("allocated %d KB over tables 40 columns wider, %d KB before: unread columns are being copied", wide>>10, narrow>>10)
	}
}

// TestHashIndexScanLeavesIndexIntact: a residual filter after a hash-index
// lookup must not compact the index's own bucket — the next execution reads
// that bucket again.
func TestHashIndexScanLeavesIndexIntact(t *testing.T) {
	db := tinyDB()
	e := New(db)
	// user_id = 3 is orders 3 and 13; amount > 5 keeps only order 13.
	q := &query.Query{
		Relations: []query.Relation{{Table: "orders", Alias: "o"}},
		Filters: []query.Filter{
			{Alias: "o", Column: "user_id", Op: query.Eq, Value: 3},
			{Alias: "o", Column: "amount", Op: query.Gt, Value: 5},
		},
	}
	root := plan.BuildScan(q, "o", plan.HashIndexScan, "user_id")
	var first Work
	for run := 0; run < 3; run++ {
		res, w, err := e.Execute(q, root)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsOf(t, res, "o.id"); len(got) != 1 || got[0] != "13|" {
			t.Fatalf("run %d: rows %v, want [13|]", run, got)
		}
		if run == 0 {
			first = *w
		} else if *w != first {
			t.Fatalf("run %d: work %+v, first run %+v", run, *w, first)
		}
	}
}

// TestBudgetEqualToWorkStillFinishes: counting pending join pairs must not
// charge a finishing run anything extra — a budget of exactly the unbudgeted
// total still succeeds, with the same work counts.
func TestBudgetEqualToWorkStillFinishes(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	for _, algo := range plan.JoinAlgos {
		e := New(db)
		root := plan.JoinNodes(q, algo, plan.BuildScan(q, "o", plan.SeqScan, ""), plan.BuildScan(q, "u", plan.SeqScan, ""))
		_, free, err := e.Execute(q, root)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		_, tight, err := e.ExecuteBudget(q, root, free.Total())
		if err != nil {
			t.Fatalf("%v: budget = total work: %v", algo, err)
		}
		tight.budget = 0
		if *tight != *free {
			t.Fatalf("%v: work under a tight budget %+v, unbudgeted %+v", algo, *tight, *free)
		}
		if _, _, err := e.ExecuteBudget(q, root, free.Total()-1); !errors.Is(err, ErrBudget) {
			t.Fatalf("%v: budget one short of the work: err = %v, want ErrBudget", algo, err)
		}
	}
}

func TestAggregation(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations:  []query.Relation{{Table: "orders", Alias: "o"}},
		GroupBys:   []query.GroupBy{{Alias: "o", Column: "user_id"}},
		Aggregates: []query.Aggregate{{Kind: query.AggCount}, {Kind: query.AggSum, Alias: "o", Column: "amount"}},
	}
	for _, algo := range plan.AggAlgos {
		e := New(db)
		root := plan.FinishAgg(q, algo, plan.BuildScan(q, "o", plan.SeqScan, ""))
		res, _, err := e.Execute(q, root)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.N != 10 {
			t.Fatalf("%v: %d groups, want 10", algo, res.N)
		}
		uids, _ := res.Column("o.user_id")
		counts, _ := res.Column("agg0_COUNT")
		sums, _ := res.Column("agg1_SUM")
		for i := 0; i < res.N; i++ {
			if counts[i] != 2 {
				t.Fatalf("%v: group %d count = %d, want 2", algo, uids[i], counts[i])
			}
			// user u has orders u and u+10 → sum = 2u+10.
			if sums[i] != 2*uids[i]+10 {
				t.Fatalf("%v: group %d sum = %d, want %d", algo, uids[i], sums[i], 2*uids[i]+10)
			}
		}
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations:  []query.Relation{{Table: "users", Alias: "u"}},
		Filters:    []query.Filter{{Alias: "u", Column: "age", Op: query.Gt, Value: 1000}},
		Aggregates: []query.Aggregate{{Kind: query.AggCount}},
	}
	e := New(db)
	res, _, err := e.Execute(q, plan.FinishAgg(q, plan.HashAgg, plan.BuildScan(q, "u", plan.SeqScan, "")))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 {
		t.Fatalf("global aggregate produced %d rows, want 1", res.N)
	}
	c, _ := res.Column("agg0_COUNT")
	if c[0] != 0 {
		t.Fatalf("COUNT over empty input = %d, want 0", c[0])
	}
}

func TestMinMaxAggregates(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations: []query.Relation{{Table: "users", Alias: "u"}},
		Aggregates: []query.Aggregate{
			{Kind: query.AggMin, Alias: "u", Column: "age"},
			{Kind: query.AggMax, Alias: "u", Column: "age"},
		},
	}
	e := New(db)
	res, _, err := e.Execute(q, plan.FinishAgg(q, plan.SortAgg, plan.BuildScan(q, "u", plan.SeqScan, "")))
	if err != nil {
		t.Fatal(err)
	}
	mn, _ := res.Column("agg0_MIN")
	mx, _ := res.Column("agg1_MAX")
	if mn[0] != 0 || mx[0] != 90 {
		t.Fatalf("min/max = %d/%d, want 0/90", mn[0], mx[0])
	}
}

func TestWorkReflectsPlanQuality(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	// Good: hash join. Bad: nested loop over the same inputs.
	good := plan.JoinNodes(q, plan.HashJoin,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	bad := plan.JoinNodes(q, plan.NestLoop,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	_, wGood, err := New(db).Execute(q, good)
	if err != nil {
		t.Fatal(err)
	}
	_, wBad, err := New(db).Execute(q, bad)
	if err != nil {
		t.Fatal(err)
	}
	if wBad.Total() <= wGood.Total() {
		t.Fatalf("NLJ work %d should exceed hash join work %d", wBad.Total(), wGood.Total())
	}
}

func TestWorkDeterministic(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	root := plan.JoinNodes(q, plan.MergeJoin,
		plan.BuildScan(q, "o", plan.SeqScan, ""),
		plan.BuildScan(q, "u", plan.SeqScan, ""))
	_, w1, _ := New(db).Execute(q, root)
	_, w2, _ := New(db).Execute(q, root)
	if *w1 != *w2 {
		t.Fatalf("work differs across runs: %+v vs %+v", w1, w2)
	}
}

func TestSwappedPredicateSides(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	// Join with u on the left: the predicate o.user_id = u.id is "swapped".
	root := plan.JoinNodes(q, plan.HashJoin,
		plan.BuildScan(q, "u", plan.SeqScan, ""),
		plan.BuildScan(q, "o", plan.SeqScan, ""))
	res, _, err := New(db).Execute(q, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 20 {
		t.Fatalf("swapped-side join produced %d rows, want 20", res.N)
	}
}

func TestMultiPredicateJoin(t *testing.T) {
	db := tinyDB()
	// Self-join orders on user_id AND amount: only identical rows survive.
	q := &query.Query{
		Relations: []query.Relation{
			{Table: "orders", Alias: "a"},
			{Table: "orders", Alias: "b"},
		},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "user_id", RightAlias: "b", RightCol: "user_id"},
			{LeftAlias: "a", LeftCol: "amount", RightAlias: "b", RightCol: "amount"},
		},
	}
	for _, algo := range plan.JoinAlgos {
		root := plan.JoinNodes(q, algo,
			plan.BuildScan(q, "a", plan.SeqScan, ""),
			plan.BuildScan(q, "b", plan.SeqScan, ""))
		res, _, err := New(db).Execute(q, root)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.N != 20 {
			t.Fatalf("%v: self-join on two keys produced %d rows, want 20", algo, res.N)
		}
	}
}
