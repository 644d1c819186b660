package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// outcome is everything one execution reports: the six counters (partial
// ones when refused), the ErrBudget verdict, and for a finished run the row
// count and the order-independent checksum of every output column.
type outcome struct {
	work    [6]int64
	refused bool
	n       int
	rows    string
}

func executeOutcome(t *testing.T, e *Engine, q *query.Query, root plan.Node, keys []string, budget int64) outcome {
	t.Helper()
	res, w, err := e.ExecuteBudget(q, root, budget)
	if errors.Is(err, ErrBudget) {
		return outcome{work: workCounters(w), refused: true}
	}
	if err != nil {
		t.Fatalf("%s budget %d: %v", q.Name, budget, err)
	}
	return outcome{work: workCounters(w), n: res.N, rows: rowChecksum(t, res, keys)}
}

// TestScanMemoWarmEqualsCold: what the memo holds — scans, joins,
// aggregations, whole plans — never shows in an execution's outcome. Over the
// golden workload's (query, plan, budget) triples, a fresh engine per
// execution, one shared engine — on its first pass, while it fills, and on a
// second, when it has run everything — and an engine whose memo is small
// enough to evict all the way through agree on the counters, the row count,
// the verdict, a refused run's partial counters and the rows.
func TestScanMemoWarmEqualsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("executes ~250 plans under 6 budgets on 3 engines")
	}
	db, planner, queries := goldenWorkload(t)
	rng := rand.New(rand.NewSource(23))
	const smallCap = 96 << 10 // a few 4000-row tables' scans and indexes
	shared, small := New(db.Store), newWithCap(db.Store, smallCap)

	type triple struct {
		name   string
		q      *query.Query
		root   plan.Node
		keys   []string
		budget int64
		cold   outcome
	}
	var triples []triple
	// The benchmark's six queries and every eighth generated one (every
	// sixteenth under -race, where this single-threaded replay only gets
	// slower: enough for the shared engine to fill its memo).
	for qi, q := range queries {
		if qi >= 6 && (qi%8 != 0 || raceEnabled && qi%16 != 0) {
			continue
		}
		for _, p := range goldenPlans(t, db, planner, q, rng) {
			keys := outputKeys(db, q, p.root)
			// As the golden replay does: every budget, then no budget at all
			// for a plan the largest one lets finish.
			budgets := append([]int64(nil), goldenBudgets...)
			for i := 0; i < len(budgets); i++ {
				tr := triple{name: fmt.Sprintf("%s/%s budget %d", q.Name, p.name, budgets[i]), q: q, root: p.root, keys: keys, budget: budgets[i]}
				tr.cold = executeOutcome(t, New(db.Store), q, p.root, keys, tr.budget)
				triples = append(triples, tr)
				if tr.budget == goldenBudgets[len(goldenBudgets)-1] && !tr.cold.refused {
					budgets = append(budgets, 0)
				}
			}
		}
	}
	// The heavy-join shapes, products on either side of a keyed join, under
	// budgets either side of every operator's refusal point.
	for _, p := range heavyPlans(t, queries) {
		keys := outputKeys(db, p.q, p.root)
		for _, budget := range heavyBudgets(t, db.Store, p.q, p.root) {
			tr := triple{name: fmt.Sprintf("%s budget %d", p.name, budget), q: p.q, root: p.root, keys: keys, budget: budget}
			tr.cold = executeOutcome(t, New(db.Store), p.q, p.root, keys, budget)
			triples = append(triples, tr)
		}
	}
	for pass, label := range []string{"filling", "warm"} {
		for _, tr := range triples {
			if got := executeOutcome(t, shared, tr.q, tr.root, tr.keys, tr.budget); got != tr.cold {
				t.Errorf("%s: shared engine (%s) %+v, cold %+v", tr.name, label, got, tr.cold)
			}
			if got := executeOutcome(t, small, tr.q, tr.root, tr.keys, tr.budget); got != tr.cold {
				t.Errorf("%s: small-memo engine (pass %d) %+v, cold %+v", tr.name, pass, got, tr.cold)
			}
		}
	}

	// Join outputs are fat — an id vector per joined relation — so this replay
	// fills even the 32 MB memo, and the shared engine evicts too.
	for _, eng := range []struct {
		name string
		st   MemoStats
		cap  int64
	}{{"shared", shared.Stats(), memoCapBytes}, {"small-memo", small.Stats(), smallCap}} {
		if st := eng.st; st.Evictions == 0 || st.ScanHits == 0 || st.PlanHits == 0 || st.IndexReuses == 0 || st.Bytes <= 0 || st.Bytes > eng.cap {
			t.Errorf("%s engine should evict, still answer scans and joins, and stay under %d bytes: %+v", eng.name, eng.cap, st)
		}
	}
}

// TestScanMemoWarmEqualsColdPastCap: the default-cap memo overrun by
// construction. Forty self-joins of a 100 000-row table on a key every value
// of which two rows share differ only in a filter constant, so each is its
// own entry of 2×(rows kept) pairs of ids — 0.9 to 1.6 MB — and together they
// hold about twice memoCapBytes. Stored on their second run, they make the
// memo evict; every run, before and after, agrees with a fresh engine's.
func TestScanMemoWarmEqualsColdPastCap(t *testing.T) {
	const rows, joins = 100_000, 40
	db := storage.NewDB()
	big := storage.NewTable("big", rows)
	ids, keys := make([]int64, rows), make([]int64, rows)
	for i := range ids {
		ids[i], keys[i] = int64(i), int64(i%(rows/2))
	}
	_ = big.AddColumn("id", ids)
	_ = big.AddColumn("k", keys)
	db.Add(big)

	type run struct {
		q    *query.Query
		root plan.Node
		cold outcome
	}
	var runs []run
	for j := 0; j < joins; j++ {
		q := &query.Query{
			Relations: []query.Relation{{Table: "big", Alias: "a"}, {Table: "big", Alias: "b"}},
			Joins:     []query.Join{{LeftAlias: "a", LeftCol: "k", RightAlias: "b", RightCol: "k"}},
			Filters:   []query.Filter{{Alias: "a", Column: "id", Op: query.Lt, Value: int64(rows - j*1000)}},
		}
		root := plan.JoinNodes(q, plan.HashJoin, plan.BuildScan(q, "b", plan.SeqScan, ""), plan.BuildScan(q, "a", plan.SeqScan, ""))
		runs = append(runs, run{q: q, root: root, cold: executeOutcome(t, New(db), q, root, []string{"a.id", "b.id"}, 0)})
	}
	shared := New(db)
	for pass := 0; pass < 3; pass++ {
		for _, r := range runs {
			if got := executeOutcome(t, shared, r.q, r.root, []string{"a.id", "b.id"}, 0); got != r.cold {
				t.Errorf("pass %d, %v: shared engine %+v, cold %+v", pass, r.q.Filters[0], got, r.cold)
			}
		}
	}
	if st := shared.Stats(); st.Evictions == 0 || st.PlanHits == 0 || st.Bytes <= 0 || st.Bytes > memoCapBytes {
		t.Errorf("the memo should overrun its %d bytes, evict, stay under the cap and still answer joins: %+v", memoCapBytes, st)
	}
}

// TestScanMemoFilterOrderIsPartOfTheKey: each filter is charged per row that
// survived the ones before it, so the same filters in two orders return the
// same rows for different Comparisons — and keep doing so once both are
// memoised.
func TestScanMemoFilterOrderIsPartOfTheKey(t *testing.T) {
	db := tinyDB()
	byUser := query.Filter{Alias: "o", Column: "user_id", Op: query.Eq, Value: 3}
	byAmount := query.Filter{Alias: "o", Column: "amount", Op: query.Gt, Value: 5}
	selective := &plan.Scan{Alias: "o", Table: "orders", Access: plan.SeqScan, Filters: []query.Filter{byUser, byAmount}}
	wide := &plan.Scan{Alias: "o", Table: "orders", Access: plan.SeqScan, Filters: []query.Filter{byAmount, byUser}}
	if selective.Signature() != wide.Signature() {
		t.Fatal("the two scans should differ in filter order only (plan.Scan.Signature sorts filters)")
	}
	q := &query.Query{Relations: []query.Relation{{Table: "orders", Alias: "o"}}}

	cold := map[*plan.Scan]outcome{}
	for _, s := range []*plan.Scan{selective, wide} {
		cold[s] = executeOutcome(t, New(db), q, s, []string{"o.id"}, 0)
	}
	// user_id = 3 first: 20 + 2 comparisons; amount > 5 first: 20 + 14.
	if a, b := cold[selective].work[4], cold[wide].work[4]; a != 22 || b != 34 {
		t.Fatalf("cold Comparisons %d and %d, want 22 and 34", a, b)
	}
	if cold[selective].rows != cold[wide].rows || cold[selective].n != 1 {
		t.Fatalf("the two orders return different rows: %+v, %+v", cold[selective], cold[wide])
	}
	e := New(db)
	for run := 0; run < 4; run++ {
		for _, s := range []*plan.Scan{selective, wide} {
			if got := executeOutcome(t, e, q, s, []string{"o.id"}, 0); got != cold[s] {
				t.Errorf("run %d, filters %v: %+v, cold %+v", run, s.Filters, got, cold[s])
			}
		}
	}
	// A scan is stored the second time it runs.
	if st := e.Stats(); st.ScanMisses != 4 || st.ScanHits != 4 {
		t.Errorf("two filter orders should be two entries, each run twice and answered twice: %+v", st)
	}
}

// TestScanMemoSelfJoinSharesEntry: the alias is not part of the key, so one
// table scanned under two aliases with the same filters is one entry and one
// build-side index — and each alias still reads its own rows out of the join.
func TestScanMemoSelfJoinSharesEntry(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations: []query.Relation{{Table: "orders", Alias: "a"}, {Table: "orders", Alias: "b"}},
		Joins:     []query.Join{{LeftAlias: "a", LeftCol: "user_id", RightAlias: "b", RightCol: "user_id"}},
		Filters: []query.Filter{
			{Alias: "a", Column: "amount", Op: query.Lt, Value: 15},
			{Alias: "b", Column: "amount", Op: query.Lt, Value: 15},
		},
	}
	// Orders 0…14 paired on id mod 10.
	var want []string
	for a := 0; a < 15; a++ {
		for b := 0; b < 15; b++ {
			if a%10 == b%10 {
				want = append(want, fmt.Sprintf("%d|%d|", a, b))
			}
		}
	}
	sort.Strings(want) // as rowsOf does
	e := New(db)
	for run, sides := range [][2]string{{"a", "b"}, {"b", "a"}} {
		for _, algo := range []plan.JoinAlgo{plan.HashJoin, plan.NestLoop} {
			root := plan.JoinNodes(q, algo, plan.BuildScan(q, sides[0], plan.SeqScan, ""), plan.BuildScan(q, sides[1], plan.SeqScan, ""))
			res, w, err := e.Execute(q, root)
			if err != nil {
				t.Fatal(err)
			}
			if got := rowsOf(t, res, "a.id", "b.id"); !reflect.DeepEqual(got, want) {
				t.Fatalf("run %d %v: rows %v, want %v", run, algo, got, want)
			}
			_, cw, err := New(db).Execute(q, root)
			if err != nil {
				t.Fatal(err)
			}
			if *w != *cw {
				t.Errorf("run %d %v: work %+v, cold %+v", run, algo, *w, *cw)
			}
		}
	}
	// Eight scans of one entry: the first join's two ran (the second sight
	// stored it), six were answered; four joins building on one (entry,
	// column): one build, three reuses.
	if st := e.Stats(); st.ScanMisses != 2 || st.ScanHits != 6 || st.IndexBuilds != 1 || st.IndexReuses != 3 {
		t.Errorf("self-join should share one entry and one index: %+v", st)
	}
}

// TestScanMemoConcurrentColdStart: 8 goroutines start together on a cold
// engine with plans that share scans, sub-joins and build columns, under a
// budget the expert's plans finish in and the random ones mostly do not (so
// the hit rule refuses concurrently too). Every outcome equals the serial
// one. Which node a given execution is answered at depends on who got there
// first, so hits and misses are not the serial engine's; what is conserved is
// that every exec of a node is one hit or one miss at that node — an
// execution counts its root once and each node at most once — and what the
// memo ends up holding: entries being shared even when two goroutines miss
// the same operator at once, the two engines end with the same entries, the
// same bytes, and each (entry, column) index built exactly once. Run with
// -race.
func TestScanMemoConcurrentColdStart(t *testing.T) {
	db, planner, queries := goldenWorkload(t)
	rng := rand.New(rand.NewSource(5))
	const budget = 1e5
	type job struct {
		q    *query.Query
		root plan.Node
		keys []string
		want outcome
	}
	var jobs []job
	var nodes uint64
	serial := New(db.Store)
	for _, q := range queries[:6] {
		for _, p := range goldenPlans(t, db, planner, q, rng) {
			j := job{q: q, root: p.root, keys: outputKeys(db, q, p.root)}
			j.want = executeOutcome(t, serial, q, p.root, j.keys, budget)
			jobs = append(jobs, j)
			plan.Walk(p.root, func(plan.Node) { nodes++ })
		}
	}
	// An output is stored the second time it is computed, so the serial
	// engine has what the concurrent one will end with after a second pass.
	for _, j := range jobs {
		if got := executeOutcome(t, serial, j.q, j.root, j.keys, budget); got != j.want {
			t.Fatalf("%s: second serial pass %+v, first %+v", j.q.Name, got, j.want)
		}
	}
	want := serial.Stats()
	if want.IndexBuilds == 0 || want.IndexReuses == 0 || want.ScanHits == 0 || want.PlanHits == 0 {
		t.Fatalf("the plans should share scans, sub-joins and build columns: %+v", want)
	}

	const goroutines = 8
	type run struct {
		res *Result
		w   *Work
		err error
	}
	e := New(db.Store)
	runs := make([][]run, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range runs {
		runs[g] = make([]run, len(jobs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range jobs {
				// Each goroutine starts an eighth of the way further in, so
				// that operators are met both in step and out of it.
				ji := (i + g*len(jobs)/goroutines) % len(jobs)
				res, w, err := e.ExecuteBudget(jobs[ji].q, jobs[ji].root, budget)
				runs[g][ji] = run{res, w, err}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for g := range runs {
		for ji, r := range runs[g] {
			j := jobs[ji]
			got := outcome{work: workCounters(r.w), refused: errors.Is(r.err, ErrBudget)}
			if r.err != nil && !got.refused {
				t.Fatalf("goroutine %d, %s: %v", g, j.q.Name, r.err)
			}
			if !got.refused {
				got.n, got.rows = r.res.N, rowChecksum(t, r.res, j.keys)
			}
			if got != j.want {
				t.Errorf("goroutine %d, %s plan %d: %+v, serial %+v", g, j.q.Name, ji, got, j.want)
			}
		}
	}
	got := e.Stats()
	asked := got.ScanHits + got.ScanMisses + got.PlanHits + got.PlanMisses
	if execs := uint64(goroutines * len(jobs)); asked < execs || asked > goroutines*nodes {
		t.Errorf("%d nodes asked for: fewer than the %d executions, or more than the %d nodes they hold", asked, execs, goroutines*nodes)
	}
	if got.IndexBuilds != want.IndexBuilds {
		t.Errorf("%d index builds, want %d: one per (entry, column), as in the serial run", got.IndexBuilds, want.IndexBuilds)
	}
	if len(e.memo.entries) != len(serial.memo.entries) {
		t.Errorf("memo holds %d entries, the serial one %d", len(e.memo.entries), len(serial.memo.entries))
	}
	if got.Bytes != want.Bytes || got.Evictions != 0 {
		t.Errorf("memo holds %d bytes after %d evictions, the serial one %d after none", got.Bytes, got.Evictions, want.Bytes)
	}
}

// TestMemoBudgetBoundary: the hit rule takes an entry iff its subtree's total
// fits, so the budgets to try are the ones that fall on a total. For every
// golden plan of the benchmark's queries that finishes, a warm engine — one
// that holds every operator of the plan — and a fresh one return the same
// verdict, counters (partial ones when refused) and rows under the plan's
// total, one unit less, and one unit either side of the running total at
// which each scan, join and aggregation in it finishes.
func TestMemoBudgetBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("executes ~48 plans under ~35 budgets each on 2 engines")
	}
	db, planner, queries := goldenWorkload(t)
	rng := rand.New(rand.NewSource(24))
	warm := New(db.Store)
	var plans, refusals, hits int
	// boundary runs one plan that finishes under every budget given, warm and
	// cold; total is what the plan's run is charged.
	boundary := func(q *query.Query, name string, root plan.Node, keys []string, free outcome, total int64, budgets []int64) {
		for i := 0; i < 2; i++ { // an output is stored the second time it is computed
			if got := executeOutcome(t, warm, q, root, keys, 0); got != free {
				t.Fatalf("%s/%s: warming run %+v, cold %+v", q.Name, name, got, free)
			}
		}
		for _, budget := range budgets {
			if budget <= 0 {
				continue
			}
			before := warm.Stats()
			got := executeOutcome(t, warm, q, root, keys, budget)
			if cold := executeOutcome(t, New(db.Store), q, root, keys, budget); got != cold {
				t.Errorf("%s/%s budget %d (total %d): warm %+v, cold %+v", q.Name, name, budget, total, got, cold)
			}
			// (Nobody checks an aggregation's last charge: one may finish a
			// unit or two over, on both engines.)
			if _, agg := root.(*plan.Agg); !agg && got.refused != (budget < total) {
				t.Errorf("%s/%s budget %d: refused %v, the plan's work is %d", q.Name, name, budget, got.refused, total)
			}
			if got.refused {
				refusals++
			}
			after := warm.Stats()
			hits += int(after.ScanHits + after.PlanHits - before.ScanHits - before.PlanHits)
		}
	}
	for _, q := range queries[:6] {
		for _, p := range goldenPlans(t, db, planner, q, rng) {
			keys := outputKeys(db, q, p.root)
			free := executeOutcome(t, New(db.Store), q, p.root, keys, goldenBudgets[len(goldenBudgets)-1])
			if free.refused {
				continue
			}
			plans++
			// finished(n) is the running total when n finishes: what ran
			// before it, plus its own subtree run alone.
			budgets := map[int64]bool{}
			var finished func(n plan.Node, before int64) int64
			finished = func(n plan.Node, before int64) int64 {
				at := before
				for _, c := range n.Children() {
					at = finished(c, at)
				}
				_, w, err := New(db.Store).Execute(q, n)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.Name, p.name, err)
				}
				at = before + w.Total()
				budgets[at-1], budgets[at], budgets[at+1] = true, true, true
				return at
			}
			total := finished(p.root, 0)
			var sum int64
			for _, c := range free.work {
				sum += c
			}
			if total != sum {
				t.Fatalf("%s/%s: the root finishes at %d, the plan's work is %d", q.Name, p.name, total, sum)
			}
			var list []int64
			for budget := range budgets {
				list = append(list, budget)
			}
			boundary(q, p.name, p.root, keys, free, total, list)
		}
	}
	// The heavy-join shapes, under the same budgets plus quarter points
	// inside each join's admission.
	for _, p := range heavyPlans(t, queries) {
		keys := outputKeys(db, p.q, p.root)
		free := executeOutcome(t, New(db.Store), p.q, p.root, keys, 0)
		var total int64
		for _, c := range free.work {
			total += c
		}
		boundary(p.q, p.name, p.root, keys, free, total, heavyBudgets(t, db.Store, p.q, p.root))
	}
	if plans < 24 || refusals == 0 || hits == 0 {
		t.Errorf("%d plans finished, %d runs were refused, %d nodes answered from the memo: the boundary was not exercised", plans, refusals, hits)
	}
}

// joinOutcome runs root on e and on a fresh engine and requires the same work
// and rows (every column named, sorted).
func joinOutcome(t *testing.T, e *Engine, q *query.Query, root plan.Node, cols ...string) []string {
	t.Helper()
	res, w, err := e.Execute(q, root)
	if err != nil {
		t.Fatal(err)
	}
	cres, cw, err := New(e.db).Execute(q, root)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(t, res, cols...)
	if *w != *cw || !reflect.DeepEqual(rows, rowsOf(t, cres, cols...)) {
		t.Errorf("%s: work %+v and %d rows, cold %+v and %d", plan.Format(root), *w, res.N, *cw, cres.N)
	}
	return rows
}

// TestMemoJoinKey: what a join's key holds. The aliases — the same join under
// two spellings of them is two join entries over one shared pair of scan
// entries, and each hands out its rows under its own names. And everything
// that is charged or written differently: the predicates' sides as written,
// their order, the algorithm — six ways of writing one two-key self-join
// are six entries, each answering with the work its own cold run is charged.
func TestMemoJoinKey(t *testing.T) {
	db := tinyDB()
	e := New(db)
	spelled := func(u, o string) (*query.Query, plan.Node) {
		q := &query.Query{
			Relations: []query.Relation{{Table: "users", Alias: u}, {Table: "orders", Alias: o}},
			Joins:     []query.Join{{LeftAlias: o, LeftCol: "user_id", RightAlias: u, RightCol: "id"}},
			Filters:   []query.Filter{{Alias: o, Column: "amount", Op: query.Lt, Value: 12}},
		}
		return q, plan.JoinNodes(q, plan.HashJoin, plan.BuildScan(q, o, plan.SeqScan, ""), plan.BuildScan(q, u, plan.SeqScan, ""))
	}
	var rows [2][]string
	for run := 0; run < 3; run++ {
		for i, names := range [][2]string{{"u", "o"}, {"x", "y"}} {
			q, root := spelled(names[0], names[1])
			rows[i] = joinOutcome(t, e, q, root, names[1]+".id", names[0]+".age")
		}
	}
	if len(rows[0]) != 12 || !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("the two spellings return %v and %v, want the same 12 rows", rows[0], rows[1])
	}
	// Two scans (orders filtered, and users, which is its table's identity
	// scan), one entry each; two joins. Each spelling ran cold twice and was
	// answered once; the second spelling's scans were the first's.
	st := e.Stats()
	if len(e.memo.entries) != 5 || st.PlanMisses != 4 || st.PlanHits != 2 || st.ScanMisses != 3 || st.ScanHits != 5 {
		t.Errorf("two spellings should be two join entries over shared scans: %d entries (orders' identity scan among them), %+v", len(e.memo.entries), st)
	}

	a, b := query.Join{LeftAlias: "a", LeftCol: "user_id", RightAlias: "b", RightCol: "user_id"}, query.Join{LeftAlias: "a", LeftCol: "amount", RightAlias: "b", RightCol: "amount"}
	swapped := query.Join{LeftAlias: "b", LeftCol: "user_id", RightAlias: "a", RightCol: "user_id"}
	q := &query.Query{Relations: []query.Relation{{Table: "orders", Alias: "a"}, {Table: "orders", Alias: "b"}}}
	scan := func(alias string) plan.Node { return plan.BuildScan(q, alias, plan.SeqScan, "") }
	var joins []*plan.Join
	for _, preds := range [][]query.Join{{a, b}, {b, a}, {swapped, b}} {
		joins = append(joins, &plan.Join{Algo: plan.HashJoin, Left: scan("a"), Right: scan("b"), Preds: preds})
	}
	for _, algo := range plan.JoinAlgos {
		joins = append(joins, &plan.Join{Algo: algo, Left: scan("b"), Right: scan("a"), Preds: []query.Join{a, b}})
	}
	e = New(db)
	works := map[Work]bool{}
	for run := 0; run < 3; run++ {
		for _, j := range joins {
			if rows := joinOutcome(t, e, q, j, "a.id", "b.id"); len(rows) != 20 {
				t.Fatalf("%s: %d rows, want 20", plan.Format(j), len(rows))
			}
			if run == 2 {
				_, w, _ := e.Execute(q, j)
				works[*w] = true
			}
		}
	}
	st = e.Stats()
	if want := uint64(len(joins)); st.PlanMisses != 2*want || st.PlanHits != 2*want || len(e.memo.entries) != len(joins)+1 {
		t.Errorf("%d ways of writing the join should be as many entries over one scan entry: %d entries, %+v", len(joins), len(e.memo.entries), st)
	}
	// Candidates by user_id then amount, by amount then user_id, and three
	// algorithms: the entries do not all hold the same work.
	if len(works) < 4 {
		t.Errorf("the %d entries answer with %d distinct works, want at least 4", len(joins), len(works))
	}
}

// TestMemoSharedPrefix: two plans that share a sub-join share its entry. Once
// one plan has run twice, the other's first run is answered at the sub-join —
// its scans are not asked — and, hashing on the sub-join's output, builds the
// key index over it on the entry, where its second run finds it.
func TestMemoSharedPrefix(t *testing.T) {
	db := tinyDB()
	q := &query.Query{
		Relations: []query.Relation{{Table: "orders", Alias: "a"}, {Table: "orders", Alias: "b"}, {Table: "users", Alias: "u"}},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "user_id", RightAlias: "b", RightCol: "user_id"},
			{LeftAlias: "b", LeftCol: "user_id", RightAlias: "u", RightCol: "id"},
		},
		Filters: []query.Filter{{Alias: "a", Column: "amount", Op: query.Lt, Value: 10}},
	}
	sub := func() plan.Node {
		return plan.JoinNodes(q, plan.HashJoin, plan.BuildScan(q, "a", plan.SeqScan, ""), plan.BuildScan(q, "b", plan.SeqScan, ""))
	}
	over := plan.JoinNodes(q, plan.MergeJoin, sub(), plan.BuildScan(q, "u", plan.SeqScan, ""))
	under := plan.JoinNodes(q, plan.HashJoin, plan.BuildScan(q, "u", plan.SeqScan, ""), sub())
	cols := []string{"a.id", "b.id", "u.age"}

	e := New(db)
	want := joinOutcome(t, e, q, over, cols...)
	joinOutcome(t, e, q, over, cols...)
	if len(want) != 20 {
		t.Fatalf("%d rows, want 20", len(want))
	}
	step := func(what string, run func(), want MemoStats) {
		t.Helper()
		before := e.Stats()
		run()
		after := e.Stats()
		got := MemoStats{
			ScanHits: after.ScanHits - before.ScanHits, ScanMisses: after.ScanMisses - before.ScanMisses,
			PlanHits: after.PlanHits - before.PlanHits, PlanMisses: after.PlanMisses - before.PlanMisses,
			IndexBuilds: after.IndexBuilds - before.IndexBuilds, IndexReuses: after.IndexReuses - before.IndexReuses,
		}
		if got != want {
			t.Errorf("%s: %+v, want %+v", what, got, want)
		}
	}
	other := func() {
		if got := joinOutcome(t, e, q, under, cols...); !reflect.DeepEqual(got, want) {
			t.Errorf("the other plan returns %v, want %v", got, want)
		}
	}
	// The top join runs, u is scanned (users' identity scan: held from the
	// first plan), the sub-join is answered and a and b are never asked.
	step("the other plan's first run", other, MemoStats{PlanMisses: 1, PlanHits: 1, ScanHits: 1, IndexBuilds: 1})
	step("its second", other, MemoStats{PlanMisses: 1, PlanHits: 1, ScanHits: 1, IndexReuses: 1})
	step("its third", other, MemoStats{PlanHits: 1})
}

// TestMemoResultsAreNotAliased: a memoised aggregation hands every execution
// the same Result, so what Column returns has to be the caller's own: writing
// to it changes nobody else's answer.
func TestMemoResultsAreNotAliased(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	q.GroupBys = []query.GroupBy{{Alias: "u", Column: "age"}}
	q.Aggregates = []query.Aggregate{{Kind: query.AggSum, Alias: "o", Column: "amount"}}
	join := plan.JoinNodes(q, plan.HashJoin, plan.BuildScan(q, "o", plan.SeqScan, ""), plan.BuildScan(q, "u", plan.SeqScan, ""))
	for _, tc := range []struct {
		root plan.Node
		cols []string
	}{
		{plan.FinishAgg(q, plan.HashAgg, join), []string{"u.age", "agg0_SUM"}},
		{join, []string{"o.amount", "u.age"}},
	} {
		root, cols := tc.root, tc.cols
		e := New(db)
		var results []*Result
		for run := 0; run < 4; run++ {
			res, _, err := e.Execute(q, root)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		if results[2] != results[3] {
			t.Fatalf("%T: the third and fourth executions should share the memo's result", root)
		}
		want := rowsOf(t, results[2], cols...)
		for _, c := range cols {
			col, err := results[2].Column(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range col {
				col[i] = -1
			}
		}
		res, _, err := e.Execute(q, root)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{results[2], res} {
			if got := rowsOf(t, r, cols...); !reflect.DeepEqual(got, want) {
				t.Errorf("%T: after writing to a returned column the result reads %v, want %v", root, got, want)
			}
		}
	}
}
