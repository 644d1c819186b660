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

// TestScanMemoWarmEqualsCold: what the memo holds never shows in an
// execution's outcome. Over the golden workload's (query, plan, budget)
// triples, a fresh engine per execution, one shared engine — on its first
// pass, while it fills, and on a second, when it has run everything — and an
// engine whose memo is small enough to evict all the way through agree on
// the counters, the row count, the verdict, a refused run's partial counters
// and the rows.
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
	// The benchmark's six queries and every eighth generated one (none of
	// those under -race, where this single-threaded replay only gets slower).
	for qi, q := range queries {
		if qi >= 6 && (raceEnabled || qi%8 != 0) {
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

	st := shared.Stats()
	if st.ScanHits == 0 || st.IndexReuses == 0 || st.Evictions != 0 || st.Bytes <= 0 || st.Bytes > memoCapBytes {
		t.Errorf("shared engine's memo was not exercised as meant: %+v", st)
	}
	st = small.Stats()
	if st.Evictions == 0 || st.ScanHits == 0 || st.Bytes > smallCap {
		t.Errorf("small-memo engine should evict, still hit, and stay under %d bytes: %+v", smallCap, st)
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
// engine with plans that share scans and build columns, under a budget the
// expert's plans finish in and the random ones mostly do not (so the hit
// rule refuses concurrently too). Every outcome equals the serial one, and —
// entries being shared even when two goroutines miss the same scan at once —
// each (entry, column) index is built exactly once: as many builds as the
// serial engine made. Run with -race.
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
	serial := New(db.Store)
	for _, q := range queries[:6] {
		for _, p := range goldenPlans(t, db, planner, q, rng) {
			j := job{q: q, root: p.root, keys: outputKeys(db, q, p.root)}
			j.want = executeOutcome(t, serial, q, p.root, j.keys, budget)
			jobs = append(jobs, j)
		}
	}
	// A scan is stored the second time it runs, so the serial engine has what
	// the concurrent one will end with after a second pass.
	for _, j := range jobs {
		if got := executeOutcome(t, serial, j.q, j.root, j.keys, budget); got != j.want {
			t.Fatalf("%s: second serial pass %+v, first %+v", j.q.Name, got, j.want)
		}
	}
	want := serial.Stats()
	if want.IndexBuilds == 0 || want.IndexReuses == 0 || want.ScanHits == 0 {
		t.Fatalf("the plans should share scans and build columns: %+v", want)
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
				// that scans are met both in step and out of it.
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
	if got.IndexBuilds != want.IndexBuilds {
		t.Errorf("%d index builds, want %d: one per (entry, column), as in the serial run", got.IndexBuilds, want.IndexBuilds)
	}
	if all := goroutines * (want.ScanHits + want.ScanMisses) / 2; got.ScanHits+got.ScanMisses != all {
		t.Errorf("%d scans counted, want %d", got.ScanHits+got.ScanMisses, all)
	}
	if got.Bytes != want.Bytes || got.Evictions != 0 {
		t.Errorf("memo holds %d bytes after %d evictions, the serial one %d after none", got.Bytes, got.Evictions, want.Bytes)
	}
}
