package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"testing"

	"handsfree/internal/catalog"
	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

// update regenerates the golden files (testdata/work_golden.json,
// testdata/heavy_join_golden.json) from the executor under test. Only ever
// run it at a commit whose executor is the accounting reference: the files
// are the contract later executors are held to, and CI fails any run that
// leaves them modified.
var update = flag.Bool("update", false, "regenerate the golden files under testdata")

const goldenPath = "testdata/work_golden.json"

// goldenBudgets are the work budgets every plan runs under, spaced so that
// refusals land inside scans, inside each join algorithm and inside
// aggregation; the largest is what the service's default 1000 ms execution
// budget converts to. Budget 0 (unlimited) is added for plans that finish
// under it; the others would materialise cross products of any size.
var goldenBudgets = []int64{1e3, 1e4, 1e5, 1e6, 1e7}

// goldenFile is testdata/work_golden.json: what the reference executor
// charged, returned and refused for every (query, plan, budget).
type goldenFile struct {
	Note  string       `json:"note"`
	Cases []goldenCase `json:"cases"`
}

// goldenCase is one plan of one query. Finished is set when the plan
// completes under the largest budget; every budget that lets it finish (and
// budget 0) must reproduce it exactly. Censored holds the partial work of
// each budget that refuses it.
type goldenCase struct {
	Query string `json:"q"`
	Plan  string `json:"plan"`
	// Sig hashes the plan's signature, so a planner change reads as "the
	// plan differs", not as an accounting failure.
	Sig      string              `json:"sig"`
	Finished *goldenResult       `json:"finished,omitempty"`
	Censored map[string][6]int64 `json:"censored,omitempty"`
}

type goldenResult struct {
	Work [6]int64 `json:"work"`
	N    int      `json:"n"`
	// Rows is an order-independent checksum over every output column.
	Rows string `json:"rows"`
}

func workCounters(w *Work) [6]int64 {
	return [6]int64{w.TuplesRead, w.TuplesEmitted, w.IndexProbes, w.HashOps, w.Comparisons, w.RowsMaterialized}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// outputKeys lists every column the plan's root produces: the grouping and
// aggregate columns of an aggregation, otherwise every column of every
// joined relation.
func outputKeys(db *datagen.Database, q *query.Query, root plan.Node) []string {
	var keys []string
	if a, ok := root.(*plan.Agg); ok {
		for _, g := range a.GroupBys {
			keys = append(keys, g.Alias+"."+g.Column)
		}
		for i, ag := range a.Aggregates {
			keys = append(keys, fmt.Sprintf("agg%d_%s", i, ag.Kind))
		}
	} else {
		for alias := range root.Aliases() {
			rel, _ := q.RelationByAlias(alias)
			for _, c := range db.Catalog.MustTable(rel.Table).Columns {
				keys = append(keys, alias+"."+c.Name)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// rowChecksum folds every output column into one hash per row and sums the
// row hashes, so it is independent of row order but not of which values
// share a row.
func rowChecksum(t *testing.T, res *Result, keys []string) string {
	t.Helper()
	rows := make([]uint64, res.N)
	for _, k := range keys {
		col, err := res.Column(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(col) != res.N {
			t.Fatalf("column %s has %d values, result has %d rows", k, len(col), res.N)
		}
		kh := hashString(k)
		for i, v := range col {
			rows[i] = mix64(rows[i] ^ kh ^ uint64(v))
		}
	}
	var sum uint64
	for _, h := range rows {
		sum += mix64(h)
	}
	return fmt.Sprintf("%016x", sum)
}

type goldenPlan struct {
	name string
	root plan.Node
}

// randomPhysical builds a random join order with a random algorithm at every
// join and a random access path (any index the catalog has on the table) at
// every scan — the operator combinations cost-based completion never picks.
func randomPhysical(db *datagen.Database, q *query.Query, rng *rand.Rand) plan.Node {
	var rebuild func(n plan.Node) plan.Node
	rebuild = func(n plan.Node) plan.Node {
		switch n := n.(type) {
		case *plan.Scan:
			ixs := db.Catalog.MustTable(n.Table).Indexes
			if pick := rng.Intn(len(ixs) + 1); pick < len(ixs) {
				access := plan.IndexScan
				if ixs[pick].Kind == catalog.Hash {
					access = plan.HashIndexScan
				}
				return plan.BuildScan(q, n.Alias, access, ixs[pick].Column)
			}
			return n
		case *plan.Join:
			left, right := rebuild(n.Left), rebuild(n.Right)
			return plan.JoinNodes(q, plan.JoinAlgos[rng.Intn(len(plan.JoinAlgos))], left, right)
		}
		return n
	}
	return rebuild(optimizer.RandomOrder(q, rng))
}

// wideAgg aggregates child by one or two of its columns with every aggregate
// kind, under algo.
func wideAgg(db *datagen.Database, q *query.Query, child plan.Node, algo plan.AggAlgo, rng *rand.Rand) plan.Node {
	type ref struct{ alias, col string }
	var cols []ref
	for _, rel := range q.Relations {
		for _, c := range db.Catalog.MustTable(rel.Table).Columns {
			if c.Name != "id" {
				cols = append(cols, ref{rel.Alias, c.Name})
			}
		}
	}
	pick := func() ref { return cols[rng.Intn(len(cols))] }
	a := &plan.Agg{Algo: algo, Child: child, Aggregates: []query.Aggregate{{Kind: query.AggCount}}}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		g := pick()
		a.GroupBys = append(a.GroupBys, query.GroupBy{Alias: g.alias, Column: g.col})
	}
	for _, kind := range []query.AggKind{query.AggSum, query.AggMin, query.AggMax} {
		c := pick()
		a.Aggregates = append(a.Aggregates, query.Aggregate{Kind: kind, Alias: c.alias, Column: c.col})
	}
	return a
}

// goldenPlans returns the plans one query is executed with: the expert's DP
// and greedy plans, three random join orders completed by the optimizer
// (cross products included), and three hand-rolled physical plans — a bare
// join tree whose every column is checksummed, and a wide aggregation under
// each aggregation algorithm.
func goldenPlans(t *testing.T, db *datagen.Database, planner *optimizer.Planner, q *query.Query, rng *rand.Rand) []goldenPlan {
	t.Helper()
	var out []goldenPlan
	for _, s := range []optimizer.Strategy{optimizer.DP, optimizer.Greedy} {
		p, err := planner.PlanWith(q, s)
		if err != nil {
			t.Fatalf("%s: %v plan: %v", q.Name, s, err)
		}
		out = append(out, goldenPlan{s.String(), p.Root})
	}
	for i := 0; i < 3; i++ {
		root, _ := planner.CompletePhysical(q, optimizer.RandomOrder(q, rng))
		out = append(out, goldenPlan{fmt.Sprintf("random%d", i), root})
	}
	out = append(out, goldenPlan{"physical-bare", randomPhysical(db, q, rng)})
	for _, algo := range plan.AggAlgos {
		root := wideAgg(db, q, randomPhysical(db, q, rng), algo, rng)
		out = append(out, goldenPlan{"physical-" + algo.String(), root})
	}
	return out
}

// goldenWorkload is the benchmark's database and six training queries
// (scale 0.05, WithWorkload(6,4,6,3)) plus 200 generated queries of 2–7
// relations.
func goldenWorkload(t testing.TB) (*datagen.Database, *optimizer.Planner, []*query.Query) {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	planner := optimizer.New(db.Catalog, cost.New(cost.DefaultParams(), stats.NewEstimator(db.Catalog, db.Stats)))
	wl := workload.New(db)
	queries, err := wl.Training(6, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		q.Name = "bench-" + q.Name
	}
	more, err := wl.Training(200, 2, 7, 14)
	if err != nil {
		t.Fatal(err)
	}
	return db, planner, append(queries, more...)
}

// TestWorkAccountingGolden replays every (query, plan, budget) of the golden
// file and requires the six Work counters, the row count, the ErrBudget
// verdict and the output checksum to match what the reference executor
// produced: Work is a function of (database, plan, budget), never of how the
// executor represents its intermediates.
func TestWorkAccountingGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("replays ~1600 plans")
	}
	db, planner, queries := goldenWorkload(t)
	rng := rand.New(rand.NewSource(14))

	want := map[string]goldenCase{}
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var gf goldenFile
		if err := json.Unmarshal(raw, &gf); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		for _, c := range gf.Cases {
			want[c.Query+"/"+c.Plan] = c
		}
	}

	// Replay shares one engine, as a service does, so an execution that
	// leaves anything behind in the index caches shows up as a mismatch;
	// recording uses a fresh engine per execution so the reference cannot
	// depend on what ran before.
	shared := New(db.Store)
	engineFor := func() *Engine {
		if *update {
			return New(db.Store)
		}
		return shared
	}

	var got []goldenCase
	skipped := 0
	for qi, q := range queries {
		plans := goldenPlans(t, db, planner, q, rng)
		// The replay is single-threaded, so the race detector only slows it
		// (12×): under -race it keeps the benchmark's queries and every
		// eighth of the rest. The plans are still drawn, to keep rng in step.
		if raceEnabled && !*update && qi >= 6 && qi%8 != 0 {
			skipped += len(plans)
			continue
		}
		for _, p := range plans {
			c := goldenCase{Query: q.Name, Plan: p.name, Sig: fmt.Sprintf("%016x", hashString(p.root.Signature()))}
			keys := outputKeys(db, q, p.root)
			run := func(budget int64) (finished bool) {
				res, w, err := engineFor().ExecuteBudget(q, p.root, budget)
				if errors.Is(err, ErrBudget) {
					if c.Censored == nil {
						c.Censored = map[string][6]int64{}
					}
					c.Censored[fmt.Sprint(budget)] = workCounters(w)
					return false
				}
				if err != nil {
					t.Fatalf("%s/%s budget %d: %v", q.Name, p.name, budget, err)
				}
				fin := &goldenResult{Work: workCounters(w), N: res.N, Rows: rowChecksum(t, res, keys)}
				if c.Finished != nil && *c.Finished != *fin {
					t.Errorf("%s/%s budget %d: finished with %+v, another budget with %+v", q.Name, p.name, budget, *fin, *c.Finished)
				}
				c.Finished = fin
				return true
			}
			finished := false
			for _, budget := range goldenBudgets {
				finished = run(budget)
			}
			if finished {
				run(0)
			}
			got = append(got, c)
			if *update {
				continue
			}
			w, ok := want[c.Query+"/"+c.Plan]
			if !ok {
				t.Fatalf("%s/%s: not in %s", c.Query, c.Plan, goldenPath)
			}
			if w.Sig != c.Sig {
				t.Fatalf("%s/%s: the plan differs from the one the golden file was recorded with (planner or workload change?)\n%s", c.Query, c.Plan, plan.Format(p.root))
			}
			if (w.Finished == nil) != (c.Finished == nil) || (c.Finished != nil && *w.Finished != *c.Finished) {
				t.Errorf("%s/%s: finished %+v, golden %+v", c.Query, c.Plan, c.Finished, w.Finished)
			}
			if len(w.Censored) != len(c.Censored) {
				t.Errorf("%s/%s: censored under budgets %v, golden %v", c.Query, c.Plan, c.Censored, w.Censored)
			}
			for b, work := range c.Censored {
				if gw, ok := w.Censored[b]; !ok || gw != work {
					t.Errorf("%s/%s budget %s: partial work %v, golden %v (censored there: %v)", c.Query, c.Plan, b, work, gw, ok)
				}
			}
		}
	}
	if !*update {
		if len(got)+skipped != len(want) {
			t.Errorf("replayed %d cases and skipped %d, golden has %d", len(got), skipped, len(want))
		}
		return
	}
	// One case per line, so a regenerated file diffs by case.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{%q: %q,\n%q: [\n", "note",
		"Recorded by `go test ./internal/engine -run TestWorkAccountingGolden -update`; see golden_test.go. work is [TuplesRead TuplesEmitted IndexProbes HashOps Comparisons RowsMaterialized].",
		"cases")
	for i, c := range got {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		if i < len(got)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]}\n")
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
