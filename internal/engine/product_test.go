package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// tinyTables returns a database of the named tables, each of 1–12 rows
// whose first column is the row number and whose others hold values from a
// domain of 1–4.
func tinyTables(rng *rand.Rand, names, cols []string) *storage.DB {
	db := storage.NewDB()
	for _, name := range names {
		n := 1 + rng.Intn(12)
		tab := storage.NewTable(name, n)
		for c, col := range cols {
			vals := make([]int64, n)
			dom := 1 + rng.Int63n(4)
			for i := range vals {
				vals[i] = int64(i)
				if c > 0 {
					vals[i] = rng.Int63n(dom)
				}
			}
			_ = tab.AddColumn(col, vals)
		}
		db.Add(tab)
	}
	return db
}

// execNode runs one plan node on e and returns its output as the executor
// hands it to the operator above: a cross product still as its factors.
func execNode(t *testing.T, e *Engine, n plan.Node) *Result {
	t.Helper()
	k := appendPlan(planKeys{}, n)
	res, err := e.exec(n, 0, &k, &Work{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// idVectors are a result's relations and their id vectors, in order.
func idVectors(res *Result) []string {
	var out []string
	for _, rl := range res.rels {
		out = append(out, fmt.Sprint(rl.alias, rl.ids[:res.N]))
	}
	return out
}

// TestProductJoinMatchesWrittenOut: a hash or nested-loop join reading a
// cross product factor by factor — on its probe side or its build side —
// is charged, refused and answers exactly as the same join over the product
// written out. Random tiny tables and predicates: two or three factors, one
// to three keys, a factor holding several keys or none, under every budget
// from 1 to one past the join's total (about 400 of them past 400).
func TestProductJoinMatchesWrittenOut(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cols := []string{"id", "x", "y"}
	var joins, refusals, admitted int
	for round := 0; round < 120; round++ {
		db := tinyTables(rng, []string{"a", "b", "c", "r"}, cols)
		nf := 2 + rng.Intn(2)
		factors := []string{"a", "b", "c"}[:nf]
		q := &query.Query{Relations: []query.Relation{{Table: "r", Alias: "r"}}}
		for _, f := range factors {
			q.Relations = append(q.Relations, query.Relation{Table: f, Alias: f})
		}
		for range 1 + rng.Intn(3) {
			q.Joins = append(q.Joins, query.Join{
				LeftAlias: "r", LeftCol: cols[rng.Intn(3)],
				RightAlias: factors[rng.Intn(nf)], RightCol: cols[1+rng.Intn(2)],
			})
		}
		scan := func(alias string) plan.Node { return plan.BuildScan(q, alias, plan.SeqScan, "") }
		var product plan.Node = plan.JoinNodes(q, plan.HashJoin, scan(factors[0]), scan(factors[1]))
		if nf == 3 {
			if rng.Intn(2) == 0 {
				product = plan.JoinNodes(q, plan.HashJoin, product, scan("c"))
			} else {
				product = plan.JoinNodes(q, plan.HashJoin, scan("a"), plan.JoinNodes(q, plan.HashJoin, scan("b"), scan("c")))
			}
		}
		for _, algo := range []plan.JoinAlgo{plan.HashJoin, plan.NestLoop} {
			for _, probeSide := range []bool{true, false} {
				var root *plan.Join
				if probeSide {
					root = plan.JoinNodes(q, algo, product, scan("r"))
				} else {
					root = plan.JoinNodes(q, algo, scan("r"), product)
				}
				e := New(db)
				l, r := execNode(t, e, root.Left), execNode(t, e, root.Right)
				written := func(res *Result) *Result { return res.expand() }
				run := func(budget int64, in func(*Result) *Result) (*Result, Work, error) {
					w := &Work{budget: budget}
					res, err := e.keyedJoin(root, in(l), in(r), w)
					return res, *w, err
				}
				_, free, err := run(0, written)
				if err != nil {
					t.Fatal(err)
				}
				total := free.Total()
				var budgets []int64
				for b := int64(1); b <= total+1; b++ {
					if total <= 400 || rng.Int63n(total) < 400 || b >= total-1 {
						budgets = append(budgets, b)
					}
				}
				joins++
				for _, budget := range append(budgets, 0) {
					want, ww, werr := run(budget, written)
					got, gw, gerr := run(budget, func(res *Result) *Result { return res })
					name := fmt.Sprintf("round %d %v probe-side %v budget %d of %d\n%s", round, algo, probeSide, budget, total, plan.Format(root))
					if !errors.Is(werr, ErrBudget) && werr != nil {
						t.Fatalf("%s: %v", name, werr)
					}
					if (werr == nil) != (gerr == nil) || gw != ww {
						t.Fatalf("%s: factor by factor %+v (%v), written out %+v (%v)", name, gw, gerr, ww, werr)
					}
					if werr != nil {
						refusals++
						continue
					}
					admitted++
					if got.N != want.N || !reflect.DeepEqual(idVectors(got), idVectors(want)) {
						t.Fatalf("%s: factor by factor %v, written out %v", name, idVectors(got), idVectors(want))
					}
				}
			}
		}
	}
	if refusals == 0 || admitted == 0 {
		t.Errorf("%d joins: %d refused runs, %d admitted", joins, refusals, admitted)
	}
}

// TestProductNotWritten: the lifecycle's heaviest plans, run on a fresh
// engine with no budget, never write their cross products out — a 471k-row
// product of three relations would be 5.6 MB of id vectors.
func TestProductNotWritten(t *testing.T) {
	db, _, queries := goldenWorkload(t)
	for _, p := range heavyPlans(t, queries) {
		if p.name != "product-hash-3key" && p.name != "lifecycle-nested-product-hash-3key" {
			continue
		}
		var err error
		got := allocatedBy(func() { _, _, err = New(db.Store).Execute(p.q, p.root) })
		if err != nil {
			t.Fatal(err)
		}
		if got > 1<<20 {
			t.Errorf("%s: allocated %d KB, want under 1 MB", p.name, got>>10)
		}
		t.Logf("%s: %d KB", p.name, got>>10)
	}
}

// TestMemoChargesProductFactors: the memo keeps a cross product as its
// factors and charges it what those hold — each factor's id vectors and
// headers and a pointer to it — not the product's rows.
func TestMemoChargesProductFactors(t *testing.T) {
	db := tinyDB()
	q := tinyQuery()
	q.Joins = nil
	root := plan.JoinNodes(q, plan.NestLoop, plan.BuildScan(q, "o", plan.SeqScan, ""), plan.BuildScan(q, "u", plan.SeqScan, ""))
	e := New(db)
	for range 2 { // an output is stored the second time it is computed
		res, _, err := e.Execute(q, root)
		if err != nil {
			t.Fatal(err)
		}
		if res.N != 200 || res.factors != nil || len(res.rels) != 2 {
			t.Fatalf("Execute returned %d rows over %d relations, factors %v: want the 200-row product written", res.N, len(res.rels), res.factors)
		}
	}
	k := appendPlan(planKeys{}, root)
	ent := e.memo.get(k.key(0))
	if ent == nil || len(ent.out.factors) != 2 {
		t.Fatalf("memo entry %+v: want the product as its two factors", ent)
	}
	// orders (20 rows) and users (10), one relation each.
	want := int64(entryOverhead+len(k.key(0))) + 2*8 + (4*20 + 48) + (4*10 + 48)
	if ent.bytes != want {
		t.Errorf("product entry charged %d bytes, want %d", ent.bytes, want)
	}
}
