package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/storage"
)

const heavyGoldenPath = "testdata/heavy_join_golden.json"

// heavyGoldenFile is testdata/heavy_join_golden.json: what the reference
// executor charged, returned and refused for the training lifecycle's
// heaviest join shapes, under budgets one unit either side of every
// operator's refusal point.
type heavyGoldenFile struct {
	Note  string      `json:"note"`
	Cases []heavyCase `json:"cases"`
}

// heavyCase is one plan under one budget. Work is the finished run's six
// counters or, when Refused, the partial ones; N and IDs are a finished
// run's row count and the order-sensitive checksum of its id vectors.
type heavyCase struct {
	Plan    string   `json:"plan"`
	Sig     string   `json:"sig"`
	Budget  int64    `json:"budget"`
	Refused bool     `json:"refused"`
	Work    [6]int64 `json:"work"`
	N       int      `json:"n,omitempty"`
	IDs     string   `json:"ids,omitempty"`
}

// heavyPlans are the join shapes that dominate the training lifecycle's
// latency phase, on the benchmark's queries: cross products of 10⁵–10⁶ rows
// probing a 1-, 2- and 3-key hash join, nested loops and a merge join with a
// product on either side, and a hash join whose build side is a product.
func heavyPlans(t testing.TB, queries []*query.Query) []struct {
	name string
	q    *query.Query
	root plan.Node
} {
	t.Helper()
	byName := map[string]*query.Query{}
	for _, q := range queries[:6] {
		byName[q.Name] = q
	}
	type built = struct {
		name string
		q    *query.Query
		root plan.Node
	}
	var out []built
	add := func(name, query string, build func(q *query.Query) plan.Node) {
		q := byName[query]
		if q == nil {
			t.Fatalf("no query %s", query)
		}
		out = append(out, built{name, q, build(q)})
	}
	scan := func(q *query.Query, alias string) plan.Node { return plan.BuildScan(q, alias, plan.SeqScan, "") }
	join := func(q *query.Query, algo plan.JoinAlgo, l, r plan.Node) plan.Node {
		return plan.JoinNodes(q, algo, l, r)
	}
	// bench-train004: ci ⋈ chn ⋈ rt ⋈ t, every predicate on ci.
	add("product-hash-2key", "bench-train004", func(q *query.Query) plan.Node {
		return join(q, plan.HashJoin, join(q, plan.HashJoin, scan(q, "chn"), scan(q, "t")), scan(q, "ci"))
	})
	add("product-hash-3key", "bench-train004", func(q *query.Query) plan.Node {
		product := join(q, plan.HashJoin, join(q, plan.HashJoin, scan(q, "chn"), scan(q, "t")), scan(q, "rt"))
		return join(q, plan.HashJoin, product, scan(q, "ci"))
	})
	add("product-nestloop-2key", "bench-train004", func(q *query.Query) plan.Node {
		return join(q, plan.NestLoop, join(q, plan.HashJoin, scan(q, "t"), scan(q, "rt")), scan(q, "ci"))
	})
	add("nestloop-build-product-2key", "bench-train004", func(q *query.Query) plan.Node {
		return join(q, plan.NestLoop, scan(q, "ci"), join(q, plan.NestLoop, scan(q, "rt"), scan(q, "t")))
	})
	add("product-merge-2key", "bench-train004", func(q *query.Query) plan.Node {
		return join(q, plan.MergeJoin, join(q, plan.HashJoin, scan(q, "t"), scan(q, "rt")), scan(q, "ci"))
	})
	// bench-train002: ml carries three predicates towards t and lt.
	add("product-hash-1key", "bench-train002", func(q *query.Query) plan.Node {
		return join(q, plan.HashJoin, join(q, plan.HashJoin, scan(q, "miidx"), scan(q, "ml")), scan(q, "lt"))
	})
	add("hash-build-product-3key", "bench-train002", func(q *query.Query) plan.Node {
		product := join(q, plan.HashJoin, join(q, plan.HashJoin, scan(q, "ml"), scan(q, "mc")), scan(q, "lt"))
		return join(q, plan.HashJoin, scan(q, "t"), product)
	})
	// The training lifecycle's four heaviest executions, as its latency phase
	// runs them: two-key probes from a product in either factor order, a
	// product of a product probing on three keys, and a two-key probe into a
	// product build side.
	add("lifecycle-mc-at-hash-2key", "bench-train001", func(q *query.Query) plan.Node {
		product := join(q, plan.HashJoin, scan(q, "mc"), scan(q, "at"))
		return join(q, plan.HashJoin, product, join(q, plan.HashJoin, scan(q, "mi"), scan(q, "t")))
	})
	add("lifecycle-at-mc-hash-2key", "bench-train001", func(q *query.Query) plan.Node {
		product := join(q, plan.HashJoin, scan(q, "at"), scan(q, "mc"))
		return join(q, plan.HashJoin, product, join(q, plan.HashJoin, scan(q, "t"), scan(q, "mi")))
	})
	add("lifecycle-nested-product-hash-3key", "bench-train004", func(q *query.Query) plan.Node {
		product := join(q, plan.HashJoin, scan(q, "chn"), join(q, plan.HashJoin, scan(q, "t"), scan(q, "rt")))
		return join(q, plan.HashJoin, product, scan(q, "ci"))
	})
	add("lifecycle-hash-build-product-2key", "bench-train004", func(q *query.Query) plan.Node {
		probe := join(q, plan.NestLoop, scan(q, "rt"), scan(q, "ci"))
		return join(q, plan.HashJoin, probe, join(q, plan.HashJoin, scan(q, "t"), scan(q, "chn")))
	})
	for _, p := range out {
		if !plan.CrossProduct(p.root) {
			t.Fatalf("%s: no cross product in\n%s", p.name, plan.Format(p.root))
		}
	}
	return out
}

// heavyBudgets are the budgets one plan runs under: one unit either side of
// the running total at which each operator finishes — its refusal point,
// since a join's look-ahead charges its pending pairs before it stores them
// — the three quarter points of each join's own work, so that refusals also
// land inside the admission loops, and 0 (unlimited).
func heavyBudgets(t testing.TB, db *storage.DB, q *query.Query, root plan.Node) []int64 {
	t.Helper()
	set := map[int64]bool{0: true}
	var finished func(n plan.Node, before int64) int64
	finished = func(n plan.Node, before int64) int64 {
		start := before
		for _, c := range n.Children() {
			start = finished(c, start)
		}
		_, w, err := New(db).Execute(q, n)
		if err != nil {
			t.Fatal(err)
		}
		at := before + w.Total()
		set[at-1], set[at], set[at+1] = true, true, true
		if _, ok := n.(*plan.Join); ok {
			for k := int64(1); k < 4; k++ {
				set[start+(at-start)*k/4] = true
			}
		}
		return at
	}
	finished(root, 0)
	var out []int64
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// idChecksum folds every output id vector, relation by relation and row by
// row, into one hash: unlike rowChecksum it sees the order of the rows.
func idChecksum(res *Result) string {
	var h uint64
	for _, rl := range res.rels {
		h = mix64(h ^ hashString(rl.alias))
		for _, id := range rl.ids {
			h = mix64(h ^ uint64(uint32(id)))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// TestHeavyJoinGolden replays every (plan, budget) of the heavy-join golden
// file on a fresh engine and requires the counters, the verdict, the row
// count and the output's id vectors, in order, to match what the reference
// executor produced.
func TestHeavyJoinGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("executes products of up to 471k rows under ~20 budgets each")
	}
	db, _, queries := goldenWorkload(t)
	want := map[string]heavyCase{}
	if !*update {
		raw, err := os.ReadFile(heavyGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var gf heavyGoldenFile
		if err := json.Unmarshal(raw, &gf); err != nil {
			t.Fatalf("%s: %v", heavyGoldenPath, err)
		}
		for _, c := range gf.Cases {
			want[fmt.Sprintf("%s/%d", c.Plan, c.Budget)] = c
		}
	}
	var got []heavyCase
	for _, p := range heavyPlans(t, queries) {
		sig := fmt.Sprintf("%016x", hashString(p.root.Signature()))
		for _, budget := range heavyBudgets(t, db.Store, p.q, p.root) {
			c := heavyCase{Plan: p.name, Sig: sig, Budget: budget}
			res, w, err := New(db.Store).ExecuteBudget(p.q, p.root, budget)
			switch {
			case errors.Is(err, ErrBudget):
				c.Refused = true
			case err != nil:
				t.Fatalf("%s budget %d: %v", p.name, budget, err)
			default:
				c.N, c.IDs = res.N, idChecksum(res)
			}
			c.Work = workCounters(w)
			got = append(got, c)
			if *update {
				continue
			}
			key := fmt.Sprintf("%s/%d", c.Plan, c.Budget)
			g, ok := want[key]
			switch {
			case !ok:
				t.Fatalf("%s: not in %s", key, heavyGoldenPath)
			case g.Sig != c.Sig:
				t.Fatalf("%s: the plan differs from the one the golden file was recorded with\n%s", key, plan.Format(p.root))
			case g != c:
				t.Errorf("%s: got %+v, golden %+v", key, c, g)
			}
		}
	}
	if !*update {
		if len(got) != len(want) {
			t.Errorf("replayed %d cases, golden has %d", len(got), len(want))
		}
		return
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{%q: %q,\n%q: [\n", "note",
		"Recorded by `go test ./internal/engine -run TestHeavyJoinGolden -update`; see heavy_golden_test.go. work is [TuplesRead TuplesEmitted IndexProbes HashOps Comparisons RowsMaterialized], partial when refused; ids is an order-sensitive checksum of the output's id vectors.",
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
	if err := os.WriteFile(heavyGoldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
