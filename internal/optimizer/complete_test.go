package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/catalog"
	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
)

// completionQueries widens generated queries the way planspace's
// equivalence test does: every third gains a self-join alias (a second alias
// of one relation's table, joined to the same neighbours), and every seventh
// loses all join predicates of its last relation, so its graph is
// disconnected and its skeletons hold cross products.
func completionQueries(qs []*query.Query) []*query.Query {
	for i, q := range qs {
		if i%3 == 0 {
			r := q.Relations[i%len(q.Relations)]
			twin := r.Alias + "2"
			q.Relations = append(q.Relations, query.Relation{Table: r.Table, Alias: twin})
			for _, j := range q.Joins {
				switch r.Alias {
				case j.LeftAlias:
					j.LeftAlias = twin
				case j.RightAlias:
					j.RightAlias = twin
				default:
					continue
				}
				q.Joins = append(q.Joins, j)
			}
		}
		if i%7 == 0 {
			last := q.Relations[len(q.Relations)-1].Alias
			kept := q.Joins[:0]
			for _, j := range q.Joins {
				if j.LeftAlias != last && j.RightAlias != last {
					kept = append(kept, j)
				}
			}
			q.Joins = kept
		}
		if err := q.Validate(); err != nil {
			panic(err)
		}
	}
	return qs
}

// refScanVariants is the reference for a relation's access paths: the
// cheapest scan, then an index scan on each indexed join column, built and
// priced afresh on every call.
func refScanVariants(p *Planner, q *query.Query, alias string) []entry {
	rel, _ := q.RelationByAlias(alias)
	base, baseNC := p.BestScan(q, alias)
	out := []entry{{base, baseNC}}
	tbl, err := p.Cat.Table(rel.Table)
	if err != nil {
		return out
	}
	for _, ix := range tbl.Indexes {
		joinsIt := false
		for _, j := range q.Joins {
			if (j.LeftAlias == alias && j.LeftCol == ix.Column) ||
				(j.RightAlias == alias && j.RightCol == ix.Column) {
				joinsIt = true
				break
			}
		}
		if !joinsIt {
			continue
		}
		access := plan.IndexScan
		if ix.Kind == catalog.Hash {
			access = plan.HashIndexScan
		}
		cand := plan.BuildScan(q, alias, access, ix.Column)
		out = append(out, entry{cand, p.Model.ScanCost(q, cand)})
	}
	return out
}

// refRightInputs is the Signature rule for a join's right inputs: right,
// then every reference access path of a leaf right input whose Signature
// differs from right's.
func refRightInputs(p *Planner, q *query.Query, right entry) []entry {
	rights := []entry{right}
	if s, ok := right.node.(*plan.Scan); ok {
		for _, v := range refScanVariants(p, q, s.Alias) {
			if v.node.Signature() != right.node.Signature() {
				rights = append(rights, v)
			}
		}
	}
	return rights
}

// refBestJoin is join operator selection over refRightInputs, every
// candidate built with plan.JoinNodes.
func refBestJoin(p *Planner, q *query.Query, left, right entry) entry {
	best := entry{nc: cost.NodeCost{Total: math.Inf(1)}}
	for _, r := range refRightInputs(p, q, right) {
		for _, algo := range plan.JoinAlgos {
			j := plan.JoinNodes(q, algo, left.node, r.node)
			if nc := p.Model.JoinCost(q, j, left.nc, r.nc); nc.Total < best.nc.Total {
				best = entry{j, nc}
			}
		}
	}
	return best
}

// randomSkeleton builds a skeleton of q the way an agent's episode does:
// every leaf under a random access path, then random ordered pairs of the
// forest joined under random algorithms by plan.JoinNodes.
func randomSkeleton(p *Planner, q *query.Query, rng *rand.Rand) plan.Node {
	var forest []plan.Node
	for _, r := range q.Relations {
		leaves := []plan.Node{plan.BuildScan(q, r.Alias, plan.SeqScan, "")}
		for _, v := range refScanVariants(p, q, r.Alias) {
			leaves = append(leaves, v.node)
		}
		forest = append(forest, leaves[rng.Intn(len(leaves))])
	}
	for len(forest) > 1 {
		x := rng.Intn(len(forest))
		y := rng.Intn(len(forest) - 1)
		if y >= x {
			y++
		}
		joined := plan.JoinNodes(q, plan.JoinAlgos[rng.Intn(len(plan.JoinAlgos))], forest[x], forest[y])
		var next []plan.Node
		for i, n := range forest {
			if i != x && i != y {
				next = append(next, n)
			}
		}
		forest = append(next, joined)
	}
	return forest[0]
}

// refComplete is skeleton completion in mode (CompletePhysical, Operators or
// Access) with every candidate join built by plan.JoinNodes — predicates
// recomputed from the inputs' alias sets — every leaf's access paths built
// afresh and told apart by Signature, and no cache.
func refComplete(p *Planner, q *query.Query, mode plancache.Mode, n plan.Node) entry {
	switch n := n.(type) {
	case *plan.Scan:
		if mode == plancache.ModeCompleteOperators {
			return entry{n, p.Model.ScanCost(q, n)}
		}
		node, nc := p.BestScan(q, n.Alias)
		return entry{node, nc}
	case *plan.Join:
		left, right := refComplete(p, q, mode, n.Left), refComplete(p, q, mode, n.Right)
		switch mode {
		case plancache.ModeCompletePhysical:
			return refBestJoin(p, q, left, right)
		case plancache.ModeCompleteAccess:
			j := plan.JoinNodes(q, n.Algo, left.node, right.node)
			return entry{j, p.Model.JoinCost(q, j, left.nc, right.nc)}
		}
		best := entry{nc: cost.NodeCost{Total: math.Inf(1)}}
		for _, algo := range plan.JoinAlgos {
			j := plan.JoinNodes(q, algo, left.node, right.node)
			if nc := p.Model.JoinCost(q, j, left.nc, right.nc); nc.Total < best.nc.Total {
				best = entry{j, nc}
			}
		}
		return best
	}
	panic("optimizer: skeletons hold scans and joins")
}

// TestCompletionPredsEquivalence is the completion half of the gate for
// reusing a skeleton join's predicates (planspace's
// TestSkeletonPredsEquivalence is the other): over random skeletons of 210
// generated queries of 4 to 8 relations (see completionQueries), each
// completion mode returns the plan signature and cost bits of refComplete,
// which rebuilds every candidate with plan.JoinNodes — without a cache, and
// with one both cold and warm.
func TestCompletionPredsEquivalence(t *testing.T) {
	p, w := fixture(t)
	qs, err := w.Training(210, 4, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		mode     plancache.Mode
		complete func(*Planner, *query.Query, plan.Node) (plan.Node, cost.NodeCost)
	}{
		{plancache.ModeCompletePhysical, (*Planner).CompletePhysical},
		{plancache.ModeCompleteOperators, func(p *Planner, q *query.Query, n plan.Node) (plan.Node, cost.NodeCost) {
			return p.CompleteOperatorsMemo(q, n, nil)
		}},
		{plancache.ModeCompleteAccess, func(p *Planner, q *query.Query, n plan.Node) (plan.Node, cost.NodeCost) {
			return p.CompleteAccessMemo(q, n, nil, nil)
		}},
	}
	cached := p.WithCache(plancache.New(plancache.Config{}))
	rng := rand.New(rand.NewSource(1))
	for i, q := range completionQueries(qs) {
		for k := 0; k < 3; k++ {
			skeleton := randomSkeleton(p, q, rng)
			for _, m := range modes {
				ref := refComplete(p, q, m.mode, skeleton)
				want, wantNC := p.finishAgg(q, ref.node, ref.nc)
				for pass, planner := range []*Planner{p, cached, cached} {
					got, gotNC := m.complete(planner, q, skeleton)
					if got.Signature() != want.Signature() ||
						math.Float64bits(gotNC.Total) != math.Float64bits(wantNC.Total) ||
						math.Float64bits(gotNC.Rows) != math.Float64bits(wantNC.Rows) {
						t.Fatalf("query %d, skeleton %d, mode %v, pass %d:\n got %s (%v)\nwant %s (%v)",
							i, k, m.mode, pass, got.Signature(), gotNC.Total, want.Signature(), wantNC.Total)
					}
				}
			}
		}
	}
}

// TestLeafInputsMatchSignatureRule: the right inputs a join prices beside a
// leaf — read from the query's leaf table — are the ones the Signature rule
// (refRightInputs) lists, in the same order, with the same plans and cost
// bits, for every right input a join can meet: the relation's cheapest scan
// from the table, every scan a random skeleton holds, freshly built copies
// of each access path, and the cheapest scan of another query with the same
// fingerprint — which is what a plan cache returns. The cached planner's
// completion of each skeleton joins in: its leaf inputs come out of the
// cache filled by the clone's completions.
func TestLeafInputsMatchSignatureRule(t *testing.T) {
	p, w := fixture(t)
	qs, err := w.Training(120, 4, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Every other query also filters one joined column for equality, so
	// that its cheapest scan can be the index scan a join variant repeats.
	for i, q := range qs {
		if j := q.Joins; i%2 == 0 && len(j) > 0 {
			q.Filters = append(q.Filters, query.Filter{Alias: j[0].RightAlias, Column: j[0].RightCol, Op: query.Eq, Value: 7})
		}
	}
	cached := p.WithCache(plancache.New(plancache.Config{}))
	rng := rand.New(rand.NewSource(4))
	dups := 0
	for i, q := range completionQueries(qs) {
		clone := *q
		clone.Relations = append([]query.Relation(nil), q.Relations...)
		leaves, cloneLeaves := p.NewLeaves(q), p.NewLeaves(&clone)
		var rights []entry
		for _, r := range q.Relations {
			rights = append(rights, leaves.of(p, r.Alias).best(), cloneLeaves.of(p, r.Alias).best())
			rights = append(rights, refScanVariants(p, q, r.Alias)...)
		}
		for k := 0; k < 2; k++ {
			skeleton := randomSkeleton(p, q, rng)
			for _, s := range plan.Leaves(skeleton) {
				rights = append(rights, entry{s, p.Model.ScanCost(q, s)})
			}
			cached.CompletePhysical(&clone, skeleton)
			if got, want := mustComplete(cached, q, skeleton), mustComplete(p, q, skeleton); got != want {
				t.Fatalf("query %d: cached completion %s, uncached %s", i, got, want)
			}
		}
		for _, r := range rights {
			got := p.rightInputs(leaves, []entry{r})
			want := refRightInputs(p, q, r)
			if s, ok := r.node.(*plan.Scan); ok && len(want) < len(refScanVariants(p, q, s.Alias)) {
				dups++
			}
			if len(got) != len(want) {
				t.Fatalf("query %d, right %s: %d inputs, the Signature rule lists %d", i, r.node.Signature(), len(got), len(want))
			}
			for j := range want {
				if got[j].node.Signature() != want[j].node.Signature() ||
					math.Float64bits(got[j].nc.Total) != math.Float64bits(want[j].nc.Total) ||
					math.Float64bits(got[j].nc.Rows) != math.Float64bits(want[j].nc.Rows) {
					t.Fatalf("query %d, right %s, input %d: %s (%v), the Signature rule lists %s (%v)",
						i, r.node.Signature(), j, got[j].node.Signature(), got[j].nc.Total, want[j].node.Signature(), want[j].nc.Total)
				}
			}
		}
	}
	if dups == 0 {
		t.Fatal("no right input had an access path with its own signature; the sweep must cover the duplicate rule")
	}
}

// mustComplete returns the signature and cost bits of p's CompletePhysical
// of skeleton.
func mustComplete(p *Planner, q *query.Query, skeleton plan.Node) string {
	root, nc := p.CompletePhysical(q, skeleton)
	return fmt.Sprintf("%s %x %x", root.Signature(), math.Float64bits(nc.Total), math.Float64bits(nc.Rows))
}

// TestLeavesOfAnotherModelRepriced: a leaf table handed to a planner over
// another cost model (or for another query) is not read — the completion
// prices afresh and returns what it returns without one.
func TestLeavesOfAnotherModelRepriced(t *testing.T) {
	planners, w := goldenPlanners(t)
	exact, approx := planners["exact"], planners["sketch"]
	qs, err := w.Training(20, 4, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i, q := range qs {
		skeleton := randomSkeleton(exact, q, rng)
		stale := exact.NewLeaves(q)
		exact.CompletePhysicalMemo(q, skeleton, nil, stale) // prices every leaf under the exact model
		for _, leaves := range []*Leaves{stale, exact.NewLeaves(qs[(i+1)%len(qs)])} {
			got, gotNC := approx.CompletePhysicalMemo(q, skeleton, nil, leaves)
			want, wantNC := approx.CompletePhysical(q, skeleton)
			if got.Signature() != want.Signature() || math.Float64bits(gotNC.Total) != math.Float64bits(wantNC.Total) {
				t.Fatalf("query %d: completion with a foreign leaf table %s (%v), without %s (%v)",
					i, got.Signature(), gotNC.Total, want.Signature(), wantNC.Total)
			}
		}
	}
}
