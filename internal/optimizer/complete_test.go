package optimizer

import (
	"math"
	"math/rand"
	"testing"

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

// randomSkeleton builds a skeleton of q the way an agent's episode does:
// every leaf under a random access path, then random ordered pairs of the
// forest joined under random algorithms by plan.JoinNodes.
func randomSkeleton(p *Planner, q *query.Query, rng *rand.Rand) plan.Node {
	var forest []plan.Node
	for _, r := range q.Relations {
		leaves := []plan.Node{plan.BuildScan(q, r.Alias, plan.SeqScan, "")}
		for _, v := range p.scanVariants(q, r.Alias) {
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
// recomputed from the inputs' alias sets — and no cache.
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
			return p.BestJoin(q, left, right)
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
			return p.CompleteAccessMemo(q, n, nil)
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
