package optimizer

import (
	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// CompleteOperators keeps the skeleton's join order AND leaf access paths
// but lets the optimizer choose every join algorithm (and the aggregation
// algorithm). Used when a learned agent has decided order + access paths
// and delegates operator selection (pipeline stage 2 of §5.3).
func (p *Planner) CompleteOperators(q *query.Query, skeleton plan.Node) (plan.Node, cost.NodeCost) {
	e := p.completeOps(q, skeleton)
	return p.finishAgg(q, e.node, e.nc)
}

func (p *Planner) completeOps(q *query.Query, n plan.Node) entry {
	switch n := n.(type) {
	case *plan.Scan:
		return entry{n, p.Model.ScanCost(q, n)}
	case *plan.Join:
		left := p.completeOps(q, n.Left)
		right := p.completeOps(q, n.Right)
		// Choose only the algorithm; inputs are fixed.
		return p.cheapestJoin(q, nil, left, right, false, n.Rebuild)
	case *plan.Agg:
		return p.completeOps(q, n.Child)
	default:
		panic("optimizer: unknown node")
	}
}

// CompleteAccess keeps the skeleton's join order AND join algorithms but
// lets the optimizer choose every leaf's access path. Used when a learned
// agent decides order + operators but delegates index selection. leaves is
// as in CompletePhysicalLeaves.
func (p *Planner) CompleteAccess(q *query.Query, skeleton plan.Node, leaves *Leaves) (plan.Node, cost.NodeCost) {
	e := p.completeAccess(q, p.leavesFor(q, leaves), skeleton)
	return p.finishAgg(q, e.node, e.nc)
}

func (p *Planner) completeAccess(q *query.Query, leaves *Leaves, n plan.Node) entry {
	switch n := n.(type) {
	case *plan.Scan:
		return leaves.of(p, n.Alias).best()
	case *plan.Join:
		left := p.completeAccess(q, leaves, n.Left)
		right := p.completeAccess(q, leaves, n.Right)
		j := n.Rebuild(n.Algo, left.node, right.node)
		return entry{j, p.Model.JoinCost(q, j, left.nc, right.nc)}
	case *plan.Agg:
		return p.completeAccess(q, leaves, n.Child)
	default:
		panic("optimizer: unknown node")
	}
}

// CostFixed prices a fully specified plan (all dimensions decided by the
// caller), adding the query's aggregation with the given algorithm if the
// plan lacks it.
func (p *Planner) CostFixed(q *query.Query, root plan.Node, agg plan.AggAlgo) (plan.Node, cost.NodeCost) {
	if _, ok := root.(*plan.Agg); !ok {
		root = plan.FinishAgg(q, agg, root)
	}
	return root, p.Model.Explain(q, root)
}
