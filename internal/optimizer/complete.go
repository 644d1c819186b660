package optimizer

import (
	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
)

// completionFP returns the query fingerprint used to key completion cache
// entries; it is only meaningful (and only computed) when a cache is
// attached.
func (p *Planner) completionFP(q *query.Query) uint64 {
	if p.Cache == nil {
		return 0
	}
	return p.Cache.FingerprintOf(q)
}

// skeletonHashes computes every subtree's structural hash in one walk
// (nil when no cache is attached); the completion recursion then looks
// hashes up by node identity instead of rehashing each subtree at each
// level, keeping hashing O(tree) per completion. A caller-provided memo
// (the environments keep one per episode) is reused: nodes already hashed
// by an earlier completion of the same episode are not re-walked, and no
// fresh map is allocated.
func (p *Planner) skeletonHashes(skeleton plan.Node, memo map[plan.Node]uint64) map[plan.Node]uint64 {
	if p.Cache == nil {
		return nil
	}
	if memo == nil {
		memo = make(map[plan.Node]uint64, 16)
	}
	plancache.HashSubtreesMemo(skeleton, memo)
	return memo
}

// cachedSubtree memoizes one completion computation under (query
// fingerprint, skeleton-subtree hash, mode). Each completion is a pure
// function of that key — the planner's catalog and cost model are fixed —
// so a cache hit returns exactly the plan and cost the computation would
// have produced. Memoizing per subtree rather than only per root means a
// repeated workload query reuses its leaves and small join subtrees even
// when the sampled join orders differ between episodes.
func (p *Planner) cachedSubtree(fp, skeletonHash uint64, mode plancache.Mode, compute func() entry) entry {
	if p.Cache == nil {
		return compute()
	}
	k := plancache.Key{Query: fp, Skeleton: skeletonHash, Mode: mode}
	if e, ok := p.Cache.Get(k); ok {
		return entry{e.Plan, e.Cost}
	}
	e := compute()
	p.Cache.Put(k, plancache.Entry{Plan: e.node, Cost: e.nc})
	return e
}

// CompleteOperatorsMemo keeps the skeleton's join order AND leaf access
// paths but lets the optimizer choose every join algorithm (and the
// aggregation algorithm). Used when a learned agent has decided order +
// access paths and delegates operator selection (pipeline stage 2 of §5.3).
// memo is a caller-maintained skeleton-hash memo (see HashSubtreesMemo): an
// environment passing its per-episode memo hashes each node once per
// episode across repeated completion calls instead of once per call. A nil
// memo hashes the skeleton afresh.
func (p *Planner) CompleteOperatorsMemo(q *query.Query, skeleton plan.Node, memo map[plan.Node]uint64) (plan.Node, cost.NodeCost) {
	e := p.completeOps(q, p.completionFP(q), p.skeletonHashes(skeleton, memo), skeleton)
	return p.finishAgg(q, e.node, e.nc)
}

func (p *Planner) completeOps(q *query.Query, fp uint64, hs map[plan.Node]uint64, n plan.Node) entry {
	return p.cachedSubtree(fp, hs[n], plancache.ModeCompleteOperators, func() entry {
		switch n := n.(type) {
		case *plan.Scan:
			return entry{n, p.Model.ScanCost(q, n)}
		case *plan.Join:
			left := p.completeOps(q, fp, hs, n.Left)
			right := p.completeOps(q, fp, hs, n.Right)
			// Choose only the algorithm; inputs are fixed.
			return p.cheapestJoin(q, nil, left, right, false, n.Rebuild)
		case *plan.Agg:
			return p.completeOps(q, fp, hs, n.Child)
		default:
			panic("optimizer: unknown node")
		}
	})
}

// CompleteAccessMemo keeps the skeleton's join order AND join algorithms
// but lets the optimizer choose every leaf's access path. Used when a
// learned agent decides order + operators but delegates index selection.
// memo and leaves are as in CompletePhysicalMemo.
func (p *Planner) CompleteAccessMemo(q *query.Query, skeleton plan.Node, memo map[plan.Node]uint64, leaves *Leaves) (plan.Node, cost.NodeCost) {
	e := p.completeAccess(q, p.leavesFor(q, leaves), p.completionFP(q), p.skeletonHashes(skeleton, memo), skeleton)
	return p.finishAgg(q, e.node, e.nc)
}

func (p *Planner) completeAccess(q *query.Query, leaves *Leaves, fp uint64, hs map[plan.Node]uint64, n plan.Node) entry {
	return p.cachedSubtree(fp, hs[n], plancache.ModeCompleteAccess, func() entry {
		switch n := n.(type) {
		case *plan.Scan:
			return leaves.of(p, n.Alias).best()
		case *plan.Join:
			left := p.completeAccess(q, leaves, fp, hs, n.Left)
			right := p.completeAccess(q, leaves, fp, hs, n.Right)
			j := n.Rebuild(n.Algo, left.node, right.node)
			return entry{j, p.Model.JoinCost(q, j, left.nc, right.nc)}
		case *plan.Agg:
			return p.completeAccess(q, leaves, fp, hs, n.Child)
		default:
			panic("optimizer: unknown node")
		}
	})
}

// CostFixedMemo prices a fully specified plan (all dimensions decided by the
// caller), adding the query's aggregation with the given algorithm if the
// plan lacks it. memo is a caller-maintained per-episode skeleton-hash memo:
// costing the same skeleton under several aggregation algorithms (the
// agent-delegated aggregation choice) hashes the tree once instead of once
// per algorithm. A nil memo hashes the plan afresh.
func (p *Planner) CostFixedMemo(q *query.Query, root plan.Node, agg plan.AggAlgo, memo map[plan.Node]uint64) (plan.Node, cost.NodeCost) {
	if p.Cache != nil {
		k := plancache.Key{
			Query:    p.Cache.FingerprintOf(q),
			Skeleton: plancache.HashSubtreesMemo(root, memo),
			Mode:     plancache.ModeCostFixed,
			Aux:      uint8(agg),
		}
		if e, ok := p.Cache.Get(k); ok {
			return e.Plan, e.Cost
		}
		node, nc := p.costFixed(q, root, agg)
		p.Cache.Put(k, plancache.Entry{Plan: node, Cost: nc})
		return node, nc
	}
	return p.costFixed(q, root, agg)
}

func (p *Planner) costFixed(q *query.Query, root plan.Node, agg plan.AggAlgo) (plan.Node, cost.NodeCost) {
	if _, ok := root.(*plan.Agg); !ok {
		root = plan.FinishAgg(q, agg, root)
	}
	return root, p.Model.Explain(q, root)
}
