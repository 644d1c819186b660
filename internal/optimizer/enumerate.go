package optimizer

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
)

// planDP is exhaustive Selinger-style dynamic programming over connected
// subsets (bushy trees). Cross products are only introduced at the top when
// the join graph is disconnected and AllowCross is set. The context is
// checked once per subset, so an expired deadline aborts the sweep after at
// most one subset's worth of work.
func (p *Planner) planDP(ctx context.Context, q *query.Query) (plan.Node, cost.NodeCost, error) {
	n := len(q.Relations)
	if n > 20 {
		return nil, cost.NodeCost{}, fmt.Errorf("optimizer: %d relations exceeds DP capacity", n)
	}
	aliases := make([]string, n)
	for i, r := range q.Relations {
		aliases[i] = r.Alias
	}
	aliasBit := make(map[string]uint32, n)
	for i, a := range aliases {
		aliasBit[a] = 1 << i
	}

	// Join-graph connectivity as bitmasks.
	adj := make([]uint32, n)
	for _, j := range q.Joins {
		l, r := aliasBit[j.LeftAlias], aliasBit[j.RightAlias]
		for i := 0; i < n; i++ {
			if l == 1<<i {
				adj[i] |= r
			}
			if r == 1<<i {
				adj[i] |= l
			}
		}
	}
	connectedTo := func(mask uint32) uint32 {
		var out uint32
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				out |= adj[i]
			}
		}
		return out &^ mask
	}

	allowCross := p.crossNeeded(q)
	leaves := p.NewLeaves(q)
	best := make(map[uint32]entry, 1<<n)
	for i, a := range aliases {
		best[1<<i] = leaves.of(p, a).best()
	}

	full := uint32(1<<n) - 1
	// Enumerate subsets in increasing popcount order via plain increasing
	// masks (every proper submask of m is < m).
	for mask := uint32(1); mask <= full; mask++ {
		if err := ctx.Err(); err != nil {
			return nil, cost.NodeCost{}, err
		}
		if _, done := best[mask]; done {
			continue // singleton
		}
		var bestE entry
		bestCost := math.Inf(1)
		// Iterate proper submasks.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask &^ sub
			if p.LeftDeepOnly && other&(other-1) != 0 {
				continue // right side must be a single relation
			}
			le, lok := best[sub]
			re, rok := best[other]
			if !lok || !rok {
				continue
			}
			// Require a join predicate between the halves unless the query's
			// graph forces a cross product.
			if connectedTo(sub)&other == 0 && !allowCross {
				continue
			}
			cand := p.bestJoin(q, leaves, le, re)
			if cand.nc.Total < bestCost {
				bestE = cand
				bestCost = cand.nc.Total
			}
		}
		if bestCost < math.Inf(1) {
			best[mask] = bestE
		}
	}
	e, ok := best[full]
	if !ok {
		// Disconnected graph without AllowCross.
		return nil, cost.NodeCost{}, fmt.Errorf("optimizer: no connected plan for query %s", q.Name)
	}
	return e.node, e.nc, nil
}

// crossNeeded reports whether cross products must be allowed for this query
// (disconnected join graph and the planner permits them).
func (p *Planner) crossNeeded(q *query.Query) bool {
	return p.AllowCross && !q.Connected()
}

// planGreedy builds the plan bottom-up: at every step it joins the pair of
// current subtrees whose best physical join has the lowest resulting total
// cost — the greedy O(n²)-per-step enumeration the paper attributes to
// PostgreSQL's non-exhaustive mode. A non-nil rng adds GEQO-style noise by
// choosing uniformly among the top-3 candidate pairs. The context is checked
// once per merge step. leaves is q's leaf table, which GEQO's restarts
// share.
func (p *Planner) planGreedy(ctx context.Context, q *query.Query, leaves *Leaves, rng *rand.Rand) (plan.Node, cost.NodeCost, error) {
	items := make([]entry, 0, len(q.Relations))
	for _, r := range q.Relations {
		items = append(items, leaves.of(p, r.Alias).best())
	}
	for len(items) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, cost.NodeCost{}, err
		}
		type cand struct {
			i, j int
			e    entry
		}
		var cands []cand
		for i := 0; i < len(items); i++ {
			for j := 0; j < len(items); j++ {
				if i == j {
					continue
				}
				// Skip cross products while a connected pair exists.
				preds := q.JoinsBetween(items[i].node.Aliases(), items[j].node.Aliases())
				if len(preds) == 0 {
					continue
				}
				cands = append(cands, cand{i, j, p.bestJoin(q, leaves, items[i], items[j])})
			}
		}
		if len(cands) == 0 {
			if !p.AllowCross {
				return nil, cost.NodeCost{}, fmt.Errorf("optimizer: stuck without cross products")
			}
			for i := 0; i < len(items); i++ {
				for j := 0; j < len(items); j++ {
					if i != j {
						cands = append(cands, cand{i, j, p.bestJoin(q, leaves, items[i], items[j])})
					}
				}
			}
		}
		// Order candidates by cost (selection sort of the top 3 is enough).
		top := 1
		if rng != nil {
			top = 3
		}
		if top > len(cands) {
			top = len(cands)
		}
		for k := 0; k < top; k++ {
			minI := k
			for m := k + 1; m < len(cands); m++ {
				if cands[m].e.nc.Total < cands[minI].e.nc.Total {
					minI = m
				}
			}
			cands[k], cands[minI] = cands[minI], cands[k]
		}
		pick := 0
		if rng != nil {
			pick = rng.Intn(top)
		}
		chosen := cands[pick]
		// Replace the two inputs with the joined subtree.
		var next []entry
		for idx, it := range items {
			if idx != chosen.i && idx != chosen.j {
				next = append(next, it)
			}
		}
		next = append(next, chosen.e)
		items = next
	}
	return items[0].node, items[0].nc, nil
}

// planGEQO runs randomized greedy construction with restarts and keeps the
// best plan — a stand-in for PostgreSQL's genetic optimizer with the same
// role in the experiments: sub-exhaustive search for large join counts whose
// planning time scales far better than DP.
func (p *Planner) planGEQO(ctx context.Context, q *query.Query) (plan.Node, cost.NodeCost, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	var bestN plan.Node
	bestNC := cost.NodeCost{Total: math.Inf(1)}
	restarts := p.GEQORestarts
	if restarts < 1 {
		restarts = 1
	}
	leaves := p.NewLeaves(q)
	for r := 0; r < restarts; r++ {
		node, nc, err := p.planGreedy(ctx, q, leaves, rng)
		if err != nil {
			return nil, cost.NodeCost{}, err
		}
		if nc.Total < bestNC.Total {
			bestN, bestNC = node, nc
		}
	}
	return bestN, bestNC, nil
}

// CompletePhysical takes a join-order skeleton (any plan tree over the
// query's relations) and re-performs the optimizer's physical decisions —
// access paths, join algorithms, aggregation algorithm — while preserving
// the skeleton's join order exactly. This implements the paper's §3 loop:
// "the final join ordering is sent to the optimizer to perform operator
// selection, index selection, etc." With a cache attached, the completion
// is memoized per subtree, so the episode-collection hot path skips
// recomputation for every part of the skeleton it has seen before.
//
// Contract: every join of the skeleton carries the predicates of q that span
// its two inputs — what plan.JoinNodes attaches, and what every in-tree
// skeleton builder (planspace.Env, RandomOrder, the planners themselves)
// produces. The completion costs its candidate joins with those
// predicates instead of recomputing them from alias sets per candidate, as
// CompleteOperatorsMemo and CompleteAccessMemo do too.
func (p *Planner) CompletePhysical(q *query.Query, skeleton plan.Node) (plan.Node, cost.NodeCost) {
	return p.CompletePhysicalMemo(q, skeleton, nil, nil)
}

// CompletePhysicalMemo is CompletePhysical with a caller-maintained
// per-episode skeleton-hash memo (see CompleteOperatorsMemo) and q's leaf
// table. The training environments pass their episode memo and the query's
// table here, so the terminal completion of each episode reuses hashes (and
// the map allocation) instead of re-walking the skeleton, and prices each
// relation's access paths once per query instead of once per join. A nil
// leaves, or one built for another query or cost model, prices them afresh.
func (p *Planner) CompletePhysicalMemo(q *query.Query, skeleton plan.Node, memo map[plan.Node]uint64, leaves *Leaves) (plan.Node, cost.NodeCost) {
	e := p.completeEntry(q, p.leavesFor(q, leaves), p.completionFP(q), p.skeletonHashes(skeleton, memo), skeleton)
	return p.finishAgg(q, e.node, e.nc)
}

func (p *Planner) completeEntry(q *query.Query, leaves *Leaves, fp uint64, hs map[plan.Node]uint64, n plan.Node) entry {
	return p.cachedSubtree(fp, hs[n], plancache.ModeCompletePhysical, func() entry {
		switch n := n.(type) {
		case *plan.Scan:
			return leaves.of(p, n.Alias).best()
		case *plan.Join:
			left := p.completeEntry(q, leaves, fp, hs, n.Left)
			right := p.completeEntry(q, leaves, fp, hs, n.Right)
			return p.cheapestJoin(q, leaves, left, right, true, n.Rebuild)
		case *plan.Agg:
			return p.completeEntry(q, leaves, fp, hs, n.Child)
		default:
			panic("optimizer: unknown node")
		}
	})
}

// RandomOrder builds a uniformly random join-order skeleton (the paper's
// "random choice" baseline). Scans and join algorithms are left at defaults;
// pass the result through CompletePhysical for a fair physical comparison.
func RandomOrder(q *query.Query, rng *rand.Rand) plan.Node {
	items := make([]plan.Node, 0, len(q.Relations))
	for _, r := range q.Relations {
		items = append(items, plan.BuildScan(q, r.Alias, plan.SeqScan, ""))
	}
	for len(items) > 1 {
		i := rng.Intn(len(items))
		j := rng.Intn(len(items) - 1)
		if j >= i {
			j++
		}
		joined := plan.JoinNodes(q, plan.NestLoop, items[i], items[j])
		var next []plan.Node
		for k, it := range items {
			if k != i && k != j {
				next = append(next, it)
			}
		}
		items = append(next, joined)
	}
	return items[0]
}
