// Package optimizer implements the traditional query optimizer that plays
// the role of PostgreSQL in the paper: access-path selection, join-order
// enumeration (Selinger dynamic programming up to a threshold, GEQO-style
// randomized search beyond it, and a greedy bottom-up enumerator), join
// operator selection, and aggregate operator selection.
//
// It serves the learned agents three ways, matching the paper:
//   - its cost model is ReJOIN's reward signal and the bootstrapping agent's
//     Phase-1 reward (§3, §5.2);
//   - its plan choices are the expert demonstrations for §5.1;
//   - its per-query planning time is the baseline of Figure 3c.
//
// Every planning entry point — full enumeration (PlanWith) and the skeleton
// completions the learned agents call once per episode (CompletePhysical,
// CompleteOperatorsMemo, CompleteAccessMemo, CostFixedMemo) — optionally
// consults a plancache.Cache before computing. Completion is memoized at
// subtree granularity, so even when sampled join orders differ between
// episodes the shared leaves and small join subtrees of a repeated workload
// query are served from cache.
package optimizer

import (
	"context"
	"fmt"
	"math"
	"time"

	"handsfree/internal/catalog"
	"handsfree/internal/cost"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
)

// Strategy selects the join enumeration algorithm.
type Strategy int

const (
	// Auto uses DP up to DPThreshold relations, then GEQO (PostgreSQL's
	// geqo_threshold behaviour).
	Auto Strategy = iota
	// DP is exhaustive Selinger dynamic programming (bushy).
	DP
	// Greedy is the O(n²)-per-step bottom-up heuristic.
	Greedy
	// GEQO is randomized greedy with restarts (stand-in for PostgreSQL's
	// genetic optimizer).
	GEQO
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case DP:
		return "dp"
	case Greedy:
		return "greedy"
	case GEQO:
		return "geqo"
	default:
		return "auto"
	}
}

// Planner is the traditional optimizer.
type Planner struct {
	Cat   *catalog.Catalog
	Model *cost.Model
	// DPThreshold is the largest relation count planned with exhaustive DP
	// (PostgreSQL's geqo_threshold defaults to 12).
	DPThreshold int
	// GEQORestarts is the number of randomized-greedy restarts.
	GEQORestarts int
	// AllowCross permits cross products during enumeration when the join
	// graph leaves no connected choice.
	AllowCross bool
	// LeftDeepOnly restricts DP to left-deep trees (the classical Selinger
	// restriction; bushy enumeration is the default). Exposed for the
	// enumerator ablation.
	LeftDeepOnly bool
	// Seed drives the randomized search.
	Seed int64
	// Cache, when non-nil, memoizes planning and skeleton completion across
	// calls (the plan cache service). All planners sharing one cache must
	// plan over the same catalog and cost model; the enumeration knobs that
	// the ablations vary (LeftDeepOnly, AllowCross) are folded into the
	// cache key, so WithCache copies with different settings stay distinct.
	Cache *plancache.Cache
}

// WithCache returns a planner identical to p that consults cache. The
// receiver is returned unchanged when it already uses that cache (or cache
// is nil); otherwise a shallow copy is made so shared planners are not
// mutated behind other callers' backs.
func (p *Planner) WithCache(cache *plancache.Cache) *Planner {
	if cache == nil || p.Cache == cache {
		return p
	}
	cp := *p
	cp.Cache = cache
	return &cp
}

// planAux encodes the enumeration knobs that change full-planning results
// into the cache key's Aux byte: the strategy in the low bits, the ablation
// flags in the top two (leaving room for future strategies without key
// aliasing).
func (p *Planner) planAux(s Strategy) uint8 {
	aux := uint8(s)
	if p.LeftDeepOnly {
		aux |= 1 << 6
	}
	if p.AllowCross {
		aux |= 1 << 7
	}
	return aux
}

// New returns a planner with PostgreSQL-like defaults.
func New(cat *catalog.Catalog, model *cost.Model) *Planner {
	return &Planner{
		Cat:          cat,
		Model:        model,
		DPThreshold:  12,
		GEQORestarts: 12,
		AllowCross:   true,
		Seed:         1,
	}
}

// Planned couples a physical plan with its cost and the planning time spent
// producing it.
type Planned struct {
	Root     plan.Node
	Cost     float64
	Rows     float64
	Duration time.Duration
	Strategy Strategy
}

// Plan optimizes the query with the Auto strategy.
func (p *Planner) Plan(q *query.Query) (Planned, error) {
	return p.PlanWithCtx(context.Background(), q, Auto)
}

// PlanCtx optimizes the query with the Auto strategy under a request-scoped
// context: enumeration checks ctx between search steps, so a deadline or
// cancellation cuts planning off mid-search and returns ctx.Err().
func (p *Planner) PlanCtx(ctx context.Context, q *query.Query) (Planned, error) {
	return p.PlanWithCtx(ctx, q, Auto)
}

// PlanWith optimizes the query with an explicit enumeration strategy.
func (p *Planner) PlanWith(q *query.Query, s Strategy) (Planned, error) {
	return p.PlanWithCtx(context.Background(), q, s)
}

// PlanWithCtx is PlanWith with a request-scoped context threaded through the
// enumeration loops (DP subset sweep, greedy merge steps, GEQO restarts).
// It returns ctx.Err() — typically context.DeadlineExceeded — as soon as the
// search loop observes an expired context.
func (p *Planner) PlanWithCtx(ctx context.Context, q *query.Query, s Strategy) (Planned, error) {
	if err := q.Validate(); err != nil {
		return Planned{}, err
	}
	if len(q.Relations) == 0 {
		return Planned{}, fmt.Errorf("optimizer: query has no relations")
	}
	if err := ctx.Err(); err != nil {
		return Planned{}, err
	}
	start := time.Now()
	effective := s
	if s == Auto {
		if len(q.Relations) <= p.DPThreshold {
			effective = DP
		} else {
			effective = GEQO
		}
	}
	var key plancache.Key
	if p.Cache != nil {
		key = plancache.Key{
			Query: p.Cache.FingerprintOf(q),
			Mode:  plancache.ModePlan,
			Aux:   p.planAux(effective),
		}
		if e, ok := p.Cache.Get(key); ok {
			return Planned{
				Root:     e.Plan,
				Cost:     e.Cost.Total,
				Rows:     e.Cost.Rows,
				Duration: time.Since(start),
				Strategy: effective,
			}, nil
		}
	}
	var root plan.Node
	var nc cost.NodeCost
	var err error
	switch effective {
	case DP:
		root, nc, err = p.planDP(ctx, q)
	case Greedy:
		root, nc, err = p.planGreedy(ctx, q, p.NewLeaves(q), nil)
	case GEQO:
		root, nc, err = p.planGEQO(ctx, q)
	}
	if err != nil {
		return Planned{}, err
	}
	root, nc = p.finishAgg(q, root, nc)
	if p.Cache != nil {
		p.Cache.Put(key, plancache.Entry{Plan: root, Cost: nc})
	}
	return Planned{
		Root:     root,
		Cost:     nc.Total,
		Rows:     nc.Rows,
		Duration: time.Since(start),
		Strategy: effective,
	}, nil
}

// entry is one enumeration candidate: a plan with its incremental costing.
type entry struct {
	node plan.Node
	nc   cost.NodeCost
}

// BestScan picks the cheapest access path for one relation: sequential scan,
// or any index on a filtered column (this is the optimizer's access-path
// selection stage).
func (p *Planner) BestScan(q *query.Query, alias string) (plan.Node, cost.NodeCost) {
	rel, _ := q.RelationByAlias(alias)
	best := plan.BuildScan(q, alias, plan.SeqScan, "")
	bestNC := p.Model.ScanCost(q, best)
	tbl, err := p.Cat.Table(rel.Table)
	if err != nil {
		return best, bestNC
	}
	for _, ix := range tbl.Indexes {
		for _, f := range q.FiltersOn(alias) {
			if f.Column != ix.Column {
				continue
			}
			access := plan.IndexScan
			if ix.Kind == catalog.Hash {
				if f.Op != query.Eq {
					continue
				}
				access = plan.HashIndexScan
			}
			cand := plan.BuildScan(q, alias, access, ix.Column)
			nc := p.Model.ScanCost(q, cand)
			if nc.Total < bestNC.Total {
				best, bestNC = cand, nc
			}
		}
	}
	return best, bestNC
}

// Leaves is one query's priced access paths: for each relation, its
// cheapest scan (BestScan) and the scans a join tries as its inner input —
// the cheapest one plus an index scan on each indexed join column. Both are
// pure functions of (catalog, cost model, query, alias), so a relation's
// paths are built and priced on its first use and then serve every join
// over the query: planDP, planGreedy and planGEQO build one table per call,
// and a training environment keeps one per query across its episodes. A
// Leaves is not safe for concurrent use.
type Leaves struct {
	q     *query.Query
	cat   *catalog.Catalog
	model *cost.Model
	rels  []leaf // by position in q.Relations
}

// leaf is one relation's access paths. variants is every path in pricing
// order: the cheapest scan, then one index scan per indexed join column in
// catalog order. inner is the right inputs a join prices when its right
// input is the cheapest scan itself: variants minus those whose signature
// equals the cheapest scan's (the cheapest scan first). Both are nil until
// the relation's first use.
type leaf struct {
	variants, inner []entry
}

// NewLeaves returns q's leaf table under p's catalog and cost model, with
// nothing priced yet.
func (p *Planner) NewLeaves(q *query.Query) *Leaves {
	return &Leaves{q: q, cat: p.Cat, model: p.Model, rels: make([]leaf, len(q.Relations))}
}

// leavesFor returns l when it is q's table under p's catalog and cost
// model, and a fresh table otherwise (a nil l included).
func (p *Planner) leavesFor(q *query.Query, l *Leaves) *Leaves {
	if l != nil && l.q == q && l.cat == p.Cat && l.model == p.Model {
		return l
	}
	return p.NewLeaves(q)
}

// of returns alias's access paths, pricing them on first use.
func (l *Leaves) of(p *Planner, alias string) *leaf {
	for i := range l.q.Relations {
		if l.q.Relations[i].Alias != alias {
			continue
		}
		lf := &l.rels[i]
		if lf.variants == nil {
			*lf = p.priceLeaf(l.q, alias)
		}
		return lf
	}
	lf := p.priceLeaf(l.q, alias) // not a relation of q: priced, not kept
	return &lf
}

// best is the relation's cheapest scan.
func (lf *leaf) best() entry { return lf.variants[0] }

// priceLeaf builds and prices alias's access paths.
func (p *Planner) priceLeaf(q *query.Query, alias string) leaf {
	rel, _ := q.RelationByAlias(alias)
	base, baseNC := p.BestScan(q, alias)
	lf := leaf{variants: []entry{{base, baseNC}}}
	if tbl, err := p.Cat.Table(rel.Table); err == nil {
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
			lf.variants = append(lf.variants, entry{cand, p.Model.ScanCost(q, cand)})
		}
	}
	lf.inner = lf.variants[:1:1]
	for _, v := range lf.variants[1:] {
		if !v.node.(*plan.Scan).SameSignature(base.(*plan.Scan)) {
			lf.inner = append(lf.inner, v)
		}
	}
	return lf
}

// bestJoin combines two subtrees with the cheapest (algorithm, inner access
// path) pair — the optimizer's join operator selection stage. The right
// input may be replaced by an index-scan variant to enable index nested
// loops when the right entry is a leaf.
func (p *Planner) bestJoin(q *query.Query, leaves *Leaves, left, right entry) entry {
	return p.cheapestJoin(q, leaves, left, right, true, func(algo plan.JoinAlgo, l, r plan.Node) *plan.Join {
		return plan.JoinNodes(q, algo, l, r)
	})
}

// cheapestJoin is the one candidate loop of join operator selection: it
// costs every join algorithm over right and, when variants is set and right
// is a leaf, over each of its access paths in leaves whose signature
// differs from right's too, building each candidate with build. Enumeration
// builds with plan.JoinNodes; skeleton completion builds with the skeleton
// join's own predicates (plan.Join.Rebuild), which are the same ones.
func (p *Planner) cheapestJoin(q *query.Query, leaves *Leaves, left, right entry, variants bool, build func(algo plan.JoinAlgo, left, right plan.Node) *plan.Join) entry {
	one := [1]entry{right}
	rights := one[:]
	if variants {
		rights = p.rightInputs(leaves, rights)
	}
	var best entry
	bestCost := math.Inf(1)
	for _, r := range rights {
		for _, algo := range plan.JoinAlgos {
			j := build(algo, left.node, r.node)
			nc := p.Model.JoinCost(q, j, left.nc, r.nc)
			if nc.Total < bestCost {
				best = entry{j, nc}
				bestCost = nc.Total
			}
		}
	}
	return best
}

// rightInputs returns the right inputs a join prices beside rights[0]:
// when it is a leaf, each access path of its relation whose signature
// differs from its own, appended in pricing order. The relation's cheapest
// scan takes the precomputed list; any other scan of it — a skeleton's, or
// one the plan cache returned for another query of the same fingerprint —
// is compared field by field (plan.Scan.SameSignature).
func (p *Planner) rightInputs(leaves *Leaves, rights []entry) []entry {
	s, ok := rights[0].node.(*plan.Scan)
	if !ok {
		return rights
	}
	lf := leaves.of(p, s.Alias)
	if s == lf.best().node {
		return lf.inner
	}
	for _, v := range lf.variants {
		if !v.node.(*plan.Scan).SameSignature(s) {
			rights = append(rights, v)
		}
	}
	return rights
}

func (p *Planner) finishAgg(q *query.Query, root plan.Node, nc cost.NodeCost) (plan.Node, cost.NodeCost) {
	if len(q.Aggregates) == 0 && len(q.GroupBys) == 0 {
		return root, nc
	}
	var best plan.Node
	bestNC := cost.NodeCost{Total: math.Inf(1)}
	for _, algo := range plan.AggAlgos {
		a := &plan.Agg{Algo: algo, Child: root, GroupBys: q.GroupBys, Aggregates: q.Aggregates}
		c := p.Model.AggCost(q, a, nc)
		if c.Total < bestNC.Total {
			best, bestNC = a, c
		}
	}
	return best, bestNC
}
