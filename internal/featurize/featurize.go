// Package featurize converts optimizer states into the fixed-length vectors
// the paper's neural agents consume. The encoding follows ReJOIN (§3): each
// join subtree is a row vector weighting its relations by 1/2^depth, plus a
// join-graph adjacency block and a per-relation predicate-selectivity block.
//
// Featurization runs once per step of every training episode, so it is a hot
// path. Scratch keeps its steady-state allocation down to the feature vector
// itself (which episode trajectories retain and therefore must be fresh): it
// carries the per-query alias positions and the per-episode cardinality memo,
// so a state is encoded by alias index where the naive encoding would rebuild
// alias sets and weight maps at every state.
package featurize

import (
	"math"
	"sort"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// Estimator is the slice of cardinality estimation featurization needs:
// the predicate-selectivity block and the per-subtree cardinality block.
// Both the exact histogram estimator (*stats.Estimator) and the
// sketch-backed one (*sketch.Estimator) satisfy it, so the same learned
// featurization runs on either statistics source.
type Estimator interface {
	BaseSelectivity(q *query.Query, alias string) float64
	SubsetCard(q *query.Query, aliases map[string]bool) float64
}

// Space is a fixed-size featurization context: it pins the maximum relation
// count so every query in a workload maps into vectors of identical length
// (the network input dimension). A Space is shared read-only by parallel
// collection workers; do not copy it after first use.
type Space struct {
	// MaxRels bounds the number of relations per query.
	MaxRels int
	// Est supplies filter selectivities for the predicate block.
	Est Estimator
}

// NewSpace builds a featurization space.
func NewSpace(maxRels int, est Estimator) *Space {
	return &Space{MaxRels: maxRels, Est: est}
}

// ObsDim is the length of the state vectors: MaxRels² for subtree rows,
// MaxRels² for the join graph, MaxRels for per-relation selectivities, and
// MaxRels for per-subtree estimated cardinalities.
func (s *Space) ObsDim() int {
	return 2*s.MaxRels*s.MaxRels + 2*s.MaxRels
}

// ActionDim is the size of the join-pair action space: all ordered pairs.
func (s *Space) ActionDim() int {
	return s.MaxRels * s.MaxRels
}

// AliasIndex returns the query's aliases in sorted order; the position of an
// alias in this slice is its feature index.
func AliasIndex(q *query.Query) []string {
	out := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		out[i] = r.Alias
	}
	sort.Strings(out)
	return out
}

// AppendJoinRels appends to dst, per q.Joins entry, the relation bits of its
// left and right alias: bit i stands for aliases[i], where aliases is
// AliasIndex(q). A relation set is a uint32 bitmask, so an alias past the
// 32nd position has no bit.
func AppendJoinRels(dst [][2]uint32, q *query.Query, aliases []string) [][2]uint32 {
	for _, j := range q.Joins {
		var b [2]uint32
		for i, a := range aliases[:min(len(aliases), 32)] {
			if a == j.LeftAlias {
				b[0] = 1 << i
			}
			if a == j.RightAlias {
				b[1] = 1 << i
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// Spans reports whether a join predicate with relation bits b (see
// AppendJoinRels) connects the relation sets l and r, in either orientation:
// q.JoinsBetween's test over bitmasks.
func Spans(b [2]uint32, l, r uint32) bool {
	return l&b[0] != 0 && r&b[1] != 0 || l&b[1] != 0 && r&b[0] != 0
}

// Scratch holds the reusable working state of featurization: the alias→index
// map and cached base selectivities of the current query, and a memo of
// subtree cardinalities keyed by plan node. Depth weights are written by
// alias index, so encoding a state builds no alias set except the one a
// cardinality-memo miss hands the estimator. One Scratch belongs to one
// environment (it is not concurrency-safe); call Reset at each episode start
// so the per-node memo does not retain the previous episode's plan nodes.
// The zero value is ready to use.
type Scratch struct {
	q     *query.Query
	names []string
	idx   map[string]int
	sels  []float64
	cards map[plan.Node]float64
}

// Reset drops per-episode state (the subtree cardinality memo). The
// per-query alias index and selectivity cache survive: they are keyed by
// query pointer and revalidated on use.
func (sc *Scratch) Reset() {
	clear(sc.cards)
}

// prepare returns the alias→feature-index map for q, rebuilding it — and the
// base-selectivity cache aligned with it — only when the query changes. The selectivity block of the encoding is constant per query, so
// caching it here removes the per-state estimator walk (and its filter-slice
// allocations) from the rollout hot path.
func (sc *Scratch) prepare(q *query.Query, est Estimator) map[string]int {
	if sc.q == q && sc.idx != nil {
		return sc.idx
	}
	sc.names = sc.names[:0]
	for _, r := range q.Relations {
		sc.names = append(sc.names, r.Alias)
	}
	sort.Strings(sc.names)
	if sc.idx == nil {
		sc.idx = make(map[string]int, len(sc.names))
	} else {
		clear(sc.idx)
	}
	for i, a := range sc.names {
		sc.idx[a] = i
	}
	sc.sels = sc.sels[:0]
	for _, a := range sc.names {
		sc.sels = append(sc.sels, est.BaseSelectivity(q, a))
	}
	sc.q = q
	return sc.idx
}

// cardOf returns the estimated cardinality of a subtree, memoized per node.
// Nodes are immutable and the memo is cleared per episode, so within an
// episode only newly joined subtrees pay the estimator walk — and the alias
// set it takes — while re-encoding an unchanged forest (every state revisits
// all current roots) is lookup-only.
func (sc *Scratch) cardOf(q *query.Query, est Estimator, n plan.Node) float64 {
	if c, ok := sc.cards[n]; ok {
		return c
	}
	aliases := make(map[string]bool, len(sc.names))
	addAliases(n, aliases)
	c := est.SubsetCard(q, aliases)
	if sc.cards == nil {
		sc.cards = make(map[plan.Node]float64, 16)
	}
	sc.cards[n] = c
	return c
}

// JoinState encodes the current forest of join subtrees. The subtree block
// has one row per current subtree (in forest order); entry (row, i) is
// 1/2^depth of relation i within that subtree, 0 if absent. The join-graph
// and selectivity blocks are constant per query.
func (s *Space) JoinState(q *query.Query, forest []plan.Node) []float64 {
	return s.JoinStateInto(make([]float64, s.ObsDim()), q, forest, nil)
}

// JoinStateInto is JoinState writing into caller-owned storage: dst must have
// length ObsDim() and is fully overwritten. sc carries the reusable working
// maps; nil falls back to throwaway ones. The returned slice is dst. dst must
// still be freshly allocated per state when the result is retained (episode
// trajectories keep feature vectors until the policy update); what the
// scratch eliminates is every other allocation of the encoding.
func (s *Space) JoinStateInto(dst []float64, q *query.Query, forest []plan.Node, sc *Scratch) []float64 {
	if sc == nil {
		sc = &Scratch{}
	}
	n := s.MaxRels
	features := dst[:s.ObsDim()]
	for i := range features {
		features[i] = 0
	}
	idx := sc.prepare(q, s.Est)

	// Subtree block.
	for row, tree := range forest {
		if row >= n {
			break
		}
		depthWeights(features[row*n:(row+1)*n], idx, tree, 0)
	}
	// Join-graph block.
	off := n * n
	for _, j := range q.Joins {
		a, aok := idx[j.LeftAlias]
		b, bok := idx[j.RightAlias]
		if aok && bok && a < n && b < n {
			features[off+a*n+b] = 1
			features[off+b*n+a] = 1
		}
	}
	// Selectivity block (constant per query; served from the scratch cache).
	off = 2 * n * n
	for i, sel := range sc.sels {
		if i < n {
			features[off+i] = sel
		}
	}
	// Cardinality block: log-scaled estimated output size of each current
	// subtree. Without it the policy cannot distinguish a tiny dimension
	// subtree from a fact-table blowup when choosing what to join next.
	off = 2*n*n + n
	for row, tree := range forest {
		if row >= n {
			break
		}
		card := sc.cardOf(q, s.Est, tree)
		features[off+row] = math.Log10(card+1) / 10
	}
	return features
}

// DecodeAction splits an action id into its (x, y) pair.
func (s *Space) DecodeAction(a int) (x, y int) {
	return a / s.MaxRels, a % s.MaxRels
}

// EncodeAction builds the action id of the (x, y) pair.
func (s *Space) EncodeAction(x, y int) int {
	return x*s.MaxRels + y
}

// addAliases adds the alias of every relation in the subtree to set.
func addAliases(n plan.Node, set map[string]bool) {
	switch n := n.(type) {
	case *plan.Scan:
		set[n.Alias] = true
	case *plan.Join:
		addAliases(n.Left, set)
		addAliases(n.Right, set)
	case *plan.Agg:
		addAliases(n.Child, set)
	}
}

// depthWeights writes 1/2^depth of every relation in the subtree into its
// feature row, at the relation's alias index.
func depthWeights(row []float64, idx map[string]int, n plan.Node, depth int) {
	switch n := n.(type) {
	case *plan.Scan:
		if i, ok := idx[n.Alias]; ok && i < len(row) {
			row[i] = 1 / float64(int64(1)<<uint(depth))
		}
	case *plan.Join:
		depthWeights(row, idx, n.Left, depth+1)
		depthWeights(row, idx, n.Right, depth+1)
	case *plan.Agg:
		depthWeights(row, idx, n.Child, depth+1)
	}
}
