// Package featurize converts optimizer states into the fixed-length vectors
// the paper's neural agents consume. The encoding follows ReJOIN (§3): each
// join subtree is a row vector weighting its relations by 1/2^depth, plus a
// join-graph adjacency block and a per-relation predicate-selectivity block.
//
// Featurization runs once per step of every training episode, so it is a hot
// path. Scratch keeps its steady-state allocation down to the feature vector
// itself (which episode trajectories retain and therefore must be fresh): it
// carries, per query, the alias positions, the constant blocks and a memo of
// subtree cardinalities by relation set, so a state is encoded by alias index
// and bitmask where the naive encoding would rebuild alias sets and weight
// maps and re-run the estimator at every state.
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

// Scratch holds the per-query part of the encoding, computed once per query
// and kept across episodes: the alias index, the base selectivities, the
// join-graph entries and a memo of subtree cardinalities keyed by relation
// bitmask (bit i stands for the i-th alias of AliasIndex). Every entry is a
// pure function of (query, estimator) — statistics are fixed once the system
// is open and queries are immutable once planned — so an entry never goes
// stale; a Scratch used with another Space forgets what it held. Entries are
// keyed by query pointer and bounded at maxQueries, since a serving
// environment sees an open-ended stream. Encoding a state therefore builds
// nothing: depth weights and relation bits come from one walk of each
// subtree, and only a relation set never seen before hands the estimator an
// alias set. One Scratch belongs to one environment (it is not
// concurrency-safe). The zero value is ready to use.
type Scratch struct {
	space   *Space
	q       *query.Query
	cur     *queryFeatures
	queries map[*query.Query]*queryFeatures
}

// queryFeatures is one query's entry in a Scratch.
type queryFeatures struct {
	names []string
	idx   map[string]int
	sels  []float64
	edges [][2]int // join-graph entries: the alias indexes of each join
	// cards memoizes SubsetCard by relation bitmask; nil when the query has
	// more relations than a uint32 mask holds, and each subtree then pays
	// the estimator walk.
	cards map[uint32]float64
}

// maxQueries bounds the queries a Scratch keeps; a training environment
// cycles through far fewer.
const maxQueries = 64

// Reset marks an episode boundary. It drops nothing: every entry the scratch
// holds is keyed by query and relation set and stays valid across episodes.
func (sc *Scratch) Reset() {}

// prepare returns q's entry, building it the first time q is encoded in s.
func (sc *Scratch) prepare(s *Space, q *query.Query) *queryFeatures {
	if sc.q == q && sc.space == s {
		return sc.cur
	}
	if sc.space != s {
		clear(sc.queries)
		sc.space = s
	}
	qf, ok := sc.queries[q]
	if !ok {
		qf = newQueryFeatures(q, s.Est)
		if sc.queries == nil {
			sc.queries = make(map[*query.Query]*queryFeatures)
		} else if len(sc.queries) >= maxQueries {
			clear(sc.queries)
		}
		sc.queries[q] = qf
	}
	sc.q, sc.cur = q, qf
	return qf
}

func newQueryFeatures(q *query.Query, est Estimator) *queryFeatures {
	names := AliasIndex(q)
	qf := &queryFeatures{
		names: names,
		idx:   make(map[string]int, len(names)),
		sels:  make([]float64, len(names)),
	}
	for i, a := range names {
		qf.idx[a] = i
		qf.sels[i] = est.BaseSelectivity(q, a)
	}
	for _, j := range q.Joins {
		a, aok := qf.idx[j.LeftAlias]
		b, bok := qf.idx[j.RightAlias]
		if aok && bok {
			qf.edges = append(qf.edges, [2]int{a, b})
		}
	}
	if len(names) <= 32 {
		qf.cards = make(map[uint32]float64)
	}
	return qf
}

// cardOf returns the estimated cardinality of subtree n, whose relation bits
// are rels: a memo hit unless the query meets the set for the first time.
func (qf *queryFeatures) cardOf(q *query.Query, est Estimator, n plan.Node, rels uint32) float64 {
	if c, ok := qf.cards[rels]; ok {
		return c
	}
	aliases := make(map[string]bool, len(qf.names))
	addAliases(n, aliases)
	c := est.SubsetCard(q, aliases)
	if qf.cards != nil {
		qf.cards[rels] = c
	}
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
// length ObsDim() and is fully overwritten. sc carries the per-query entries
// (see Scratch); nil falls back to a throwaway one. The returned slice is dst.
// dst must still be freshly allocated per state when the result is retained
// (episode trajectories keep feature vectors until the policy update); what
// the scratch eliminates is every other allocation of the encoding.
func (s *Space) JoinStateInto(dst []float64, q *query.Query, forest []plan.Node, sc *Scratch) []float64 {
	if sc == nil {
		sc = &Scratch{}
	}
	n := s.MaxRels
	features := dst[:s.ObsDim()]
	clear(features)
	qf := sc.prepare(s, q)

	// Subtree block, and the cardinality block: log-scaled estimated output
	// size of each current subtree. Without it the policy cannot distinguish
	// a tiny dimension subtree from a fact-table blowup when choosing what to
	// join next.
	cardOff := 2*n*n + n
	for row, tree := range forest {
		if row >= n {
			break
		}
		rels := depthWeights(features[row*n:(row+1)*n], qf.idx, tree, 0)
		card := qf.cardOf(q, s.Est, tree, rels)
		features[cardOff+row] = math.Log10(card+1) / 10
	}
	// Join-graph block.
	off := n * n
	for _, e := range qf.edges {
		if a, b := e[0], e[1]; a < n && b < n {
			features[off+a*n+b] = 1
			features[off+b*n+a] = 1
		}
	}
	// Selectivity block.
	off = 2 * n * n
	for i, sel := range qf.sels[:min(len(qf.sels), n)] {
		features[off+i] = sel
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
// feature row, at the relation's alias index, and returns the subtree's
// relation bits (aliases past the 32nd position have none).
func depthWeights(row []float64, idx map[string]int, n plan.Node, depth int) uint32 {
	switch n := n.(type) {
	case *plan.Scan:
		i, ok := idx[n.Alias]
		if !ok {
			return 0
		}
		if i < len(row) {
			row[i] = 1 / float64(int64(1)<<uint(depth))
		}
		if i < 32 {
			return 1 << i
		}
	case *plan.Join:
		return depthWeights(row, idx, n.Left, depth+1) | depthWeights(row, idx, n.Right, depth+1)
	case *plan.Agg:
		return depthWeights(row, idx, n.Child, depth+1)
	}
	return 0
}
