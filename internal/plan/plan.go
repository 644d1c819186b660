// Package plan defines physical execution plans: scans with access paths,
// binary join trees with join algorithms, and aggregation operators. Plans
// are produced by the traditional optimizer and by the learned agents, and
// consumed by the cost model, the latency model, and the executor.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"handsfree/internal/query"
)

// sigCache memoizes a node's Signature. Plan nodes are immutable once built
// (the optimizer, the learned agents, and the cache all construct-then-share),
// so the canonical string is computed at most once per node; the atomic
// pointer makes the memo safe on plans shared across concurrent planners,
// and gob persistence skips it (unexported). Signature is on every serving
// hot path — fingerprint matching, fault matching, featurization — where the
// repeated recursive fmt.Sprintf otherwise dominates allocation.
type sigCache struct {
	p atomic.Pointer[string]
}

func (c *sigCache) get(compute func() string) string {
	if s := c.p.Load(); s != nil {
		return *s
	}
	s := compute()
	c.p.Store(&s)
	return s
}

// AccessPath enumerates how a scan reads its relation.
type AccessPath int

const (
	// SeqScan reads every row.
	SeqScan AccessPath = iota
	// IndexScan reads via a B-tree index (range or equality).
	IndexScan
	// HashIndexScan reads via a hash index (equality only).
	HashIndexScan
)

// String names the access path as it appears in EXPLAIN output.
func (a AccessPath) String() string {
	switch a {
	case IndexScan:
		return "IndexScan"
	case HashIndexScan:
		return "HashIndexScan"
	default:
		return "SeqScan"
	}
}

// JoinAlgo enumerates join algorithms.
type JoinAlgo int

const (
	// NestLoop is a (possibly index-assisted) nested-loop join.
	NestLoop JoinAlgo = iota
	// HashJoin builds a hash table on the right (inner) input.
	HashJoin
	// MergeJoin sorts both inputs and merges.
	MergeJoin
)

// String names the join algorithm.
func (j JoinAlgo) String() string {
	switch j {
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	default:
		return "NestLoop"
	}
}

// JoinAlgos lists every join algorithm (the action sub-space for operator
// selection).
var JoinAlgos = []JoinAlgo{NestLoop, HashJoin, MergeJoin}

// AggAlgo enumerates aggregation algorithms.
type AggAlgo int

const (
	// HashAgg groups through a hash table.
	HashAgg AggAlgo = iota
	// SortAgg sorts then groups adjacent rows.
	SortAgg
)

// String names the aggregation algorithm.
func (a AggAlgo) String() string {
	if a == SortAgg {
		return "SortAgg"
	}
	return "HashAgg"
}

// AggAlgos lists every aggregation algorithm.
var AggAlgos = []AggAlgo{HashAgg, SortAgg}

// Node is a physical plan operator.
type Node interface {
	// Aliases returns the set of relation aliases produced by this subtree.
	Aliases() map[string]bool
	// Children returns the operator's inputs.
	Children() []Node
	// Signature returns a canonical string unique to the physical subtree.
	Signature() string
}

// Scan is a leaf: one relation read through an access path, with all
// single-relation filters applied.
type Scan struct {
	Alias, Table string
	Access       AccessPath
	// IndexColumn is the column the index is on (when Access != SeqScan).
	IndexColumn string
	// Filters are the pushed-down predicates on this relation.
	Filters []query.Filter

	sig sigCache
}

// Aliases returns the single-alias set for the scan.
func (s *Scan) Aliases() map[string]bool { return map[string]bool{s.Alias: true} }

// Children returns nil; scans are leaves.
func (s *Scan) Children() []Node { return nil }

// Signature returns a canonical encoding of the scan (memoized).
func (s *Scan) Signature() string {
	return s.sig.get(func() string {
		parts := make([]string, 0, len(s.Filters))
		for _, f := range s.Filters {
			parts = append(parts, f.String())
		}
		sort.Strings(parts)
		return fmt.Sprintf("%s(%s/%s ix=%s [%s])", s.Access, s.Table, s.Alias, s.IndexColumn, strings.Join(parts, ","))
	})
}

// SameSignature reports s.Signature() == o.Signature(), formatting neither
// when the fields decide it. The access path's name ends before the
// signature's first '(', so different names differ there; with table,
// alias and filters (in order) equal, the two strings differ only in the
// index column. Any other difference falls back to the strings themselves.
func (s *Scan) SameSignature(o *Scan) bool {
	switch {
	case s == o:
		return true
	case s.Access.String() != o.Access.String():
		return false
	case s.Table != o.Table || s.Alias != o.Alias || !slices.Equal(s.Filters, o.Filters):
		return s.Signature() == o.Signature()
	default:
		return s.IndexColumn == o.IndexColumn
	}
}

// Join is an inner equality join of two subtrees.
type Join struct {
	Algo        JoinAlgo
	Left, Right Node
	// Preds are the equality predicates applied at this join. Empty means a
	// cross product.
	Preds []query.Join

	sig sigCache
}

// Aliases returns the union of both inputs' alias sets.
func (j *Join) Aliases() map[string]bool {
	out := map[string]bool{}
	for a := range j.Left.Aliases() {
		out[a] = true
	}
	for a := range j.Right.Aliases() {
		out[a] = true
	}
	return out
}

// Children returns the left and right inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Signature returns a canonical encoding of the join subtree (memoized).
func (j *Join) Signature() string {
	return j.sig.get(func() string {
		preds := make([]string, 0, len(j.Preds))
		for _, p := range j.Preds {
			preds = append(preds, p.String())
		}
		sort.Strings(preds)
		return fmt.Sprintf("%s(%s, %s on %s)", j.Algo, j.Left.Signature(), j.Right.Signature(), strings.Join(preds, ","))
	})
}

// Agg applies grouped aggregation on top of a subtree.
type Agg struct {
	Algo       AggAlgo
	Child      Node
	GroupBys   []query.GroupBy
	Aggregates []query.Aggregate

	sig sigCache
}

// Aliases returns the child's alias set.
func (a *Agg) Aliases() map[string]bool { return a.Child.Aliases() }

// Children returns the single input.
func (a *Agg) Children() []Node { return []Node{a.Child} }

// Signature returns a canonical encoding of the aggregation (memoized).
func (a *Agg) Signature() string {
	return a.sig.get(func() string {
		return fmt.Sprintf("%s(%s groups=%d)", a.Algo, a.Child.Signature(), len(a.GroupBys))
	})
}

// CrossProduct reports whether the subtree contains any join with no
// predicates (a cartesian product).
func CrossProduct(n Node) bool {
	if j, ok := n.(*Join); ok {
		if len(j.Preds) == 0 {
			return true
		}
	}
	for _, c := range n.Children() {
		if CrossProduct(c) {
			return true
		}
	}
	return false
}

// NumJoins counts the join operators in the subtree.
func NumJoins(n Node) int {
	total := 0
	if _, ok := n.(*Join); ok {
		total = 1
	}
	for _, c := range n.Children() {
		total += NumJoins(c)
	}
	return total
}

// Leaves returns all scans in the subtree, left to right.
func Leaves(n Node) []*Scan {
	if s, ok := n.(*Scan); ok {
		return []*Scan{s}
	}
	var out []*Scan
	for _, c := range n.Children() {
		out = append(out, Leaves(c)...)
	}
	return out
}

// Walk visits every node of the subtree in depth-first pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Format renders the plan tree with indentation (EXPLAIN-style).
func Format(n Node) string {
	var b strings.Builder
	format(n, 0, &b)
	return b.String()
}

func format(n Node, depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	switch n := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "%s%s on %s", indent, n.Access, n.Table)
		if n.Alias != n.Table {
			fmt.Fprintf(b, " AS %s", n.Alias)
		}
		if n.Access != SeqScan {
			fmt.Fprintf(b, " (index on %s)", n.IndexColumn)
		}
		for _, f := range n.Filters {
			fmt.Fprintf(b, " [%s]", f)
		}
		b.WriteByte('\n')
	case *Join:
		fmt.Fprintf(b, "%s%s", indent, n.Algo)
		if len(n.Preds) == 0 {
			b.WriteString(" (CROSS)")
		}
		for _, p := range n.Preds {
			fmt.Fprintf(b, " [%s]", p)
		}
		b.WriteByte('\n')
		format(n.Left, depth+1, b)
		format(n.Right, depth+1, b)
	case *Agg:
		fmt.Fprintf(b, "%s%s (%d groups cols, %d aggs)\n", indent, n.Algo, len(n.GroupBys), len(n.Aggregates))
		format(n.Child, depth+1, b)
	}
}

// BuildScan constructs the scan leaf for one relation of a query with its
// pushed-down filters and the chosen access path.
func BuildScan(q *query.Query, alias string, access AccessPath, indexColumn string) *Scan {
	rel, _ := q.RelationByAlias(alias)
	return &Scan{
		Alias:       alias,
		Table:       rel.Table,
		Access:      access,
		IndexColumn: indexColumn,
		Filters:     q.FiltersOn(alias),
	}
}

// JoinNodes combines two subtrees with the given algorithm, attaching every
// join predicate of q that spans them.
func JoinNodes(q *query.Query, algo JoinAlgo, left, right Node) *Join {
	return &Join{
		Algo:  algo,
		Left:  left,
		Right: right,
		Preds: q.JoinsBetween(left.Aliases(), right.Aliases()),
	}
}

// Rebuild returns a join of left and right under algo that carries j's
// predicates without recomputing them — a physical variant of j. It is
// correct only when left and right span the same relations as j's inputs,
// as the optimizer's completions of j's inputs do.
func (j *Join) Rebuild(algo JoinAlgo, left, right Node) *Join {
	return &Join{Algo: algo, Left: left, Right: right, Preds: j.Preds}
}

// FinishAgg wraps root in the query's aggregation, if it has one.
func FinishAgg(q *query.Query, algo AggAlgo, root Node) Node {
	if len(q.Aggregates) == 0 && len(q.GroupBys) == 0 {
		return root
	}
	return &Agg{Algo: algo, Child: root, GroupBys: q.GroupBys, Aggregates: q.Aggregates}
}
