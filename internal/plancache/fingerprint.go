package plancache

import (
	"fmt"
	"sort"
	"strings"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// HashString returns the FNV-1a 64-bit hash of s.
func HashString(s string) uint64 {
	h := uint64(fnv64Offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv64Prime
	}
	return h
}

// Canonical renders the query's logical content in a canonical form: every
// component list (relations, joins, filters, group-bys, aggregates) is
// sorted, and each equality join is side-normalized so a.x = b.y and
// b.y = a.x render identically. Two queries have equal Canonical strings
// exactly when they are the same logical query up to component order.
func Canonical(q *query.Query) string {
	parts := make([]string, 0, len(q.Relations)+len(q.Joins)+len(q.Filters)+len(q.GroupBys)+len(q.Aggregates))
	for _, r := range q.Relations {
		parts = append(parts, "R:"+r.Table+"/"+r.Alias)
	}
	for _, j := range q.Joins {
		l, r := j.LeftAlias+"."+j.LeftCol, j.RightAlias+"."+j.RightCol
		if l > r {
			l, r = r, l
		}
		parts = append(parts, "J:"+l+"="+r)
	}
	for _, f := range q.Filters {
		parts = append(parts, fmt.Sprintf("F:%s.%s %d %d", f.Alias, f.Column, f.Op, f.Value))
	}
	for _, g := range q.GroupBys {
		parts = append(parts, "G:"+g.Alias+"."+g.Column)
	}
	for _, a := range q.Aggregates {
		parts = append(parts, fmt.Sprintf("A:%d %s.%s", a.Kind, a.Alias, a.Column))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// Fingerprint returns the canonical 64-bit fingerprint of the query: the
// hash of its Canonical form. It is invariant under permutation of the
// relation, join, filter, group-by, and aggregate lists and under swapping
// the two sides of any join predicate; distinct logical queries collide
// only with ordinary 64-bit hash probability.
func Fingerprint(q *query.Query) uint64 {
	return HashString(Canonical(q))
}

// mix folds one byte string into an FNV-1a accumulator, with a separator so
// adjacent fields cannot alias ("ab","c" vs "a","bc").
func mix(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv64Prime
	}
	h ^= 0xff
	h *= fnv64Prime
	return h
}

// mixUint folds an integer into an FNV-1a accumulator.
func mixUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnv64Prime
		v >>= 8
	}
	return h
}

// HashPlan returns a structural 64-bit hash of a plan subtree — the
// skeleton component of completion cache keys. Unlike hashing
// Node.Signature() it allocates nothing: the tree is folded directly into
// the accumulator. Operator kind, join/aggregation algorithm, access path,
// relation identity, and every predicate participate, so two subtrees hash
// equal exactly when the completion computations they key are
// interchangeable (field order within a node follows storage order, which
// is deterministic for skeletons built from the same query).
func HashPlan(n plan.Node) uint64 {
	return hashTree(n, nil, false)
}

// HashSubtrees computes the structural hash of every node in the tree in a
// single post-order walk — each node's hash is composed from its fields and
// its children's hashes — storing per-node hashes into out (keyed by node
// identity; pass nil to skip) and returning the root hash. Callers that
// need every subtree's hash (the completion memoization hot path) use this
// to pay O(tree) once instead of O(subtree) per node.
func HashSubtrees(n plan.Node, out map[plan.Node]uint64) uint64 {
	return hashTree(n, out, false)
}

// HashSubtreesMemo is HashSubtrees with reuse: subtrees whose root node is
// already present in memo are returned from it without re-walking, and every
// newly hashed node is added. An environment that keeps one memo per episode
// pays the structural hash once per node per episode even when several
// completion calls walk overlapping trees (e.g. costing the same skeleton
// under two aggregation algorithms), instead of once per completion call.
// A nil memo degrades to a plain HashSubtrees walk.
func HashSubtreesMemo(n plan.Node, memo map[plan.Node]uint64) uint64 {
	if memo == nil {
		return hashTree(n, nil, false)
	}
	return hashTree(n, memo, true)
}

// hashTree is the shared post-order walk behind HashPlan/HashSubtrees/
// HashSubtreesMemo. When consult is set, nodes already present in out
// short-circuit the walk (memoized reuse); entries only ever hold a node's
// structural hash, so consulting cannot change the result.
func hashTree(n plan.Node, out map[plan.Node]uint64, consult bool) uint64 {
	if consult {
		if h, ok := out[n]; ok {
			return h
		}
	}
	var h uint64
	switch n := n.(type) {
	case *plan.Scan:
		h = mixUint(fnv64Offset, 1)
		h = mixUint(h, uint64(n.Access))
		h = mix(h, n.Table)
		h = mix(h, n.Alias)
		h = mix(h, n.IndexColumn)
		for _, f := range n.Filters {
			h = mix(h, f.Alias)
			h = mix(h, f.Column)
			h = mixUint(h, uint64(f.Op))
			h = mixUint(h, uint64(f.Value))
		}
	case *plan.Join:
		h = mixUint(fnv64Offset, 2)
		h = mixUint(h, uint64(n.Algo))
		for _, p := range n.Preds {
			h = mix(h, p.LeftAlias)
			h = mix(h, p.LeftCol)
			h = mix(h, p.RightAlias)
			h = mix(h, p.RightCol)
		}
		h = mixUint(h, hashTree(n.Left, out, consult))
		h = mixUint(h, hashTree(n.Right, out, consult))
	case *plan.Agg:
		h = mixUint(fnv64Offset, 3)
		h = mixUint(h, uint64(n.Algo))
		for _, g := range n.GroupBys {
			h = mix(h, g.Alias)
			h = mix(h, g.Column)
		}
		for _, a := range n.Aggregates {
			h = mixUint(h, uint64(a.Kind))
			h = mix(h, a.Alias)
			h = mix(h, a.Column)
		}
		h = mixUint(h, hashTree(n.Child, out, consult))
	}
	if out != nil {
		out[n] = h
	}
	return h
}
