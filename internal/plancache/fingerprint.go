package plancache

import (
	"fmt"
	"sort"
	"strings"

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
