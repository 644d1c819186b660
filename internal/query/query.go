// Package query defines the logical query IR shared by the SQL parser, the
// workload generators, the optimizers, and the learned agents: a set of
// (aliased) relations, equality join predicates, single-column filter
// predicates, and optional grouped aggregation.
package query

import (
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// CmpOp is a comparison operator in a filter predicate.
type CmpOp int

// Comparison operators supported in WHERE clauses.
const (
	Eq CmpOp = iota
	Lt
	Le
	Gt
	Ge
	Ne
)

// String renders the operator as SQL.
func (o CmpOp) String() string {
	switch o {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Ne:
		return "<>"
	default:
		return "?"
	}
}

// Relation is one FROM-clause entry: a base table with an alias.
type Relation struct {
	Table string // catalog table name
	Alias string // unique within the query
}

// Filter is a single-column predicate: alias.Column op Value.
type Filter struct {
	Alias  string
	Column string
	Op     CmpOp
	Value  int64
}

// String renders the filter as SQL.
func (f Filter) String() string {
	return fmt.Sprintf("%s.%s %s %d", f.Alias, f.Column, f.Op, f.Value)
}

// Join is an equality join predicate: LeftAlias.LeftCol = RightAlias.RightCol.
type Join struct {
	LeftAlias, LeftCol   string
	RightAlias, RightCol string
}

// String renders the join predicate as SQL.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
}

// AggKind enumerates the aggregate functions in the SELECT list.
type AggKind int

// Aggregate functions.
const (
	AggNone AggKind = iota
	AggCount
	AggMin
	AggMax
	AggSum
)

// String renders the aggregate function name.
func (a AggKind) String() string {
	switch a {
	case AggCount:
		return "COUNT"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	default:
		return ""
	}
}

// Aggregate is one aggregate output, e.g. MIN(t.production_year).
type Aggregate struct {
	Kind   AggKind
	Alias  string // empty for COUNT(*)
	Column string // empty for COUNT(*)
}

// GroupBy is a grouping column.
type GroupBy struct {
	Alias  string
	Column string
}

// Query is a parsed or generated logical query.
type Query struct {
	// Name optionally labels the query (e.g. the JOB template "8c").
	Name       string
	Relations  []Relation
	Joins      []Join
	Filters    []Filter
	Aggregates []Aggregate
	GroupBys   []GroupBy

	// fp holds the *fpCell CacheFingerprint stored (nil until then); see
	// fingerprint.go.
	fp unsafe.Pointer
}

// RelationByAlias returns the relation with the given alias.
func (q *Query) RelationByAlias(alias string) (Relation, bool) {
	for _, r := range q.Relations {
		if r.Alias == alias {
			return r, true
		}
	}
	return Relation{}, false
}

// FiltersOn returns all filters that apply to the given alias.
func (q *Query) FiltersOn(alias string) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Alias == alias {
			out = append(out, f)
		}
	}
	return out
}

// JoinsBetween returns all join predicates connecting any alias in left with
// any alias in right.
func (q *Query) JoinsBetween(left, right map[string]bool) []Join {
	var out []Join
	for _, j := range q.Joins {
		if (left[j.LeftAlias] && right[j.RightAlias]) || (left[j.RightAlias] && right[j.LeftAlias]) {
			out = append(out, j)
		}
	}
	return out
}

// Adjacency returns, for each alias, the set of aliases it joins with.
func (q *Query) Adjacency() map[string]map[string]bool {
	adj := make(map[string]map[string]bool, len(q.Relations))
	for _, r := range q.Relations {
		adj[r.Alias] = map[string]bool{}
	}
	for _, j := range q.Joins {
		if adj[j.LeftAlias] != nil && adj[j.RightAlias] != nil {
			adj[j.LeftAlias][j.RightAlias] = true
			adj[j.RightAlias][j.LeftAlias] = true
		}
	}
	return adj
}

// Connected reports whether the join graph over the query's relations is
// connected (no unavoidable cross products).
func (q *Query) Connected() bool {
	if len(q.Relations) == 0 {
		return true
	}
	adj := q.Adjacency()
	seen := map[string]bool{q.Relations[0].Alias: true}
	frontier := []string{q.Relations[0].Alias}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for n := range adj[cur] {
			if !seen[n] {
				seen[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	return len(seen) == len(q.Relations)
}

// Validate checks internal consistency: unique aliases, and every predicate
// referencing a declared alias.
func (q *Query) Validate() error {
	aliases := map[string]bool{}
	for _, r := range q.Relations {
		if aliases[r.Alias] {
			return fmt.Errorf("query: duplicate alias %q", r.Alias)
		}
		aliases[r.Alias] = true
	}
	for _, j := range q.Joins {
		if !aliases[j.LeftAlias] || !aliases[j.RightAlias] {
			return fmt.Errorf("query: join %s references undeclared alias", j)
		}
	}
	for _, f := range q.Filters {
		if !aliases[f.Alias] {
			return fmt.Errorf("query: filter %s references undeclared alias", f)
		}
	}
	for _, g := range q.GroupBys {
		if !aliases[g.Alias] {
			return fmt.Errorf("query: group by %s.%s references undeclared alias", g.Alias, g.Column)
		}
	}
	for _, a := range q.Aggregates {
		if a.Kind != AggCount && !aliases[a.Alias] {
			return fmt.Errorf("query: aggregate references undeclared alias %q", a.Alias)
		}
	}
	return nil
}

// SQL renders the query back to SQL text.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case len(q.Aggregates) > 0:
		parts := make([]string, 0, len(q.Aggregates)+len(q.GroupBys))
		for _, g := range q.GroupBys {
			parts = append(parts, g.Alias+"."+g.Column)
		}
		for _, a := range q.Aggregates {
			if a.Kind == AggCount && a.Column == "" {
				parts = append(parts, "COUNT(*)")
			} else {
				parts = append(parts, fmt.Sprintf("%s(%s.%s)", a.Kind, a.Alias, a.Column))
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	default:
		b.WriteString("*")
	}
	b.WriteString(" FROM ")
	rels := make([]string, len(q.Relations))
	for i, r := range q.Relations {
		if r.Alias == r.Table {
			rels[i] = r.Table
		} else {
			rels[i] = r.Table + " AS " + r.Alias
		}
	}
	b.WriteString(strings.Join(rels, ", "))
	var preds []string
	for _, j := range q.Joins {
		preds = append(preds, j.String())
	}
	for _, f := range q.Filters {
		preds = append(preds, f.String())
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	if len(q.GroupBys) > 0 {
		cols := make([]string, len(q.GroupBys))
		for i, g := range q.GroupBys {
			cols[i] = g.Alias + "." + g.Column
		}
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(cols, ", "))
	}
	b.WriteString(";")
	return b.String()
}

// Key returns a canonical string identifying the query's logical content
// (used to key caches and the deterministic latency noise field).
func (q *Query) Key() string {
	var parts []string
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
		parts = append(parts, "F:"+f.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}
