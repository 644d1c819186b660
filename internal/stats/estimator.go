package stats

import (
	"fmt"

	"handsfree/internal/catalog"
	"handsfree/internal/query"
)

// ColumnStats aggregates the statistics kept for one column.
type ColumnStats struct {
	Hist     *Histogram
	Distinct int64
}

// TableStats holds per-column statistics and the analyzed row count.
type TableStats struct {
	Rows    int64
	Columns map[string]*ColumnStats
}

// Stats is the statistics store for a whole database.
type Stats struct {
	Tables map[string]*TableStats
}

// NewStats returns an empty statistics store.
func NewStats() *Stats {
	return &Stats{Tables: make(map[string]*TableStats)}
}

// Analyze builds statistics for one table from full column data.
func (s *Stats) Analyze(table string, cols map[string][]int64, buckets, mcvs int) {
	ts := &TableStats{Columns: make(map[string]*ColumnStats)}
	for name, values := range cols {
		h := BuildHistogram(values, buckets, mcvs)
		ts.Columns[name] = &ColumnStats{Hist: h, Distinct: h.Distinct}
		ts.Rows = int64(len(values))
	}
	s.Tables[table] = ts
}

// Column returns statistics for table.column, or an error.
func (s *Stats) Column(table, column string) (*ColumnStats, error) {
	ts, ok := s.Tables[table]
	if !ok {
		return nil, fmt.Errorf("stats: no statistics for table %s", table)
	}
	cs, ok := ts.Columns[column]
	if !ok {
		return nil, fmt.Errorf("stats: no statistics for column %s.%s", table, column)
	}
	return cs, nil
}

// Estimator performs classical System-R-style cardinality estimation:
// histogram selectivities for filters, independence across predicates, and
// 1/max(NDV) for equality joins. Its errors relative to the Oracle are the
// systematic cost-model flaws the paper's learned agents can exploit.
type Estimator struct {
	Cat   *catalog.Catalog
	Stats *Stats
}

// NewEstimator builds an estimator over a catalog and its statistics.
func NewEstimator(cat *catalog.Catalog, st *Stats) *Estimator {
	return &Estimator{Cat: cat, Stats: st}
}

// FilterSelectivity estimates the selectivity of one filter predicate.
func (e *Estimator) FilterSelectivity(q *query.Query, f query.Filter) float64 {
	rel, ok := q.RelationByAlias(f.Alias)
	if !ok {
		return 1
	}
	cs, err := e.Stats.Column(rel.Table, f.Column)
	if err != nil {
		return defaultSelectivity(f.Op)
	}
	return cs.Hist.Selectivity(f.Op, f.Value)
}

// BaseSelectivity estimates the combined selectivity of all filters on an
// alias under the independence assumption.
func (e *Estimator) BaseSelectivity(q *query.Query, alias string) float64 {
	sel := 1.0
	for _, f := range q.FiltersOn(alias) {
		sel *= e.FilterSelectivity(q, f)
	}
	return sel
}

// BaseCard estimates the post-filter cardinality of one relation.
func (e *Estimator) BaseCard(q *query.Query, alias string) float64 {
	rel, ok := q.RelationByAlias(alias)
	if !ok {
		return 0
	}
	rows := float64(e.tableRows(rel.Table))
	card := rows * e.BaseSelectivity(q, alias)
	if card < 1 {
		card = 1
	}
	return card
}

// JoinSelectivity estimates the selectivity of a single equality join
// predicate as 1/max(NDV_left, NDV_right).
func (e *Estimator) JoinSelectivity(q *query.Query, j query.Join) float64 {
	l := e.ndv(q, j.LeftAlias, j.LeftCol)
	r := e.ndv(q, j.RightAlias, j.RightCol)
	m := max(l, r)
	if m <= 0 {
		return 1
	}
	return 1 / float64(m)
}

// SubsetCard estimates the cardinality of joining the given set of aliases,
// applying every join predicate fully contained in the set:
//
//	card = Π base(r) × Π sel(join edges within the set)
//
// The factors multiply in q.Relations then q.Joins order, so the float64
// result is the same on every call, whatever order the set's map yields.
func (e *Estimator) SubsetCard(q *query.Query, aliases map[string]bool) float64 {
	card := 1.0
	for _, r := range q.Relations {
		if aliases[r.Alias] {
			card *= e.BaseCard(q, r.Alias)
		}
	}
	for _, j := range q.Joins {
		if aliases[j.LeftAlias] && aliases[j.RightAlias] {
			card *= e.JoinSelectivity(q, j)
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

// TableRows reports the analyzed (or cataloged) row count of a table.
func (e *Estimator) TableRows(table string) int64 { return e.tableRows(table) }

func (e *Estimator) tableRows(table string) int64 {
	if ts, ok := e.Stats.Tables[table]; ok && ts.Rows > 0 {
		return ts.Rows
	}
	if t, err := e.Cat.Table(table); err == nil {
		return t.Rows
	}
	return 1
}

func (e *Estimator) ndv(q *query.Query, alias, col string) int64 {
	rel, ok := q.RelationByAlias(alias)
	if !ok {
		return 0
	}
	cs, err := e.Stats.Column(rel.Table, col)
	if err != nil {
		return 0
	}
	return cs.Distinct
}

// defaultSelectivity mirrors the textbook fallbacks when statistics are
// missing: 0.005 for equality, 1/3 for ranges.
func defaultSelectivity(op query.CmpOp) float64 {
	switch op {
	case query.Eq:
		return 0.005
	case query.Ne:
		return 0.995
	default:
		return 1.0 / 3.0
	}
}
