package sketch

import (
	"handsfree/internal/catalog"
	"handsfree/internal/query"
)

// Estimator answers the same cardinality questions as the exact
// stats.Estimator — formula for formula (independence across filters,
// 1/max(NDV) equality joins, the same textbook missing-stats fallbacks) —
// but reads every input off sketches: equality selectivity from Count-Min
// frequencies, range selectivity from the value reservoir's empirical CDF,
// NDV from HyperLogLog. It satisfies the cost model's CardSource interface
// and the featurization's Estimator interface, so planning runs on
// sketches alone.
type Estimator struct {
	Cat   *catalog.Catalog
	Store *Store
}

// NewEstimator builds an estimator over a catalog and its sketch store.
func NewEstimator(cat *catalog.Catalog, st *Store) *Estimator {
	return &Estimator{Cat: cat, Store: st}
}

// FilterSelectivity estimates the selectivity of one filter predicate.
func (e *Estimator) FilterSelectivity(q *query.Query, f query.Filter) float64 {
	rel, ok := q.RelationByAlias(f.Alias)
	if !ok {
		return 1
	}
	cs, err := e.Store.Column(rel.Table, f.Column)
	if err != nil {
		return defaultSelectivity(f.Op)
	}
	return cs.Selectivity(f.Op, f.Value)
}

// Selectivity estimates the fraction of rows passing `col op value`.
func (c *ColumnSketch) Selectivity(op query.CmpOp, v int64) float64 {
	if c.Rows <= 0 {
		return defaultSelectivity(op)
	}
	// Values outside the observed range answer exactly.
	switch {
	case v < c.Min:
		switch op {
		case query.Eq:
			return 0
		case query.Ne:
			return 1
		case query.Lt, query.Le:
			return 0
		default:
			return 1
		}
	case v > c.Max:
		switch op {
		case query.Eq:
			return 0
		case query.Ne:
			return 1
		case query.Lt, query.Le:
			return 1
		default:
			return 0
		}
	}
	switch op {
	case query.Eq:
		return c.fracEQ(v)
	case query.Ne:
		return clamp01(1 - c.fracEQ(v))
	case query.Lt:
		return clamp01(c.Values.FracLT(v))
	case query.Le:
		return clamp01(c.Values.FracLE(v))
	case query.Gt:
		return clamp01(1 - c.Values.FracLE(v))
	case query.Ge:
		return clamp01(1 - c.Values.FracLT(v))
	default:
		return 1
	}
}

// fracEQ reads the equality selectivity off the Count-Min frequency. The
// sketch can only overestimate, so the result is clamped and its bias is
// one-sided — the overestimate-only property the tests pin.
func (c *ColumnSketch) fracEQ(v int64) float64 {
	if c.CM == nil || c.Rows <= 0 {
		return defaultSelectivity(query.Eq)
	}
	return clamp01(float64(c.CM.Count(v)) / float64(c.Rows))
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
// predicate as 1/max(NDV_left, NDV_right), NDVs read off HyperLogLog.
func (e *Estimator) JoinSelectivity(q *query.Query, j query.Join) float64 {
	l := e.ndv(q, j.LeftAlias, j.LeftCol)
	r := e.ndv(q, j.RightAlias, j.RightCol)
	m := max(l, r)
	if m <= 0 {
		return 1
	}
	return 1 / float64(m)
}

// SubsetCard estimates the cardinality of joining the given set of
// aliases, applying every join predicate fully contained in the set. The
// factors multiply in q.Relations then q.Joins order, as in
// stats.Estimator.SubsetCard.
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

// TableRows reports the sketched (or cataloged) row count of a table.
func (e *Estimator) TableRows(table string) int64 { return e.tableRows(table) }

func (e *Estimator) tableRows(table string) int64 {
	if ts := e.Store.Table(table); ts != nil && ts.Rows > 0 {
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
	cs, err := e.Store.Column(rel.Table, col)
	if err != nil || cs.HLL == nil {
		return 0
	}
	return cs.HLL.Distinct()
}

// defaultSelectivity mirrors stats.Estimator's textbook fallbacks when
// sketches are missing: 0.005 for equality, 1/3 for ranges.
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

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
