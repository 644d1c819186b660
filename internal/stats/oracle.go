package stats

import (
	"hash/fnv"
	"math"

	"handsfree/internal/query"
)

// Oracle produces the "true" cardinalities that query execution would
// observe. It layers a deterministic, systematic error field over the
// Estimator:
//
//   - every (table, filter-set) signature carries a fixed multiplicative
//     error on its base selectivity (cross-column correlation the histogram
//     independence assumption misses), and
//   - every join-edge signature carries a fixed multiplicative error on its
//     join selectivity, biased toward underestimation by the Estimator
//     (Leis et al., VLDB'15: optimizers systematically underestimate join
//     cardinalities, with error compounding per join).
//
// Determinism matters twice: the same plan always observes the same "truth"
// (so learning is possible), and the errors are *systematic* rather than
// per-query noise (so a learned optimizer can genuinely exploit them, which
// is the paper's §5.1 claim about surpassing a flawed expert).
type Oracle struct {
	Est *Estimator
	// Seed selects the error field.
	Seed int64
	// JoinBias is the mean of log error on join selectivities (> 0 means
	// the estimator underestimates result sizes on average).
	JoinBias float64
	// JoinSigma is the standard deviation of log error per join edge.
	JoinSigma float64
	// FilterSigma is the standard deviation of log error per filter set.
	FilterSigma float64
}

// NewOracle builds the truth oracle with the default error field
// (moderate filter correlation, join underestimation bias).
func NewOracle(est *Estimator, seed int64) *Oracle {
	return &Oracle{
		Est:         est,
		Seed:        seed,
		JoinBias:    0.7,
		JoinSigma:   0.8,
		FilterSigma: 0.5,
	}
}

// errFactor derives a deterministic lognormal factor from a key string.
func (o *Oracle) errFactor(key string, mu, sigma float64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	var seedBytes [8]byte
	s := uint64(o.Seed)
	for i := range seedBytes {
		seedBytes[i] = byte(s >> (8 * i))
	}
	h.Write(seedBytes[:])
	u := h.Sum64()
	// Two uniforms from the hash → one standard normal (Box–Muller).
	u1 := float64(u>>11)/float64(1<<53) + 1e-12
	h.Write([]byte{0xA5})
	u2f := float64(h.Sum64()>>11)/float64(1<<53) + 1e-12
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2f)
	return math.Exp(mu + sigma*z)
}

// TrueBaseCard returns the post-filter cardinality execution would observe
// for one relation. Unfiltered relations have exact statistics (row counts
// are known), so they carry no error.
func (o *Oracle) TrueBaseCard(q *query.Query, alias string) float64 {
	est := o.Est.BaseCard(q, alias)
	filters := q.FiltersOn(alias)
	if len(filters) == 0 {
		return est
	}
	rel, _ := q.RelationByAlias(alias)
	key := "base|" + rel.Table
	for _, f := range filters {
		key += "|" + f.String()
	}
	// Correlation across multiple filters amplifies the error.
	sigma := o.FilterSigma * math.Sqrt(float64(len(filters)))
	card := est * o.errFactor(key, 0, sigma)
	rows := float64(o.Est.tableRows(rel.Table))
	if card > rows {
		card = rows
	}
	if card < 1 {
		card = 1
	}
	return card
}

// TrueJoinSelectivity returns the join-edge selectivity execution observes.
// The error key deliberately excludes the query name: the same schema edge
// always errs the same way, making the flaw learnable.
func (o *Oracle) TrueJoinSelectivity(q *query.Query, j query.Join) float64 {
	est := o.Est.JoinSelectivity(q, j)
	lrel, _ := q.RelationByAlias(j.LeftAlias)
	rrel, _ := q.RelationByAlias(j.RightAlias)
	l := lrel.Table + "." + j.LeftCol
	r := rrel.Table + "." + j.RightCol
	if l > r {
		l, r = r, l
	}
	sel := est * o.errFactor("join|"+l+"="+r, o.JoinBias, o.JoinSigma)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// TrueSubsetCard returns the cardinality execution would observe for a join
// over the given alias set (product form, like the estimator, in the same
// factor order, but with true selectivities).
func (o *Oracle) TrueSubsetCard(q *query.Query, aliases map[string]bool) float64 {
	card := 1.0
	for _, r := range q.Relations {
		if aliases[r.Alias] {
			card *= o.TrueBaseCard(q, r.Alias)
		}
	}
	for _, j := range q.Joins {
		if aliases[j.LeftAlias] && aliases[j.RightAlias] {
			card *= o.TrueJoinSelectivity(q, j)
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

// BaseCard implements the cost model's CardSource with true cardinalities.
func (o *Oracle) BaseCard(q *query.Query, alias string) float64 {
	return o.TrueBaseCard(q, alias)
}

// JoinSelectivity implements the cost model's CardSource with true
// selectivities.
func (o *Oracle) JoinSelectivity(q *query.Query, j query.Join) float64 {
	return o.TrueJoinSelectivity(q, j)
}

// TableRows implements the cost model's CardSource (row counts are exact).
func (o *Oracle) TableRows(table string) int64 { return o.Est.TableRows(table) }

// QError returns the q-error between the estimator and the oracle for a
// subset: max(est/true, true/est) ≥ 1. Used in tests and diagnostics to
// confirm the error field compounds with join count.
func (o *Oracle) QError(q *query.Query, aliases map[string]bool) float64 {
	est := o.Est.SubsetCard(q, aliases)
	truth := o.TrueSubsetCard(q, aliases)
	if est <= 0 || truth <= 0 {
		return math.Inf(1)
	}
	r := est / truth
	if r < 1 {
		r = 1 / r
	}
	return r
}
