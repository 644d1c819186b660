package sketch

import "sort"

// Default sampling capacities: 1024 values per column reconstruct an
// empirical CDF to ~±3% (DKW bound at 95%), and 4096 sampled rows per
// table give approximate aggregates their sample at a fraction of a
// full scan.
const (
	DefaultReservoirCap = 1024
	DefaultSampleCap    = 4096
)

// ValueReservoir is Vitter's algorithm-R reservoir over a column's values:
// after the stream ends, Values is a uniform random sample of size
// min(Cap, Seen). The estimator reads range selectivities off its
// empirical CDF. The PRNG state is one exported word, so every addition
// stays on one deterministic stream.
type ValueReservoir struct {
	Cap    int
	Seen   int64
	Values []int64
	// Rng is the splitmix64 PRNG state (seeded at construction).
	Rng uint64
	// sorted is a sorted copy of Values built by Seal for O(log n) CDF
	// queries. It is never built lazily: FracLE/FracLT on an unsealed
	// reservoir scan linearly instead, so concurrent readers (the cost
	// model under concurrent Plan calls) never mutate shared state.
	sorted []int64
}

// NewValueReservoir builds an empty reservoir holding up to cap values;
// non-positive cap falls back to the default.
func NewValueReservoir(cap int, seed uint64) *ValueReservoir {
	if cap <= 0 {
		cap = DefaultReservoirCap
	}
	return &ValueReservoir{Cap: cap, Rng: mix64(seed)}
}

// Add observes one value.
func (r *ValueReservoir) Add(v int64) {
	r.Seen++
	r.sorted = nil
	if len(r.Values) < r.Cap {
		r.Values = append(r.Values, v)
		return
	}
	if j := nextRand(&r.Rng) % uint64(r.Seen); j < uint64(r.Cap) {
		r.Values[j] = v
	}
}

// Merge folds other into r, drawing each merged slot from the two
// reservoirs with probability proportional to the stream sizes they
// represent. Unlike HLL/Count-Min merge this is approximate — the result
// is a valid uniform-ish sample of the union, not bit-identical to
// sketching the concatenated stream.
func (r *ValueReservoir) Merge(other *ValueReservoir) {
	if other == nil || other.Seen == 0 {
		return
	}
	if r.Seen == 0 {
		r.Seen = other.Seen
		r.Values = append(r.Values[:0], other.Values...)
		if len(r.Values) > r.Cap {
			r.Values = r.Values[:r.Cap]
		}
		r.sorted = nil
		return
	}
	total := uint64(r.Seen + other.Seen)
	merged := make([]int64, 0, r.Cap)
	for i := 0; i < r.Cap && (len(r.Values) > 0 || len(other.Values) > 0); i++ {
		fromSelf := len(other.Values) == 0 ||
			(len(r.Values) > 0 && nextRand(&r.Rng)%total < uint64(r.Seen))
		if fromSelf {
			j := int(nextRand(&r.Rng) % uint64(len(r.Values)))
			merged = append(merged, r.Values[j])
		} else {
			j := int(nextRand(&r.Rng) % uint64(len(other.Values)))
			merged = append(merged, other.Values[j])
		}
	}
	r.Values = merged
	r.Seen += other.Seen
	r.sorted = nil
}

// Seal sorts the sample for binary-search CDF queries. Call it once after
// the build pass (and after Merge); until then FracLE/FracLT fall
// back to a linear scan so they stay safe under concurrent readers.
func (r *ValueReservoir) Seal() {
	if len(r.Values) == 0 {
		r.sorted = nil
		return
	}
	r.sorted = append(make([]int64, 0, len(r.Values)), r.Values...)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
}

// FracLE estimates the fraction of column values ≤ v from the sample CDF.
func (r *ValueReservoir) FracLE(v int64) float64 {
	if s := r.sorted; len(s) > 0 {
		n := sort.Search(len(s), func(i int) bool { return s[i] > v })
		return float64(n) / float64(len(s))
	}
	return r.scanFrac(func(x int64) bool { return x <= v })
}

// FracLT estimates the fraction of column values < v.
func (r *ValueReservoir) FracLT(v int64) float64 {
	if s := r.sorted; len(s) > 0 {
		n := sort.Search(len(s), func(i int) bool { return s[i] >= v })
		return float64(n) / float64(len(s))
	}
	return r.scanFrac(func(x int64) bool { return x < v })
}

func (r *ValueReservoir) scanFrac(keep func(int64) bool) float64 {
	if len(r.Values) == 0 {
		return 0
	}
	n := 0
	for _, x := range r.Values {
		if keep(x) {
			n++
		}
	}
	return float64(n) / float64(len(r.Values))
}

// RowSample is a uniform reservoir sample of whole table rows with the
// column values materialized, columnar like storage.Table, so approximate
// execution can evaluate filters and aggregates on the sample and scale by
// Seen/len. Every column slice has the same length and index i across
// columns is one sampled row.
type RowSample struct {
	Cap  int
	Seen int64
	Cols map[string][]int64
	Rng  uint64
}

// NewRowSample builds an empty sample of up to cap rows over the given
// column names; non-positive cap falls back to the default.
func NewRowSample(cap int, cols []string, seed uint64) *RowSample {
	if cap <= 0 {
		cap = DefaultSampleCap
	}
	s := &RowSample{Cap: cap, Cols: make(map[string][]int64, len(cols)), Rng: mix64(seed ^ 0x5a11e57)}
	for _, c := range cols {
		s.Cols[c] = nil
	}
	return s
}

// Len returns the number of sampled rows.
func (s *RowSample) Len() int {
	for _, col := range s.Cols {
		return len(col)
	}
	return 0
}

// Column returns the sampled values for one column (nil if absent).
func (s *RowSample) Column(name string) []int64 { return s.Cols[name] }

// AddRow observes one row, given as a lookup from column name to value at
// the source row index (so the analyzer can feed columnar storage without
// materializing row structs).
func (s *RowSample) AddRow(value func(col string) int64) {
	s.Seen++
	if s.Len() < s.Cap {
		for c := range s.Cols {
			s.Cols[c] = append(s.Cols[c], value(c))
		}
		return
	}
	if j := nextRand(&s.Rng) % uint64(s.Seen); j < uint64(s.Cap) {
		for c := range s.Cols {
			s.Cols[c][j] = value(c)
		}
	}
}
