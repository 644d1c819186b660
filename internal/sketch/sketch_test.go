package sketch

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"sync"
	"testing"

	"handsfree/internal/query"
	"handsfree/internal/storage"
)

// TestHLLAccuracy pins the distinct-count relative error vs an exact
// oracle across cardinalities spanning the linear-counting and raw-HLL
// regimes. At precision 14 the theoretical standard error is ~0.81%; the
// acceptance bound is ≤3% everywhere.
func TestHLLAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{10, 100, 1000, 10000, 100000, 500000} {
		h := NewHLL(DefaultHLLPrecision)
		exact := make(map[int64]bool)
		for i := 0; i < 2*n; i++ {
			v := int64(rng.Intn(n)) // ~n distinct with repeats
			h.Add(v)
			exact[v] = true
		}
		got := float64(h.Distinct())
		want := float64(len(exact))
		relErr := math.Abs(got-want) / want
		if relErr > 0.03 {
			t.Errorf("n=%d: HLL estimate %.0f vs exact %.0f, rel error %.2f%% > 3%%", n, got, want, 100*relErr)
		}
	}
}

// TestHLLSequential pins accuracy on sequential integers — the actual
// shape of generated id columns, and the case a weak hash would fail.
func TestHLLSequential(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	const n = 200000
	for i := int64(0); i < n; i++ {
		h.Add(i)
	}
	relErr := math.Abs(float64(h.Distinct())-n) / n
	if relErr > 0.03 {
		t.Errorf("sequential ids: rel error %.2f%% > 3%%", 100*relErr)
	}
}

// TestHLLMergeIsUnion checks that merging per-shard sketches equals
// sketching the concatenated stream, register for register.
func TestHLLMergeIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := NewHLL(12)
	a, b := NewHLL(12), NewHLL(12)
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(30000)
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(a.Registers, whole.Registers) {
		t.Fatal("merged HLL registers differ from whole-stream sketch")
	}
	if err := a.Merge(NewHLL(8)); err == nil {
		t.Fatal("merging mismatched precisions should error")
	}
}

// TestCountMinOverestimateOnly checks the one-sided error bound: the
// estimate is never below the true count, and the overestimate stays
// within the εN = (e/width)·N analytical bound with headroom.
func TestCountMinOverestimateOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cm := NewCountMin(DefaultCMDepth, DefaultCMWidth)
	exact := make(map[int64]uint64)
	const n = 200000
	for i := 0; i < n; i++ {
		v := int64(rng.Intn(5000))
		cm.Add(v, 1)
		exact[v]++
	}
	bound := uint64(math.Ceil(math.E / float64(DefaultCMWidth) * n))
	for v, want := range exact {
		got := cm.Count(v)
		if got < want {
			t.Fatalf("value %d: estimate %d underestimates true count %d", v, got, want)
		}
		if got-want > 4*bound {
			t.Errorf("value %d: overestimate %d exceeds 4× the εN bound %d", v, got-want, bound)
		}
	}
}

// TestCountMinMergeIsUnion checks merged counters equal the whole-stream
// sketch exactly.
func TestCountMinMergeIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	whole := NewCountMin(4, 256)
	a, b := NewCountMin(4, 256), NewCountMin(4, 256)
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(1000)
		whole.Add(v, 1)
		if i%3 == 0 {
			a.Add(v, 1)
		} else {
			b.Add(v, 1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Items != whole.Items {
		t.Fatalf("merged Items %d != whole %d", a.Items, whole.Items)
	}
	for i := range whole.Counts {
		for j := range whole.Counts[i] {
			if a.Counts[i][j] != whole.Counts[i][j] {
				t.Fatalf("counter [%d][%d] differs after merge", i, j)
			}
		}
	}
	if err := a.Merge(NewCountMin(4, 128)); err == nil {
		t.Fatal("merging mismatched widths should error")
	}
}

// TestValueReservoirCDF checks the empirical CDF tracks the true one on a
// skewed stream, and that sealing preserves query answers.
func TestValueReservoirCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	r := NewValueReservoir(DefaultReservoirCap, 23)
	const n = 100000
	vals := make([]int64, n)
	for i := range vals {
		v := int64(rng.NormFloat64()*1000 + 5000)
		vals[i] = v
		r.Add(v)
	}
	if r.Seen != n {
		t.Fatalf("Seen = %d, want %d", r.Seen, n)
	}
	for _, probe := range []int64{3000, 4500, 5000, 5500, 7000} {
		exact := 0
		for _, v := range vals {
			if v <= probe {
				exact++
			}
		}
		want := float64(exact) / n
		unsealed := r.FracLE(probe)
		r.Seal()
		sealed := r.FracLE(probe)
		if unsealed != sealed {
			t.Errorf("probe %d: sealed answer %.4f != unsealed %.4f", probe, sealed, unsealed)
		}
		if math.Abs(sealed-want) > 0.05 {
			t.Errorf("probe %d: sample CDF %.3f vs exact %.3f (>0.05 off)", probe, sealed, want)
		}
	}
}

// TestReservoirMerge checks the merged reservoir stays capacity-bounded
// and draws from both inputs roughly proportionally.
func TestReservoirMerge(t *testing.T) {
	a := NewValueReservoir(400, 29)
	b := NewValueReservoir(400, 31)
	for i := 0; i < 10000; i++ {
		a.Add(1) // stream A is all ones
		b.Add(2) // stream B is all twos, same size
	}
	a.Merge(b)
	if len(a.Values) > a.Cap {
		t.Fatalf("merged reservoir exceeds cap: %d > %d", len(a.Values), a.Cap)
	}
	if a.Seen != 20000 {
		t.Fatalf("merged Seen = %d, want 20000", a.Seen)
	}
	ones := 0
	for _, v := range a.Values {
		if v == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(len(a.Values))
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("equal streams should merge ~50/50, got %.2f from A", frac)
	}
}

// TestRowSample checks row integrity: index i holds one source row across
// all columns, verified via a derived column (b = a + 1000000).
func TestRowSample(t *testing.T) {
	tab := &storage.Table{Name: "t", N: 50000, Cols: map[string][]int64{}}
	a := make([]int64, tab.N)
	b := make([]int64, tab.N)
	for i := range a {
		a[i] = int64(i)
		b[i] = int64(i) + 1000000
	}
	tab.Cols["a"], tab.Cols["b"] = a, b
	ts := NewAnalyzer(Config{SampleCap: 512, Seed: 3}).AnalyzeTable(tab)
	s := ts.Sample
	if s.Len() != 512 {
		t.Fatalf("sample size %d, want 512", s.Len())
	}
	if s.Seen != 50000 {
		t.Fatalf("Seen = %d, want 50000", s.Seen)
	}
	ca, cb := s.Column("a"), s.Column("b")
	for i := range ca {
		if cb[i] != ca[i]+1000000 {
			t.Fatalf("row %d torn: a=%d b=%d", i, ca[i], cb[i])
		}
	}
}

// TestStoreGobRoundTrip checks sketches survive Save/LoadStore with
// identical estimates (serialized state is complete).
func TestStoreGobRoundTrip(t *testing.T) {
	tab := &storage.Table{Name: "t", N: 20000, Cols: map[string][]int64{}}
	vals := make([]int64, tab.N)
	rng := rand.New(rand.NewSource(37))
	for i := range vals {
		vals[i] = rng.Int63n(3000)
	}
	tab.Cols["c"] = vals
	st := &Store{Tables: map[string]*TableSketch{
		"t": NewAnalyzer(Config{Seed: 5}).AnalyzeTable(tab),
	}}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadStore(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want, _ := st.Column("t", "c")
	have, err := got.Column("t", "c")
	if err != nil {
		t.Fatalf("column after load: %v", err)
	}
	if have.HLL.Distinct() != want.HLL.Distinct() {
		t.Errorf("HLL distinct changed across round trip: %d vs %d", have.HLL.Distinct(), want.HLL.Distinct())
	}
	if have.CM.Count(42) != want.CM.Count(42) {
		t.Errorf("CM count changed across round trip")
	}
	for _, probe := range []int64{0, 500, 1500, 2999} {
		if have.Values.FracLE(probe) != want.Values.FracLE(probe) {
			t.Errorf("CDF at %d changed across round trip", probe)
		}
	}
	if have.Min != want.Min || have.Max != want.Max || have.Rows != want.Rows {
		t.Errorf("column metadata changed across round trip")
	}
	if got.Table("t").Sample.Len() != st.Table("t").Sample.Len() {
		t.Errorf("row sample size changed across round trip")
	}
}

// TestColumnSelectivity sanity-checks the operator semantics against an
// exact count on a known column.
func TestColumnSelectivity(t *testing.T) {
	tab := &storage.Table{Name: "t", N: 10000, Cols: map[string][]int64{}}
	vals := make([]int64, tab.N)
	rng := rand.New(rand.NewSource(41))
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	tab.Cols["c"] = vals
	cs := NewAnalyzer(Config{Seed: 7}).AnalyzeTable(tab).Column("c")
	exactFrac := func(keep func(int64) bool) float64 {
		n := 0
		for _, v := range vals {
			if keep(v) {
				n++
			}
		}
		return float64(n) / float64(len(vals))
	}
	cases := []struct {
		op   query.CmpOp
		v    int64
		want float64
	}{
		{query.Eq, 50, exactFrac(func(x int64) bool { return x == 50 })},
		{query.Ne, 50, exactFrac(func(x int64) bool { return x != 50 })},
		{query.Lt, 30, exactFrac(func(x int64) bool { return x < 30 })},
		{query.Le, 30, exactFrac(func(x int64) bool { return x <= 30 })},
		{query.Gt, 70, exactFrac(func(x int64) bool { return x > 70 })},
		{query.Ge, 70, exactFrac(func(x int64) bool { return x >= 70 })},
		{query.Eq, -5, 0},  // below range
		{query.Lt, -5, 0},  // below range
		{query.Gt, 500, 0}, // above range
		{query.Le, 500, 1}, // above range
	}
	for _, c := range cases {
		got := cs.Selectivity(c.op, c.v)
		if math.Abs(got-c.want) > 0.05 {
			t.Errorf("sel(c %s %d) = %.3f, want ~%.3f", c.op, c.v, got, c.want)
		}
	}
}

// TestHLLDistinctCache: Distinct is counted once per register state — the
// cached count is the fresh Estimate's, concurrent readers agree on it, an
// Add that raises a register and a Merge each recount, and a gob-decoded
// sketch counts its own registers.
func TestHLLDistinctCache(t *testing.T) {
	fresh := func(h *HLL) int64 {
		e := h.Estimate()
		if e < 0 {
			return 0
		}
		return int64(e + 0.5)
	}
	h := NewHLL(10)
	if got := h.Distinct(); got != 0 {
		t.Fatalf("empty sketch counts %d", got)
	}
	for i := int64(0); i < 5000; i++ {
		h.Add(i)
	}
	want := fresh(h)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := h.Distinct(); got != want {
					t.Errorf("concurrent Distinct = %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := int64(5000); i < 9000; i++ {
		h.Add(i)
	}
	if got, want := h.Distinct(), fresh(h); got != want || got <= 5000 {
		t.Fatalf("after more adds Distinct = %d, fresh count %d", got, want)
	}
	other := NewHLL(10)
	for i := int64(20000); i < 40000; i++ {
		other.Add(i)
	}
	if err := h.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Distinct(), fresh(h); got != want || got <= 20000 {
		t.Fatalf("after a merge Distinct = %d, fresh count %d", got, want)
	}

	other.Distinct() // cached on the sketch encoded, not on the one decoded
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(other); err != nil {
		t.Fatal(err)
	}
	var decoded HLL
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := decoded.Distinct(), fresh(other); got != want {
		t.Fatalf("decoded sketch counts %d, its registers %d", got, want)
	}
}
