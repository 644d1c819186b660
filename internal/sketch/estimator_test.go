package sketch_test

import (
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/datagen"
	"handsfree/internal/query"
	"handsfree/internal/sketch"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

func generated(t testing.TB, scale float64) *datagen.Database {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Scale = scale
	db, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return db
}

// TestHLLAccuracyOnGeneratedTables is the acceptance criterion from the
// roadmap: on every column of the generated database, the HyperLogLog
// distinct count is within 3% of the exact one.
func TestHLLAccuracyOnGeneratedTables(t *testing.T) {
	db := generated(t, 1.0)
	store := sketch.NewAnalyzer(sketch.Config{Seed: 1}).Analyze(db.Store)
	checked := 0
	for name, tab := range db.Store.Tables {
		ts := store.Table(name)
		if ts == nil {
			t.Fatalf("no sketches for table %s", name)
		}
		for col, values := range tab.Cols {
			exact := make(map[int64]bool, 1024)
			for _, v := range values {
				exact[v] = true
			}
			got := float64(ts.Column(col).HLL.Distinct())
			want := float64(len(exact))
			if math.Abs(got-want) > math.Max(1, 0.03*want) {
				t.Errorf("%s.%s: HLL distinct %.0f vs exact %.0f (>3%%)", name, col, got, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d columns checked; generated schema should have more", checked)
	}
}

// TestSketchEstimatorMirrorsExact checks that when the sketches are
// lossless (reservoir and Count-Min big enough to be exact, HLL at small
// cardinality), the sketch estimator agrees with the exact histogram
// estimator on every interface method — they share the same System-R
// formulas, so the only divergence can come from sketch error.
func TestSketchEstimatorMirrorsExact(t *testing.T) {
	db := generated(t, 0.05)
	// Pick a small table pair joined in the schema with ample sketch
	// capacity so the sketches are (near-)exact.
	store := sketch.NewAnalyzer(sketch.Config{
		ReservoirCap: 1 << 20, CMWidth: 1 << 16, Seed: 2,
	}).Analyze(db.Store)
	exact := stats.NewEstimator(db.Catalog, db.Stats)
	approx := sketch.NewEstimator(db.Catalog, store)

	q := workload.New(db).MustNamed("1a")
	for _, rel := range q.Relations {
		er, ar := exact.TableRows(rel.Table), approx.TableRows(rel.Table)
		if er != ar {
			t.Errorf("TableRows(%s): sketch %d != exact %d", rel.Table, ar, er)
		}
		eb, ab := exact.BaseCard(q, rel.Alias), approx.BaseCard(q, rel.Alias)
		if qerr(eb, ab) > 1.35 {
			t.Errorf("BaseCard(%s): sketch %.1f vs exact %.1f (q-error %.2f)", rel.Alias, ab, eb, qerr(eb, ab))
		}
	}
	for _, j := range q.Joins {
		ej, aj := exact.JoinSelectivity(q, j), approx.JoinSelectivity(q, j)
		if qerr(ej, aj) > 1.1 {
			t.Errorf("JoinSelectivity(%s): sketch %g vs exact %g", j, aj, ej)
		}
	}
	all := map[string]bool{}
	for _, rel := range q.Relations {
		all[rel.Alias] = true
	}
	es, as := exact.SubsetCard(q, all), approx.SubsetCard(q, all)
	if qerr(es, as) > 2.0 {
		t.Errorf("SubsetCard(all): sketch %g vs exact %g (q-error %.2f)", as, es, qerr(es, as))
	}
}

// TestEstimatorQErrorOnWorkload measures both estimators against true
// cardinalities computed from the data: the sketch estimator must stay in
// the same accuracy class as the exact histogram estimator (geometric-mean
// q-error within 2× of it) on the named workload's base relations. This is
// the roadmap's "estimator accuracy vs the exact oracle" success metric as
// a test floor; the benchmark emits the exact numbers per PR.
func TestEstimatorQErrorOnWorkload(t *testing.T) {
	db := generated(t, 0.25)
	store := sketch.NewAnalyzer(sketch.Config{Seed: 3}).Analyze(db.Store)
	exact := stats.NewEstimator(db.Catalog, db.Stats)
	approx := sketch.NewEstimator(db.Catalog, store)
	w := workload.New(db)

	var logExact, logSketch float64
	n := 0
	for _, name := range workload.NamedNames() {
		q := w.MustNamed(name)
		for _, rel := range q.Relations {
			filters := q.FiltersOn(rel.Alias)
			if len(filters) == 0 {
				continue
			}
			truth := trueBaseCard(db, q, rel)
			if truth <= 0 {
				truth = 1
			}
			logExact += math.Log(qerr(truth, exact.BaseCard(q, rel.Alias)))
			logSketch += math.Log(qerr(truth, approx.BaseCard(q, rel.Alias)))
			n++
		}
	}
	if n == 0 {
		t.Fatal("no filtered base relations in the named workload")
	}
	geoExact := math.Exp(logExact / float64(n))
	geoSketch := math.Exp(logSketch / float64(n))
	t.Logf("base-card geomean q-error: exact=%.3f sketch=%.3f over %d relations", geoExact, geoSketch, n)
	if geoSketch > 2*geoExact+0.5 {
		t.Errorf("sketch estimator geomean q-error %.3f not in the exact estimator's class (%.3f)", geoSketch, geoExact)
	}
}

// trueBaseCard counts the rows of rel's table matching every filter on its
// alias — the ground truth both estimators approximate.
func trueBaseCard(db *datagen.Database, q *query.Query, rel query.Relation) float64 {
	tab, err := db.Store.Table(rel.Table)
	if err != nil {
		return 0
	}
	filters := q.FiltersOn(rel.Alias)
	count := 0
	for i := 0; i < tab.N; i++ {
		ok := true
		for _, f := range filters {
			if !cmpMatch(f.Op, tab.Cols[f.Column][i], f.Value) {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return float64(count)
}

func cmpMatch(op query.CmpOp, v, c int64) bool {
	switch op {
	case query.Eq:
		return v == c
	case query.Ne:
		return v != c
	case query.Lt:
		return v < c
	case query.Le:
		return v <= c
	case query.Gt:
		return v > c
	case query.Ge:
		return v >= c
	default:
		return false
	}
}

func qerr(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.Inf(1)
	}
	if a > b {
		return a / b
	}
	return b / a
}

// TestSubsetCardIndependentOfMapOrder: a subset's cardinality is a product of
// per-relation and per-join factors, and float64 multiplication does not
// commute bit for bit, so the factors must multiply in one fixed order — not
// in whatever order the alias set's map happens to yield. Every named query's
// full alias set, rebuilt in shuffled insertion order and asked repeatedly,
// must give one answer from the exact estimator, the sketch estimator and the
// oracle.
func TestSubsetCardIndependentOfMapOrder(t *testing.T) {
	db := generated(t, 0.05)
	exact := stats.NewEstimator(db.Catalog, db.Stats)
	cards := map[string]func(*query.Query, map[string]bool) float64{
		"exact":  exact.SubsetCard,
		"sketch": sketch.NewEstimator(db.Catalog, sketch.NewAnalyzer(sketch.Config{Seed: 2}).Analyze(db.Store)).SubsetCard,
		"oracle": stats.NewOracle(exact, 7).TrueSubsetCard,
	}
	w := workload.New(db)
	rng := rand.New(rand.NewSource(5))
	for _, name := range workload.NamedNames() {
		q := w.MustNamed(name)
		for est, card := range cards {
			var first uint64
			for call := 0; call < 20; call++ {
				set := map[string]bool{}
				for _, i := range rng.Perm(len(q.Relations)) {
					set[q.Relations[i].Alias] = true
				}
				bits := math.Float64bits(card(q, set))
				if call == 0 {
					first = bits
				} else if bits != first {
					t.Fatalf("%s: query %s: SubsetCard of all %d relations is %v on one call and %v on another",
						est, name, len(q.Relations), math.Float64frombits(first), math.Float64frombits(bits))
				}
			}
		}
	}
}
