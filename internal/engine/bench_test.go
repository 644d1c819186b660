package engine

import (
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/stats"
	"handsfree/internal/storage"
	"handsfree/internal/workload"
)

// servedBudget is what the service's default 1000 ms execution budget is in
// work units.
const servedBudget = 1e7

// servedPlans returns the benchmark tenant's database (scale 0.05) and its
// six training queries under their expert plans: what POST /executesql runs.
func servedPlans(b *testing.B) (*storage.DB, []*query.Query, []plan.Node) {
	b.Helper()
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	planner := optimizer.New(db.Catalog, cost.New(cost.DefaultParams(), stats.NewEstimator(db.Catalog, db.Stats)))
	queries, err := workload.New(db).Training(6, 4, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]plan.Node, len(queries))
	for i, q := range queries {
		p, err := planner.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		roots[i] = p.Root
	}
	return db.Store, queries, roots
}

// withFreshConstants rebuilds the plan with one more filter on every scan,
// id ≥ *c: true of every row, so the plan returns what it returned, and c is
// moved before each run, so no scan of the plan has been seen before.
func withFreshConstants(n plan.Node, c *[]*int64) plan.Node {
	switch n := n.(type) {
	case *plan.Scan:
		s := &plan.Scan{Alias: n.Alias, Table: n.Table, Access: n.Access, IndexColumn: n.IndexColumn}
		s.Filters = append(append(s.Filters, n.Filters...), query.Filter{Alias: n.Alias, Column: "id", Op: query.Ge})
		*c = append(*c, &s.Filters[len(s.Filters)-1].Value)
		return s
	case *plan.Join:
		return &plan.Join{Algo: n.Algo, Left: withFreshConstants(n.Left, c), Right: withFreshConstants(n.Right, c), Preds: n.Preds}
	case *plan.Agg:
		return &plan.Agg{Algo: n.Algo, Child: withFreshConstants(n.Child, c), GroupBys: n.GroupBys, Aggregates: n.Aggregates}
	}
	return n
}

// BenchmarkExecute runs the six served plans once per iteration, four ways.
// warm: on an engine that has run them before — the serving steady state:
// each is one lookup. cold: on a fresh engine every iteration — what the
// first request after a start pays, index builds included. miss: on an engine
// whose memo is full, with a constant never seen before in every scan of
// every plan, so that every operator runs and is noted, and each join index
// is built for that execution alone — traffic that pays the memo's
// bookkeeping and gets nothing back; it has to stay close to an engine
// without a memo. prefix: on an engine that holds both inputs of each plan's
// top join and has never seen the join itself — training traffic, whose
// plans differ in their last steps: the join (and the aggregation over it)
// runs, over inputs and a build-side index that are the memo's.
// Metric: work-units/op, which no engine state may move (miss charges its
// extra filter).
func BenchmarkExecute(b *testing.B) {
	db, queries, roots := servedPlans(b)
	run := func(b *testing.B, e *Engine, roots []plan.Node) (units int64) {
		for i, q := range queries {
			_, w, err := e.ExecuteBudget(q, roots[i], servedBudget)
			if err != nil {
				b.Fatalf("%s: %v", q.Name, err)
			}
			units += w.Total()
		}
		return units
	}
	b.Run("warm", func(b *testing.B) {
		e := New(db)
		run(b, e, roots)
		run(b, e, roots) // a scan is stored the second time it runs
		b.ReportAllocs()
		b.ResetTimer()
		var units int64
		for i := 0; i < b.N; i++ {
			units += run(b, e, roots)
		}
		b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		var units int64
		for i := 0; i < b.N; i++ {
			units += run(b, New(db), roots)
		}
		b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
	})
	b.Run("prefix", func(b *testing.B) {
		e := New(db)
		for i, q := range queries {
			top := roots[i]
			if a, ok := top.(*plan.Agg); ok {
				top = a.Child
			}
			for _, input := range top.Children() {
				for range 2 { // an output is stored the second time it is computed
					if _, _, err := e.ExecuteBudget(q, input, servedBudget); err != nil {
						b.Fatalf("%s: %v", q.Name, err)
					}
				}
			}
		}
		// Forgetting the notes keeps every top join at first sight.
		firstSight := func() {
			e.memo.mu.Lock()
			clear(e.memo.door)
			e.memo.mu.Unlock()
		}
		run(b, e, roots) // builds the indexes over the right inputs
		firstSight()
		held := e.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		var units int64
		for i := 0; i < b.N; i++ {
			units += run(b, e, roots)
			firstSight()
		}
		b.StopTimer()
		b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
		if st := e.Stats(); st.Bytes != held.Bytes || st.IndexBuilds != held.IndexBuilds || st.ScanMisses != held.ScanMisses {
			b.Fatalf("the inputs should be answered and nothing stored: %+v, before %+v", st, held)
		}
	})
	b.Run("miss", func(b *testing.B) {
		var constants []*int64
		fresh := make([]plan.Node, len(roots))
		for i, root := range roots {
			fresh[i] = withFreshConstants(root, &constants)
		}
		next := int64(0)
		runFresh := func(e *Engine) int64 {
			next--
			for _, c := range constants {
				*c = next
			}
			return run(b, e, fresh)
		}
		e := New(db)
		run(b, e, roots)
		run(b, e, roots)
		for e.Stats().Evictions == 0 { // until the cap is reached: a scan is stored when it runs twice
			runFresh(e)
			run(b, e, fresh)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var units int64
		for i := 0; i < b.N; i++ {
			units += runFresh(e)
		}
		b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
	})
}

// BenchmarkHeavyJoin runs each heavy-join shape (see heavyPlans) once per
// iteration on a fresh engine with no budget: the scans, the cross product,
// the keyed join over it and the output, index builds included — what a
// latency-phase episode pays for the plan the first time it runs.
// Metric: work-units/op, which no executor change may move.
func BenchmarkHeavyJoin(b *testing.B) {
	db, _, queries := goldenWorkload(b)
	for _, p := range heavyPlans(b, queries) {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var units int64
			for i := 0; i < b.N; i++ {
				_, w, err := New(db.Store).Execute(p.q, p.root)
				if err != nil {
					b.Fatal(err)
				}
				units += w.Total()
			}
			b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
		})
	}
}
