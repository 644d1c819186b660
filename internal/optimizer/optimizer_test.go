package optimizer

import (
	"math/rand"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

func fixture(t testing.TB) (*Planner, *workload.Workload) {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(db.Catalog, db.Stats)
	model := cost.New(cost.DefaultParams(), est)
	return New(db.Catalog, model), workload.New(db)
}

func TestDPPlansAllNamedQueries(t *testing.T) {
	p, w := fixture(t)
	for _, name := range workload.Fig3bNames() {
		q := w.MustNamed(name)
		if len(q.Relations) > p.DPThreshold {
			continue
		}
		planned, err := p.PlanWith(q, DP)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if planned.Cost <= 0 {
			t.Fatalf("%s: non-positive cost %v", name, planned.Cost)
		}
		// Every relation appears exactly once.
		leaves := plan.Leaves(planned.Root)
		if len(leaves) != len(q.Relations) {
			t.Fatalf("%s: plan has %d leaves, want %d", name, len(leaves), len(q.Relations))
		}
		seen := map[string]bool{}
		for _, l := range leaves {
			if seen[l.Alias] {
				t.Fatalf("%s: alias %s appears twice", name, l.Alias)
			}
			seen[l.Alias] = true
		}
		// A connected query planned by DP must not contain cross products.
		if plan.CrossProduct(planned.Root) {
			t.Fatalf("%s: DP produced a cross product:\n%s", name, plan.Format(planned.Root))
		}
	}
}

func TestDPOptimalVsGreedy(t *testing.T) {
	p, w := fixture(t)
	worse := 0
	for _, name := range []string{"1a", "2a", "4b", "8c", "16b"} {
		q := w.MustNamed(name)
		dp, err := p.PlanWith(q, DP)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := p.PlanWith(q, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if dp.Cost > gr.Cost*1.0000001 {
			t.Fatalf("%s: DP cost %v exceeds greedy cost %v (DP must be optimal)", name, dp.Cost, gr.Cost)
		}
		if gr.Cost > dp.Cost*1.0000001 {
			worse++
		}
	}
	t.Logf("greedy was suboptimal on %d/5 queries", worse)
}

func TestDPBeatsRandomOrders(t *testing.T) {
	p, w := fixture(t)
	q := w.MustNamed("8c")
	dp, err := p.PlanWith(q, DP)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		skeleton := RandomOrder(q, rng)
		_, nc := p.CompletePhysical(q, skeleton)
		if nc.Total < dp.Cost*0.9999999 {
			t.Fatalf("random order %d cost %v beat DP %v", i, nc.Total, dp.Cost)
		}
	}
}

func TestGEQOHandlesLargeQueries(t *testing.T) {
	p, w := fixture(t)
	q, err := w.ByRelations(17, 5)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := p.PlanWith(q, GEQO)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Leaves(planned.Root)); got != 17 {
		t.Fatalf("GEQO plan has %d leaves, want 17", got)
	}
	if plan.CrossProduct(planned.Root) {
		t.Fatal("GEQO produced a cross product on a connected query")
	}
}

func TestAutoSwitchesAtThreshold(t *testing.T) {
	p, w := fixture(t)
	small := w.MustNamed("1a") // 5 relations
	planned, err := p.Plan(small)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Strategy != DP {
		t.Fatalf("5-relation query planned with %v, want dp", planned.Strategy)
	}
	large, err := w.ByRelations(14, 2)
	if err != nil {
		t.Fatal(err)
	}
	planned, err = p.Plan(large)
	if err != nil {
		t.Fatal(err)
	}
	if planned.Strategy != GEQO {
		t.Fatalf("14-relation query planned with %v, want geqo", planned.Strategy)
	}
}

func TestCompletePhysicalPreservesOrder(t *testing.T) {
	p, w := fixture(t)
	q := w.MustNamed("1a")
	rng := rand.New(rand.NewSource(9))
	skeleton := RandomOrder(q, rng)
	completed, nc := p.CompletePhysical(q, skeleton)
	if nc.Total <= 0 {
		t.Fatal("non-positive completed cost")
	}
	// Leaf order (join order) must be identical to the skeleton's.
	wantLeaves := plan.Leaves(skeleton)
	gotLeaves := plan.Leaves(completed)
	if len(wantLeaves) != len(gotLeaves) {
		t.Fatalf("leaf count changed: %d vs %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if wantLeaves[i].Alias != gotLeaves[i].Alias {
			t.Fatalf("leaf %d: %s vs %s — join order not preserved", i, gotLeaves[i].Alias, wantLeaves[i].Alias)
		}
	}
}

func TestCompletePhysicalImprovesSkeleton(t *testing.T) {
	p, w := fixture(t)
	q := w.MustNamed("1a")
	rng := rand.New(rand.NewSource(4))
	skeleton := RandomOrder(q, rng) // all NLJ + seq scans
	naiveCost := p.Model.Cost(q, skeleton)
	_, nc := p.CompletePhysical(q, skeleton)
	if nc.Total > naiveCost {
		t.Fatalf("operator selection made the plan worse: %v > %v", nc.Total, naiveCost)
	}
}

func TestAggregateOperatorSelected(t *testing.T) {
	p, w := fixture(t)
	q := w.MustNamed("1c") // has GROUP BY
	planned, err := p.PlanWith(q, DP)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := planned.Root.(*plan.Agg); !ok {
		t.Fatalf("plan root is %T, want *plan.Agg", planned.Root)
	}
}

func TestAccessPathSelection(t *testing.T) {
	p, w := fixture(t)
	// Build a 1-relation query with an equality filter on an indexed column
	// (title.id is PK-indexed).
	q := w.MustNamed("1a")
	q.Relations = q.Relations[:1] // title only
	q.Joins = nil
	q.Filters = nil
	q.GroupBys = nil
	q.Filters = append(q.Filters, queryFilterEqID())
	node, _ := p.BestScan(q, "t")
	s := node.(*plan.Scan)
	if s.Access == plan.SeqScan {
		t.Fatal("planner chose seq scan for an equality filter on the PK")
	}
	if s.IndexColumn != "id" {
		t.Fatalf("index column = %s, want id", s.IndexColumn)
	}
}

func TestPlanningTimeGrowsWithDP(t *testing.T) {
	p, w := fixture(t)
	small, err := w.ByRelations(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := w.ByRelations(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.PlanWith(small, DP)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.PlanWith(large, DP)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Duration <= ps.Duration {
		t.Fatalf("DP on 11 relations (%v) should take longer than 4 (%v)", pl.Duration, ps.Duration)
	}
}

func TestPlannerRejectsEmptyQuery(t *testing.T) {
	p, _ := fixture(t)
	if _, err := p.Plan(&query.Query{}); err == nil {
		t.Fatal("planned an empty query")
	}
}

// queryFilterEqID is the equality-on-PK filter used by the access-path test.
func queryFilterEqID() query.Filter {
	return query.Filter{Alias: "t", Column: "id", Op: query.Eq, Value: 42}
}
