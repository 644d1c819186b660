package optimizer

import (
	"bytes"
	"math/rand"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/workload"
)

// cacheFixture returns an uncached planner, a cached copy sharing its
// catalog and cost model, and the workload.
func cacheFixture(t *testing.T) (*Planner, *Planner, *workload.Workload) {
	t.Helper()
	p, w := fixture(t)
	cached := p.WithCache(plancache.New(plancache.Config{Capacity: 4096, Shards: 8}))
	if cached == p || cached.Cache == nil {
		t.Fatal("WithCache did not attach a cache to a copy")
	}
	return p, cached, w
}

// TestCachedCompletionMatchesUncached: every completion mode returns exactly
// the same plan and cost on a planner with a cache attached, on the first
// call and on a repeated one, and none of them reads or writes the cache:
// it holds whole planning decisions only.
func TestCachedCompletionMatchesUncached(t *testing.T) {
	p, cached, w := cacheFixture(t)
	rng := rand.New(rand.NewSource(3))
	for _, name := range workload.Fig3bNames() {
		q := w.MustNamed(name)
		skeleton := RandomOrder(q, rng)

		type completion struct {
			label string
			run   func(*Planner) (plan.Node, float64)
		}
		for _, c := range []completion{
			{"CompletePhysical", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CompletePhysical(q, skeleton)
				return n, nc.Total
			}},
			{"CompleteOperators", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CompleteOperators(q, skeleton)
				return n, nc.Total
			}},
			{"CompleteAccess", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CompleteAccess(q, skeleton, nil)
				return n, nc.Total
			}},
			{"CostFixed", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CostFixed(q, skeleton, plan.HashAgg)
				return n, nc.Total
			}},
		} {
			wantNode, wantCost := c.run(p)
			firstNode, firstCost := c.run(cached)
			againNode, againCost := c.run(cached)
			if firstCost != wantCost || againCost != wantCost {
				t.Fatalf("%s/%s: cost uncached=%v first=%v again=%v", name, c.label, wantCost, firstCost, againCost)
			}
			if firstNode.Signature() != wantNode.Signature() || againNode.Signature() != wantNode.Signature() {
				t.Fatalf("%s/%s: cached planner's plan differs from uncached", name, c.label)
			}
		}
	}
	if st := cached.Cache.Stats(); st.Hits+st.Misses+st.Puts != 0 || st.Size != 0 {
		t.Fatalf("completions touched the plan cache: %+v", st)
	}
}

// TestCachedPlanWithMatchesUncached: full enumeration results round-trip
// through the cache unchanged, and the second call is served from cache.
func TestCachedPlanWithMatchesUncached(t *testing.T) {
	p, cached, w := cacheFixture(t)
	for _, s := range []Strategy{DP, Greedy, GEQO} {
		q := w.MustNamed("2a")
		want, err := p.PlanWith(q, s)
		if err != nil {
			t.Fatal(err)
		}
		before := cached.Cache.Stats().Hits
		first, err := cached.PlanWith(q, s)
		if err != nil {
			t.Fatal(err)
		}
		second, err := cached.PlanWith(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if first.Cost != want.Cost || second.Cost != want.Cost {
			t.Fatalf("%s: cost uncached=%v first=%v second=%v", s, want.Cost, first.Cost, second.Cost)
		}
		if second.Root.Signature() != want.Root.Signature() {
			t.Fatalf("%s: cached plan differs from uncached", s)
		}
		if cached.Cache.Stats().Hits != before+1 {
			t.Fatalf("%s: second PlanWith did not hit the cache", s)
		}
	}
}

// TestCacheAblationKnobsKeyed: LeftDeepOnly variants sharing one cache must
// not serve each other's plans (the knob is folded into the key).
func TestCacheAblationKnobsKeyed(t *testing.T) {
	_, cached, w := cacheFixture(t)
	q := w.MustNamed("8c")
	leftDeep := *cached
	leftDeep.LeftDeepOnly = true

	bushy, err := cached.PlanWith(q, DP)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := leftDeep.PlanWith(q, DP)
	if err != nil {
		t.Fatal(err)
	}
	// Left-deep DP is a strict restriction: it may tie but must never win,
	// and crucially it must not return the cached bushy plan verbatim when
	// the bushy plan is not left-deep.
	if ld.Cost < bushy.Cost {
		t.Fatalf("left-deep DP beat bushy DP: %v < %v", ld.Cost, bushy.Cost)
	}
	if isBushy(bushy.Root) && ld.Root.Signature() == bushy.Root.Signature() {
		t.Fatal("left-deep planner served the cached bushy plan")
	}
}

// isBushy reports whether any join's right input is itself a join.
func isBushy(n plan.Node) bool {
	bushy := false
	plan.Walk(n, func(m plan.Node) {
		if j, ok := m.(*plan.Join); ok {
			if _, ok := j.Right.(*plan.Join); ok {
				bushy = true
			}
		}
	})
	return bushy
}

// TestWarmStartSkipsColdSweep: a cache saved at shutdown and loaded into a
// fresh planner in a "restarted" process must serve the whole repeated
// workload sweep of full plans without a single recomputation: every lookup
// hits, zero entry-producing misses.
func TestWarmStartSkipsColdSweep(t *testing.T) {
	p, _, w := cacheFixture(t)

	// First process: plan the bench workload cold.
	first := p.WithCache(plancache.New(plancache.Config{Capacity: 1 << 14, Shards: 8}))
	var qs []*query.Query
	var coldPlans []string
	var coldCosts []float64
	for _, name := range workload.Fig3bNames()[:4] {
		q := w.MustNamed(name)
		qs = append(qs, q)
		planned, err := first.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		coldPlans = append(coldPlans, plan.Format(planned.Root))
		coldCosts = append(coldCosts, planned.Cost)
	}

	var buf bytes.Buffer
	if err := first.Cache.Save(&buf, 42); err != nil {
		t.Fatal(err)
	}

	// "Restarted" process: fresh cache, warm-started from the dump.
	warm := plancache.New(plancache.Config{Capacity: 1 << 14, Shards: 8})
	restored, err := warm.Load(&buf, 42)
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("dump restored no entries")
	}
	second := p.WithCache(warm)
	before := warm.Stats()
	var warmPlans []string
	var warmCosts []float64
	for _, q := range qs {
		planned, err := second.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		warmPlans = append(warmPlans, plan.Format(planned.Root))
		warmCosts = append(warmCosts, planned.Cost)
	}
	after := warm.Stats()

	if after.Misses != before.Misses {
		t.Fatalf("warm-started sweep missed %d times; the cold sweep was not skipped", after.Misses-before.Misses)
	}
	if after.Hits == before.Hits {
		t.Fatal("warm-started sweep never hit the restored cache")
	}
	if after.Puts != before.Puts {
		t.Fatalf("warm-started sweep recomputed %d entries", after.Puts-before.Puts)
	}
	for i := range coldPlans {
		if coldPlans[i] != warmPlans[i] || coldCosts[i] != warmCosts[i] {
			t.Fatalf("restored result %d differs from the cold sweep", i)
		}
	}
}
