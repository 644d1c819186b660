package optimizer

import (
	"math/rand"
	"testing"

	"handsfree/internal/plan"
	"handsfree/internal/plancache"
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
// through the cache unchanged, and the second call is served from cache
// without recomputing the entry.
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
		puts := cached.Cache.Stats().Puts
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
		if st := cached.Cache.Stats(); st.Hits != before+1 || st.Puts != puts {
			t.Fatalf("%s: second PlanWith did not hit the cache (%+v)", s, st)
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
