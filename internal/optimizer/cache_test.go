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

// TestCachedCompletionMatchesUncached: every completion mode must return
// exactly the same plan and cost with and without the cache, on the first
// (miss) call and on the repeated (hit) call.
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
				n, nc := pl.CompleteOperatorsMemo(q, skeleton, nil)
				return n, nc.Total
			}},
			{"CompleteAccess", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CompleteAccessMemo(q, skeleton, nil, nil)
				return n, nc.Total
			}},
			{"CostFixed", func(pl *Planner) (plan.Node, float64) {
				n, nc := pl.CostFixedMemo(q, skeleton, plan.HashAgg, nil)
				return n, nc.Total
			}},
		} {
			wantNode, wantCost := c.run(p)
			missNode, missCost := c.run(cached)
			hitNode, hitCost := c.run(cached)
			if missCost != wantCost || hitCost != wantCost {
				t.Fatalf("%s/%s: cost uncached=%v miss=%v hit=%v", name, c.label, wantCost, missCost, hitCost)
			}
			if missNode.Signature() != wantNode.Signature() || hitNode.Signature() != wantNode.Signature() {
				t.Fatalf("%s/%s: cached plan differs from uncached", name, c.label)
			}
		}
	}
	st := cached.Cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
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

// TestCacheSubtreeReuseAcrossSkeletons: two different join orders over the
// same query share leaves, so completing the second skeleton must hit the
// leaf entries the first one populated even though the roots differ.
func TestCacheSubtreeReuseAcrossSkeletons(t *testing.T) {
	_, cached, w := cacheFixture(t)
	q := w.MustNamed("2a")
	rng := rand.New(rand.NewSource(9))
	first := RandomOrder(q, rng)
	var second plan.Node
	for {
		second = RandomOrder(q, rng)
		if second.Signature() != first.Signature() {
			break
		}
	}
	cached.CompletePhysical(q, first)
	hitsBefore := cached.Cache.Stats().Hits
	cached.CompletePhysical(q, second)
	if hits := cached.Cache.Stats().Hits; hits <= hitsBefore {
		t.Fatalf("no subtree reuse across skeletons: hits %d -> %d", hitsBefore, hits)
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
// workload sweep — full plans and per-episode completions — without a single
// recomputation: every lookup hits, zero entry-producing misses.
func TestWarmStartSkipsColdSweep(t *testing.T) {
	p, _, w := cacheFixture(t)
	rng := rand.New(rand.NewSource(11))

	// First process: plan and complete the bench workload cold.
	first := p.WithCache(plancache.New(plancache.Config{Capacity: 1 << 14, Shards: 8}))
	type sweep struct {
		q        *query.Query
		skeleton plan.Node
	}
	var sweeps []sweep
	var coldPlans []string
	var coldCosts []float64
	for _, name := range workload.Fig3bNames()[:4] {
		q := w.MustNamed(name)
		skeleton := RandomOrder(q, rng)
		sweeps = append(sweeps, sweep{q, skeleton})
		planned, err := first.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		node, nc := first.CompletePhysical(q, skeleton)
		coldPlans = append(coldPlans, plan.Format(planned.Root), plan.Format(node))
		coldCosts = append(coldCosts, planned.Cost, nc.Total)
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
	for _, s := range sweeps {
		planned, err := second.Plan(s.q)
		if err != nil {
			t.Fatal(err)
		}
		node, nc := second.CompletePhysical(s.q, s.skeleton)
		warmPlans = append(warmPlans, plan.Format(planned.Root), plan.Format(node))
		warmCosts = append(warmCosts, planned.Cost, nc.Total)
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
