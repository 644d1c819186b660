package optimizer

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"handsfree/internal/plan"
	"handsfree/internal/plancache"
)

// TestPlanCtxCancellation: every enumeration strategy must notice an
// already-cancelled context and return its error instead of planning.
func TestPlanCtxCancellation(t *testing.T) {
	p, w := fixture(t)
	q, err := w.ByRelations(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []Strategy{Auto, DP, Greedy, GEQO} {
		if _, err := p.PlanWithCtx(ctx, q, s); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", s, err)
		}
	}
	// A live context plans normally through the ctx entry points.
	if planned, err := p.PlanCtx(context.Background(), q); err != nil || planned.Cost <= 0 {
		t.Fatalf("live-context PlanCtx: %+v, %v", planned, err)
	}
}

// TestPlanCtxDeadlineMidSearch: a deadline expiring during the DP subset
// sweep must abort it promptly with context.DeadlineExceeded.
func TestPlanCtxDeadlineMidSearch(t *testing.T) {
	p, w := fixture(t)
	q, err := w.ByRelations(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.PlanWithCtx(ctx, q, DP)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DP took %v to honor an expired 2ms deadline", elapsed)
	}
}

// TestCompleteMemoMatchesFresh: the Memo completion variants must return
// exactly what their memo-less counterparts return, both on first use and
// when the memo is reused across calls within an "episode".
func TestCompleteMemoMatchesFresh(t *testing.T) {
	p, w := fixture(t)
	cached := p.WithCache(plancache.New(plancache.Config{Capacity: 1 << 12}))
	q, err := w.ByRelations(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		skeleton := RandomOrder(q, rng)
		m := make(map[plan.Node]uint64, 16)
		freshRoot, freshNC := p.CompletePhysical(q, skeleton)
		memoRoot, memoNC := cached.CompletePhysicalMemo(q, skeleton, m, nil)
		if freshNC.Total != memoNC.Total {
			t.Fatalf("iteration %d: memoized completion cost %v != fresh %v", i, memoNC.Total, freshNC.Total)
		}
		if plancache.HashPlan(freshRoot) != plancache.HashPlan(memoRoot) {
			t.Fatalf("iteration %d: memoized completion plan differs", i)
		}
		// Reusing the same memo for a second completion of the same skeleton
		// (the double-CostFixed pattern) must not change the result.
		again, againNC := cached.CompletePhysicalMemo(q, skeleton, m, nil)
		if againNC.Total != memoNC.Total || plancache.HashPlan(again) != plancache.HashPlan(memoRoot) {
			t.Fatalf("iteration %d: memo reuse changed the completion", i)
		}
	}
}
