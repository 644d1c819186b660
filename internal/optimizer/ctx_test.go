package optimizer

import (
	"context"
	"errors"
	"testing"
	"time"
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
