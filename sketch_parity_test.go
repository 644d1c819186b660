package handsfree

import (
	"math"
	"testing"
)

// TestSketchPlanningParity: planning on sketch-backed statistics produces
// plans competitive with histogram-backed planning. Both systems share one
// synthetic database (same seed and scale); each plans the seed workload
// with its own cost model, and both resulting plans are then costed under
// the exact model — the sketch planner's beliefs pick the plan, the exact
// model judges it. The geometric-mean cost ratio must stay within 1.5×.
func TestSketchPlanningParity(t *testing.T) {
	exact := testService(t, WithSeed(1), WithStats(StatsExact)).System()
	sk := testService(t, WithSeed(1), WithStats(StatsSketch)).System()
	qs, err := exact.Workload.Training(16, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}

	logSum, worst := 0.0, 1.0
	var worstIdx int
	for i, q := range qs {
		pe, err := exact.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sk.Planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		ce := exact.Cost.Cost(q, pe.Root)
		cs := exact.Cost.Cost(q, ps.Root)
		if ce <= 0 || math.IsInf(cs, 1) {
			t.Fatalf("query %d: degenerate costs exact=%v sketch=%v", i, ce, cs)
		}
		ratio := cs / ce
		if ratio > worst {
			worst, worstIdx = ratio, i
		}
		logSum += math.Log(ratio)
	}
	geomean := math.Exp(logSum / float64(len(qs)))
	t.Logf("sketch/exact plan cost: geomean %.3f, worst %.3f (query %d)", geomean, worst, worstIdx)
	if geomean > 1.5 {
		t.Fatalf("sketch-stats planning geomean cost ratio %.3f exceeds 1.5x parity bound", geomean)
	}
}
