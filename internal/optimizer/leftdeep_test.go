package optimizer

import (
	"testing"

	"handsfree/internal/plan"
)

// leftDeepShape reports whether every join's right input is a leaf.
func leftDeepShape(n plan.Node) bool {
	switch n := n.(type) {
	case *plan.Join:
		if _, leaf := n.Right.(*plan.Scan); !leaf {
			return false
		}
		return leftDeepShape(n.Left)
	case *plan.Agg:
		return leftDeepShape(n.Child)
	default:
		return true
	}
}

func TestLeftDeepOnlyProducesLeftDeepTrees(t *testing.T) {
	p, w := fixture(t)
	p.LeftDeepOnly = true
	for _, name := range []string{"1a", "8c", "16b"} {
		q := w.MustNamed(name)
		planned, err := p.PlanWith(q, DP)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !leftDeepShape(planned.Root) {
			t.Fatalf("%s: LeftDeepOnly DP produced a bushy tree:\n%s", name, plan.Format(planned.Root))
		}
	}
}

func TestBushyNeverWorseThanLeftDeep(t *testing.T) {
	pBushy, w := fixture(t)
	pLeft, _ := fixture(t)
	pLeft.LeftDeepOnly = true
	better := 0
	for _, name := range []string{"1a", "2a", "4b", "8c", "12b", "16b"} {
		q := w.MustNamed(name)
		bushy, err := pBushy.PlanWith(q, DP)
		if err != nil {
			t.Fatal(err)
		}
		left, err := pLeft.PlanWith(q, DP)
		if err != nil {
			t.Fatal(err)
		}
		if bushy.Cost > left.Cost*1.0000001 {
			t.Fatalf("%s: bushy DP (%v) worse than left-deep (%v) — bushy search is a superset", name, bushy.Cost, left.Cost)
		}
		if left.Cost > bushy.Cost*1.0000001 {
			better++
		}
	}
	t.Logf("bushy strictly beat left-deep on %d/6 queries", better)
}

// TestLeftDeepPlansFaster: the left-deep DP searches less than the bushy one.
// Search effort is measured in allocations, which — unlike wall-clock time
// on a shared machine — are the same on every run.
func TestLeftDeepPlansFaster(t *testing.T) {
	pBushy, w := fixture(t)
	pLeft, _ := fixture(t)
	pLeft.LeftDeepOnly = true
	q, err := w.ByRelations(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	effort := func(p *Planner) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := p.PlanWith(q, DP); err != nil {
				t.Fatal(err)
			}
		})
	}
	left, bushy := effort(pLeft), effort(pBushy)
	t.Logf("DP allocations on 11 relations: left-deep %.0f, bushy %.0f", left, bushy)
	if left >= bushy {
		t.Fatalf("left-deep DP (%.0f allocs) searched no less than bushy (%.0f) on 11 relations", left, bushy)
	}
}
