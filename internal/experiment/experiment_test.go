package experiment

import (
	"fmt"
	"strings"
	"testing"

	"handsfree"
)

func quickLab(t *testing.T) *Lab {
	t.Helper()
	lab, err := NewLab(QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// TestLabPinsExactStats: the recorded figures run on exact statistics
// whatever HANDSFREE_STATS says, as they did before the Lab opened its
// substrate through handsfree.New.
func TestLabPinsExactStats(t *testing.T) {
	t.Setenv("HANDSFREE_STATS", "sketch")
	if got := quickLab(t).StatsSource; got != handsfree.StatsExact {
		t.Fatalf("lab statistics %s under HANDSFREE_STATS=sketch, want exact", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bbbb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.Render()
	for _, want := range []string{"T\n", "a    bbbb", "333  4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bbbb\n1,2\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestMovingAverage(t *testing.T) {
	out := MovingAverage([]float64{2, 4, 6, 8}, 2)
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("ma[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if got := MovingAverage([]float64{1, 2}, 0); got[0] != 1 || got[1] != 2 {
		t.Fatal("window 0 must behave as window 1")
	}
}

func TestSeriesTableAlignsSeries(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(1, 30)
	tab := SeriesTable("title", "x", a, b)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[1][2] != "" {
		t.Fatalf("missing b value should render empty, got %q", tab.Rows[1][2])
	}
}

func TestFig3aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.Fig3a(Fig3aConfig{
		Episodes: 4000, QueryCount: 8, MinRel: 4, MaxRel: 6,
		SamplePoints: 20, Window: 200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Curve.Y[1] // index 0 is inside the warm-up window
	last := res.Curve.Last()
	t.Logf("fig3a: first=%.0f%% last=%.0f%% greedy=%.0f%% parity@%d", first, last, res.Greedy.Last(), res.FirstParity)
	if last >= first/2 {
		t.Fatalf("convergence curve did not descend enough: %.0f%% → %.0f%%", first, last)
	}
	if res.Greedy.Last() > 900 {
		t.Fatalf("greedy ratio %.0f%% still above 900%% after the quick run", res.Greedy.Last())
	}
}

func TestFig3bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.Fig3b(Fig3bConfig{Episodes: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 10 {
		t.Fatalf("evaluated %d queries, want 10", res.Total)
	}
	if len(res.Table.Rows) != 10 {
		t.Fatalf("table has %d rows", len(res.Table.Rows))
	}
	t.Logf("fig3b: ReJOIN wins %d/%d\n%s", res.Wins, res.Total, res.Render())
	// A quick run cannot reach the paper's full result (ReJOIN ≤ baseline on
	// every query); require near-parity on some queries as the shape check.
	near := 0
	for _, row := range res.Table.Rows {
		var ratio float64
		fmt.Sscanf(row[3], "%f", &ratio)
		if ratio <= 3 {
			near++
		}
	}
	if near < 3 {
		t.Errorf("only %d/10 queries within 3× of the baseline after the quick run", near)
	}
}

func TestFig3cShape(t *testing.T) {
	lab := quickLab(t)
	res, err := lab.Fig3c(Fig3cConfig{RelationCounts: []int{4, 8, 12, 14}, Repeats: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig3c:\n%s", res.Render())
	pg := res.Postgres.Y
	rj := res.ReJOIN.Y
	// DP planning time grows sharply from 4 to 12 relations.
	if pg[2] <= pg[0] {
		t.Fatalf("DP time at 12 relations (%.3fms) not above 4 relations (%.3fms)", pg[2], pg[0])
	}
	// ReJOIN inference stays below the traditional optimizer at the upper
	// end of the DP regime (the paper's counter-intuitive result).
	if rj[2] >= pg[2] {
		t.Fatalf("ReJOIN at 12 relations (%.3fms) not faster than DP (%.3fms)", rj[2], pg[2])
	}
}

func TestNaiveFullSpaceNotBetterThanRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.NaiveFullSpace(NaiveConfig{
		Episodes: 4000, QueryCount: 8, MinRel: 4, MaxRel: 6, EvalEvery: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("naive:\n%s", res.Render())
	// §4's claim at fixed budget: the restricted (ReJOIN-style) space has
	// converged near the expert while the full plan space has not.
	if res.FinalJoinOrder > 4 {
		t.Errorf("restricted agent only reached %.1f× expert; expected near-convergence at this budget", res.FinalJoinOrder)
	}
	if res.FinalAgent < 2*res.FinalJoinOrder {
		t.Errorf("naive full-space (%.1f×) converged almost as well as restricted (%.1f×); §4's search-space gap is missing", res.FinalAgent, res.FinalJoinOrder)
	}
}

func TestLatencyFromScratchTimesOut(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.LatencyFromScratch(ScratchLatencyConfig{
		Episodes: 120, QueryCount: 8, MinRel: 5, MaxRel: 7, BudgetFactor: 25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scratch latency: %s", res.Render())
	if res.TimeoutFraction < 0.25 {
		t.Fatalf("only %.0f%% of tabula-rasa episodes hit the budget; footnote 2 expects most early plans to be unexecutable", 100*res.TimeoutFraction)
	}
	if res.WallclockFactor < 3 {
		t.Fatalf("execution overhead %.1f× too low to support footnote 2", res.WallclockFactor)
	}
}

func TestLfDExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.LfDExperiment(LfDConfig{
		QueryCount: 8, MinRel: 5, MaxRel: 7, PretrainBatches: 1200, FineTuneEpisodes: 250, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lfd:\n%s", res.Render())
	if res.RatioAfterPretrain >= res.ScratchRatio {
		t.Fatalf("imitation (%.2f) not better than from-scratch (%.2f)", res.RatioAfterPretrain, res.ScratchRatio)
	}
	if res.Catastrophic > res.ScratchCatastrophic {
		t.Fatalf("LfD executed more catastrophic plans (%d) than from-scratch (%d)", res.Catastrophic, res.ScratchCatastrophic)
	}
}

func TestBootstrapExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.BootstrapExperiment(BootstrapConfig{
		QueryCount: 8, MinRel: 4, MaxRel: 6, Phase1Episodes: 1200, Phase2Episodes: 600, EvalEvery: 150, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bootstrap:\n%s", res.Render())
	if res.DipUnscaled <= res.DipScaled {
		t.Errorf("unscaled switch (dip %+.2f log10) was not less stable than scaled (%+.2f)", res.DipUnscaled, res.DipScaled)
	}
	if res.PoorUnscaled < res.PoorScaled {
		t.Errorf("unscaled switch executed fewer poor plans (%d) than scaled (%d)", res.PoorUnscaled, res.PoorScaled)
	}
}

func TestCurriculumExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	lab := quickLab(t)
	res, err := lab.CurriculumExperiment(CurriculumConfig{
		QueryCount: 12, MinRel: 2, MaxRel: 5, EpisodesPerPhase: 250, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("curriculum:\n%s", res.Render())
	if len(res.FinalRatios) != 4 {
		t.Fatalf("expected 4 schedules, got %v", res.FinalRatios)
	}
	for name, r := range res.FinalRatios {
		if r <= 0 {
			t.Fatalf("schedule %s ratio %v", name, r)
		}
	}
}
