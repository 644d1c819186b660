package curriculum

import (
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

func fixtureCfg(t *testing.T, nQueries, minRel, maxRel int) Config {
	t.Helper()
	db, err := datagen.Generate(datagen.Config{Seed: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(db.Catalog, db.Stats)
	model := cost.New(cost.DefaultParams(), est)
	planner := optimizer.New(db.Catalog, model)
	oracle := stats.NewOracle(est, 11)
	lat := engine.NewLatencyModel(oracle, 5)
	w := workload.New(db)
	qs, err := w.Training(nQueries, minRel, maxRel, 21)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Space:   featurize.NewSpace(maxRel, est),
		Planner: planner,
		Latency: lat,
		Queries: qs,
		Agent:   rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 1},
		Seed:    1,
	}
}

func TestPipelineScheduleShape(t *testing.T) {
	s := PipelineSchedule(100)
	if len(s) != planspace.NumStages {
		t.Fatalf("pipeline schedule has %d phases, want %d", len(s), planspace.NumStages)
	}
	for k, p := range s {
		if p.Stages != planspace.StagePrefix(k+1) {
			t.Fatalf("phase %d stages %+v, want prefix %d", k, p.Stages, k+1)
		}
		if p.MaxRelations != 0 {
			t.Fatalf("pipeline schedule must not restrict relations")
		}
	}
	if s.TotalEpisodes() != 400 {
		t.Fatalf("total episodes %d, want 400", s.TotalEpisodes())
	}
}

func TestRelationsScheduleShape(t *testing.T) {
	s := RelationsSchedule(50, []int{2, 3, 5})
	if len(s) != 3 {
		t.Fatalf("got %d phases", len(s))
	}
	full := planspace.StagePrefix(planspace.NumStages)
	for i, p := range s {
		if p.Stages != full {
			t.Fatalf("phase %d must use the full pipeline", i)
		}
	}
	if s[0].MaxRelations != 2 || s[2].MaxRelations != 5 {
		t.Fatal("relation bounds wrong")
	}
}

func TestHybridScheduleShape(t *testing.T) {
	s := HybridSchedule(10, 7)
	// Pipeline grows for NumStages phases, then relations keep growing.
	if s[0].Stages != planspace.StagePrefix(1) || s[0].MaxRelations != 2 {
		t.Fatalf("first phase %+v", s[0])
	}
	last := s[len(s)-1]
	if last.Stages != planspace.StagePrefix(planspace.NumStages) || last.MaxRelations != 7 {
		t.Fatalf("last phase %+v", last)
	}
	// Relation bound is non-decreasing.
	prev := 0
	for _, p := range s {
		if p.MaxRelations < prev {
			t.Fatal("relation bound decreased")
		}
		prev = p.MaxRelations
	}
}

func TestFlatScheduleShape(t *testing.T) {
	s := FlatSchedule(500)
	if len(s) != 1 || s[0].Stages != planspace.StagePrefix(planspace.NumStages) {
		t.Fatalf("flat schedule %+v", s)
	}
}

func TestTrainerRunsPipelineSchedule(t *testing.T) {
	cfg := fixtureCfg(t, 6, 2, 5)
	tr := NewTrainer(cfg)
	episodes := 0
	results, err := tr.Run(PipelineSchedule(24), func(ep int, out planspace.Outcome) {
		if ep != episodes {
			t.Fatalf("episode index %d, want %d", ep, episodes)
		}
		episodes++
		if out.Cost <= 0 {
			t.Fatalf("episode %d outcome cost %v", ep, out.Cost)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if episodes != 96 {
		t.Fatalf("ran %d episodes, want 96", episodes)
	}
	if len(results) != planspace.NumStages {
		t.Fatalf("got %d phase results", len(results))
	}
	for _, r := range results {
		if r.FinalRatio <= 0 {
			t.Fatalf("phase %s ratio %v", r.Phase.Name, r.FinalRatio)
		}
	}
}

func TestTrainerTransfersAcrossStages(t *testing.T) {
	cfg := fixtureCfg(t, 4, 3, 4)
	tr := NewTrainer(cfg)
	if _, err := tr.RunPhase(Phase{Name: "p1", Stages: planspace.StagePrefix(1), Episodes: 8}, 0, nil); err != nil {
		t.Fatal(err)
	}
	dim1 := tr.Agent().Policy.OutDim()
	if _, err := tr.RunPhase(Phase{Name: "p3", Stages: planspace.StagePrefix(3), Episodes: 8}, 8, nil); err != nil {
		t.Fatal(err)
	}
	dim3 := tr.Agent().Policy.OutDim()
	if dim3 <= dim1 {
		t.Fatalf("action space did not grow: %d → %d", dim1, dim3)
	}
}

func TestRelationFilter(t *testing.T) {
	cfg := fixtureCfg(t, 10, 2, 6)
	tr := NewTrainer(cfg)
	qs := tr.filterQueries(Phase{MaxRelations: 3})
	for _, q := range qs {
		if len(q.Relations) > 3 {
			t.Fatalf("query %s has %d relations under a 3-relation bound", q.Name, len(q.Relations))
		}
	}
	if len(qs) == 0 {
		t.Fatal("filter removed every query")
	}
	if len(tr.filterQueries(Phase{})) != 10 {
		t.Fatal("unbounded filter must keep all queries")
	}
}

func TestEmptyPhaseErrors(t *testing.T) {
	cfg := fixtureCfg(t, 4, 5, 6)
	tr := NewTrainer(cfg)
	if _, err := tr.RunPhase(Phase{Name: "empty", MaxRelations: 1, Episodes: 4}, 0, nil); err == nil {
		t.Fatal("phase with no queries should error")
	}
}

func TestHybridRunsEndToEnd(t *testing.T) {
	cfg := fixtureCfg(t, 8, 2, 5)
	tr := NewTrainer(cfg)
	results, err := tr.Run(HybridSchedule(10, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < planspace.NumStages {
		t.Fatalf("hybrid produced %d phases", len(results))
	}
}
