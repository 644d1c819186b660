package planspace

import (
	"math"
	"math/rand"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/rl"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

type fx struct {
	planner *optimizer.Planner
	est     *stats.Estimator
	lat     *engine.LatencyModel
	queries []*query.Query
	space   *featurize.Space
}

func fixture(t *testing.T, nQueries, minRel, maxRel int) fx {
	t.Helper()
	return workloadFixture(t, nQueries, minRel, maxRel, 9)
}

// workloadFixture is fixture over the training workload drawn with seed.
func workloadFixture(t *testing.T, nQueries, minRel, maxRel int, seed int64) fx {
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
	qs, err := w.Training(nQueries, minRel, maxRel, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fx{planner: planner, est: est, lat: lat, queries: qs, space: featurize.NewSpace(maxRel, est)}
}

func (f fx) env(stages Stages, reward RewardFunc, needsLat bool) *Env {
	return NewEnv(Config{
		Space:              f.space,
		Stages:             stages,
		Planner:            f.planner,
		Latency:            f.lat,
		Queries:            f.queries,
		Reward:             reward,
		RewardNeedsLatency: needsLat,
		Seed:               3,
	})
}

func runRandomEpisode(t *testing.T, env *Env, seed int64) Outcome {
	t.Helper()
	pol := rl.RandomPolicy(seed)
	s := env.Reset()
	for steps := 0; !s.Terminal && steps < 100; steps++ {
		a := pol(s)
		if a < 0 {
			t.Fatal("no valid action")
		}
		next, _, done := env.Step(a)
		s = next
		if done {
			break
		}
	}
	if env.Last.Plan == nil {
		t.Fatal("episode finished without a plan")
	}
	return env.Last
}

func TestStagePrefix(t *testing.T) {
	// The service's lifecycle and serving envs leave Config.Stages at its
	// zero value and rely on it being the join-order-only stage.
	if StagePrefix(1) != (Stages{}) {
		t.Fatal("stage 1 should control join order only, and be the zero Stages value")
	}
	if StagePrefix(2) != (Stages{AccessPaths: true}) {
		t.Fatal("stage 2 adds access paths")
	}
	if StagePrefix(4) != (Stages{AccessPaths: true, JoinOps: true, AggOps: true}) {
		t.Fatal("stage 4 is the full pipeline")
	}
}

func TestActionDimGrowsWithStages(t *testing.T) {
	space := featurize.NewSpace(6, nil)
	prev := 0
	for k := 1; k <= NumStages; k++ {
		l := Layout{Space: space, Stages: StagePrefix(k)}
		if l.ActionDim() <= prev {
			t.Fatalf("stage %d action dim %d not larger than stage %d (%d)", k, l.ActionDim(), k-1, prev)
		}
		prev = l.ActionDim()
	}
}

func TestEpisodesFinishAtEveryStage(t *testing.T) {
	f := fixture(t, 4, 4, 5)
	for k := 1; k <= NumStages; k++ {
		env := f.env(StagePrefix(k), CostReward, false)
		for ep := 0; ep < 8; ep++ {
			out := runRandomEpisode(t, env, int64(k*100+ep))
			if out.Cost <= 0 || math.IsInf(out.Cost, 1) {
				t.Fatalf("stage %d: bad cost %v", k, out.Cost)
			}
			leaves := plan.Leaves(out.Plan)
			if len(leaves) != len(env.Current().Relations) {
				t.Fatalf("stage %d: %d leaves, want %d", k, len(leaves), len(env.Current().Relations))
			}
		}
	}
}

func TestJoinOpsStageControlsAlgorithms(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	env := f.env(Stages{AccessPaths: true, JoinOps: true}, CostReward, false)
	// Drive an episode always picking the first valid action; with JoinOps
	// the first valid join action for a pair is algorithm variant 0 =
	// NestLoop — the final plan's joins must all be nested loops.
	s := env.Reset()
	for !s.Terminal {
		a := -1
		for i, ok := range s.Mask {
			if ok {
				a = i
				break
			}
		}
		next, _, done := env.Step(a)
		s = next
		if done {
			break
		}
	}
	sawJoin := false
	plan.Walk(env.Last.Plan, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			sawJoin = true
			if j.Algo != plan.NestLoop {
				t.Fatalf("join algo %v, want NestLoop (agent-controlled)", j.Algo)
			}
		}
	})
	if !sawJoin {
		t.Fatal("plan has no joins")
	}
}

func TestAccessStageControlsScans(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	env := f.env(Stages{AccessPaths: true}, CostReward, false)
	s := env.Reset()
	q := env.Current()
	// Choose AccessSeq for every relation (action offset+0 is always valid).
	for i := 0; i < len(q.Relations); i++ {
		next, _, _ := env.Step(env.Layout.AccessOffset() + AccessSeq)
		s = next
	}
	// Finish joins randomly.
	pol := rl.RandomPolicy(1)
	for !s.Terminal {
		a := pol(s)
		next, _, done := env.Step(a)
		s = next
		if done {
			break
		}
	}
	for _, l := range plan.Leaves(env.Last.Plan) {
		if l.Access != plan.SeqScan {
			t.Fatalf("leaf %s access %v, want SeqScan (agent chose seq)", l.Alias, l.Access)
		}
	}
}

func TestLatencyRewardExecutes(t *testing.T) {
	f := fixture(t, 3, 4, 4)
	env := f.env(Stages{}, LatencyReward, true)
	runRandomEpisode(t, env, 7)
	if env.Executions != 1 {
		t.Fatalf("executions = %d, want 1", env.Executions)
	}
	if math.IsNaN(env.Last.LatencyMs) {
		t.Fatal("latency reward episode has NaN latency")
	}
}

func TestCostRewardDoesNotExecute(t *testing.T) {
	f := fixture(t, 3, 4, 4)
	env := f.env(Stages{}, CostReward, false)
	runRandomEpisode(t, env, 7)
	if env.Executions != 0 {
		t.Fatalf("cost-reward episode executed %d times, want 0", env.Executions)
	}
}

func TestLatencyBudgetTimeouts(t *testing.T) {
	f := fixture(t, 4, 6, 7)
	env := f.env(Stages{}, LatencyReward, true)
	env.Cfg.LatencyBudgetMs = 1 // absurdly tight: everything times out
	for ep := 0; ep < 5; ep++ {
		runRandomEpisode(t, env, int64(ep))
	}
	if env.TimedOutCount == 0 {
		t.Fatal("no timeouts under a 1ms budget")
	}
}

func TestExpertReplayMatchesExpertCost(t *testing.T) {
	f := fixture(t, 4, 4, 6)
	for k := 1; k <= NumStages; k++ {
		env := f.env(StagePrefix(k), CostReward, false)
		for _, q := range f.queries {
			planned, err := f.planner.PlanWith(q, optimizer.DP)
			if err != nil {
				t.Fatal(err)
			}
			traj, out, err := env.Replay(q, planned.Root)
			if err != nil {
				t.Fatalf("stage %d, query %s: %v", k, q.Name, err)
			}
			if len(traj.Steps) == 0 {
				t.Fatalf("stage %d: empty trace", k)
			}
			// With all stages enabled the replayed plan reproduces the expert
			// decisions in the controlled dimensions; its cost must not be
			// wildly different (completion may improve uncontrolled dims).
			ratio := out.Cost / planned.Cost
			if ratio < 0.49 || ratio > 2.01 {
				t.Fatalf("stage %d, query %s: replayed cost %.1f vs expert %.1f (ratio %.2f)",
					k, q.Name, out.Cost, planned.Cost, ratio)
			}
		}
	}
}

func TestExpertReplayFullStagesExact(t *testing.T) {
	f := fixture(t, 4, 4, 6)
	env := f.env(StagePrefix(4), CostReward, false)
	for _, q := range f.queries {
		planned, err := f.planner.PlanWith(q, optimizer.DP)
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := env.Replay(q, planned.Root)
		if err != nil {
			t.Fatal(err)
		}
		// All four dimensions agent-controlled: join order, access paths and
		// operators match the expert exactly, so costs agree to rounding.
		if math.Abs(out.Cost/planned.Cost-1) > 0.05 {
			t.Fatalf("query %s: full-stage replay cost %.1f vs expert %.1f", q.Name, out.Cost, planned.Cost)
		}
	}
}

func TestTransferPolicyPreservesHiddenLayers(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	rng := rand.New(rand.NewSource(1))
	oldStages := StagePrefix(1)
	newStages := StagePrefix(3)
	oldLayout := Layout{Space: f.space, Stages: oldStages}
	newLayout := Layout{Space: f.space, Stages: newStages}
	old := nn.NewMLP(rng, oldLayout.ObsDim(), 32, oldLayout.ActionDim())
	transferred := TransferPolicy(old, f.space, oldStages, newStages, rng)

	if transferred.OutDim() != newLayout.ActionDim() {
		t.Fatalf("transferred out dim %d, want %d", transferred.OutDim(), newLayout.ActionDim())
	}
	// First hidden layer identical.
	ow := old.F32().Layers[0].(*nn.LinearOf[float32]).W.Value
	tw := transferred.F32().Layers[0].(*nn.LinearOf[float32]).W.Value
	for i := range ow {
		if ow[i] != tw[i] {
			t.Fatal("hidden layer weights changed during transfer")
		}
	}
}

func TestTransferPolicyRemapsJoinBlock(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	rng := rand.New(rand.NewSource(2))
	oldStages := StagePrefix(1) // 1 algo variant
	newStages := StagePrefix(3) // 3 algo variants
	oldLayout := Layout{Space: f.space, Stages: oldStages}
	old := nn.NewMLP(rng, oldLayout.ObsDim(), 16, oldLayout.ActionDim())
	transferred := TransferPolicy(old, f.space, oldStages, newStages, rng)

	oldLin := lastLinear(old.F32())
	newLin := lastLinear(transferred.F32())
	// Pair 5's single variant should seed all three variants of pair 5.
	pair := 5
	for algo := 0; algo < 3; algo++ {
		for r := 0; r < newLin.In; r++ {
			want := oldLin.W.Value[r*oldLin.Out+pair]
			got := newLin.W.Value[r*newLin.Out+(pair*3+algo)]
			if want != got {
				t.Fatalf("pair %d algo %d weight not inherited", pair, algo)
			}
		}
	}
}

func TestMaskAlwaysHasValidAction(t *testing.T) {
	f := fixture(t, 6, 4, 7)
	for k := 1; k <= NumStages; k++ {
		env := f.env(StagePrefix(k), CostReward, false)
		pol := rl.RandomPolicy(int64(k))
		for ep := 0; ep < len(f.queries); ep++ {
			s := env.Reset()
			for steps := 0; !s.Terminal && steps < 100; steps++ {
				if s.NumValid() == 0 {
					t.Fatalf("stage %d: no valid action at step %d", k, steps)
				}
				next, _, done := env.Step(pol(s))
				s = next
				if done {
					break
				}
			}
		}
	}
}
