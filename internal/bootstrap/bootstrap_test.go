package bootstrap

import (
	"context"
	"math"
	"testing"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/planspace"
	"handsfree/internal/query"
	"handsfree/internal/rl"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

func fixtureEnv(t *testing.T, nQueries, minRel, maxRel int) (*planspace.Env, []*query.Query) {
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
	qs, err := w.Training(nQueries, minRel, maxRel, 17)
	if err != nil {
		t.Fatal(err)
	}
	env := planspace.NewEnv(planspace.Config{
		Space:   featurize.NewSpace(maxRel, est),
		Stages:  planspace.StagePrefix(4),
		Planner: planner,
		Latency: lat,
		Queries: qs,
		Seed:    3,
	})
	return env, qs
}

func TestPhase1DoesNotExecute(t *testing.T) {
	env, _ := fixtureEnv(t, 4, 4, 5)
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{32}, Seed: 1}})
	for ep := 0; ep < 20; ep++ {
		agent.TrainEpisode()
	}
	if env.Executions != 0 {
		t.Fatalf("phase 1 executed %d plans; the whole point is zero executions", env.Executions)
	}
}

func TestPhase2Executes(t *testing.T) {
	env, _ := fixtureEnv(t, 4, 4, 5)
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{32}, Seed: 1}})
	for ep := 0; ep < 10; ep++ {
		agent.TrainEpisode()
	}
	agent.SwitchToLatency()
	for ep := 0; ep < 10; ep++ {
		agent.TrainEpisode()
	}
	if env.Executions != 10 {
		t.Fatalf("phase 2 executed %d plans over 10 episodes", env.Executions)
	}
	if agent.Phase2Episodes != 10 {
		t.Fatalf("phase-2 episode counter = %d", agent.Phase2Episodes)
	}
}

// TestRewardContinuity verifies the mechanism of §5.2 directly: with linear
// rescaling the Phase-2 rewards land inside the Phase-1 reward range; with
// no scaling they land far outside it.
func TestRewardContinuity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scaling Scaling
		inside  bool
	}{
		{"unscaled jumps", ScaleNone, false},
		{"scaled stays", ScaleLinear, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, _ := fixtureEnv(t, 4, 4, 5)
			agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{32}, Seed: 2}, Scaling: tc.scaling})
			var phase1Rewards []float64
			for ep := 0; ep < 60; ep++ {
				agent.TrainEpisode()
				phase1Rewards = append(phase1Rewards, planspace.CostReward(env.Last))
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range phase1Rewards[len(phase1Rewards)-30:] {
				lo = math.Min(lo, r)
				hi = math.Max(hi, r)
			}
			agent.SwitchToLatency()
			inside, outside := 0, 0
			for ep := 0; ep < 30; ep++ {
				out := agent.TrainEpisode()
				r := agent.reward(out)
				// Widen the band slightly: new plans can be a bit outside.
				span := hi - lo + 1
				if r >= lo-span && r <= hi+span {
					inside++
				} else {
					outside++
				}
			}
			if tc.inside && inside < outside {
				t.Fatalf("scaled rewards mostly left the phase-1 range: %d inside, %d outside [%v, %v]",
					inside, outside, lo, hi)
			}
			if !tc.inside && outside < inside {
				t.Fatalf("unscaled rewards mostly stayed in the phase-1 range: %d inside, %d outside [%v, %v]",
					inside, outside, lo, hi)
			}
		})
	}
}

func TestCalibrationUsesTrailingWindow(t *testing.T) {
	env, _ := fixtureEnv(t, 4, 4, 5)
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{Hidden: []int{32}, Seed: 3}, CalibrationWindow: 10})
	for ep := 0; ep < 50; ep++ {
		agent.TrainEpisode()
	}
	agent.SwitchToLatency()
	if agent.CostRange().Count() != 10 {
		t.Fatalf("calibration range built from %d episodes, want the trailing 10", agent.CostRange().Count())
	}
}

// TestPhase1Learns confirms the cost-reward phase actually improves the
// policy (the premise of bootstrapping).
func TestPhase1Learns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	env, qs := fixtureEnv(t, 6, 4, 5)
	// Defaults: the vanilla-REINFORCE learner with the package's tuned LR.
	agent := New(Config{Env: env, Agent: rl.ReinforceConfig{
		Hidden: []int{64, 32}, BatchSize: 16, Seed: 4,
	}})
	eval := func() float64 {
		total := 0.0
		for _, q := range qs {
			out, err := env.GreedyRollout(context.Background(), q, agent.RL.Greedy)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := env.Cfg.Planner.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			total += out.Cost / planned.Cost
		}
		return total / float64(len(qs))
	}
	before := eval()
	for ep := 0; ep < 3000; ep++ {
		agent.TrainEpisode()
	}
	after := eval()
	t.Logf("cost ratio vs expert: before=%.2f after=%.2f", before, after)
	if after >= before {
		t.Fatalf("phase 1 did not improve the policy: %.2f → %.2f", before, after)
	}
}
