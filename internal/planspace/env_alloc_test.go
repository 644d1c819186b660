package planspace

import (
	"context"
	"testing"

	"handsfree/internal/rl"
)

// firstValid is a deterministic serving policy: the lowest-indexed valid
// action.
func firstValid(st rl.State) int {
	for i, ok := range st.Mask {
		if ok {
			return i
		}
	}
	return -1
}

// TestReuseStateBuffersEquivalence: buffer reuse is invisible to the rollout
// — the same policy produces the identical plan and cost with and without it.
func TestReuseStateBuffersEquivalence(t *testing.T) {
	f := fixture(t, 6, 2, 4)
	stages := Stages{AccessPaths: true, JoinOps: true, AggOps: true}
	plain := NewEnv(Config{Space: f.space, Stages: stages, Planner: f.planner, Queries: f.queries})
	reused := NewEnv(Config{Space: f.space, Stages: stages, Planner: f.planner, Queries: f.queries, ReuseStateBuffers: true})
	ctx := context.Background()
	for i, q := range f.queries {
		a, err := plain.GreedyRollout(ctx, q, firstValid)
		if err != nil {
			t.Fatal(err)
		}
		b, err := reused.GreedyRollout(ctx, q, firstValid)
		if err != nil {
			t.Fatal(err)
		}
		if a.Plan == nil || b.Plan == nil {
			t.Fatalf("query %d: rollout produced no plan", i)
		}
		if a.Plan.Signature() != b.Plan.Signature() || a.Cost != b.Cost {
			t.Fatalf("query %d: buffer reuse changed the rollout:\n%s (%.2f)\nvs\n%s (%.2f)",
				i, a.Plan.Signature(), a.Cost, b.Plan.Signature(), b.Cost)
		}
	}
}

// TestStateEncodingSteadyStateAllocs pins the featurization hot path: with
// buffer reuse on and the scratch warm, re-encoding a state allocates
// nothing — the feature vector, mask, per-query entry and subtree
// cardinality memo are all reused. This is what keeps concurrent
// serving from being dominated by featurization malloc churn.
func TestStateEncodingSteadyStateAllocs(t *testing.T) {
	f := fixture(t, 4, 4, 4)
	env := NewEnv(Config{
		Space:             f.space,
		Stages:            Stages{AccessPaths: true, JoinOps: true, AggOps: true},
		Planner:           f.planner,
		Queries:           f.queries,
		ReuseStateBuffers: true,
	})
	q := f.queries[0]
	env.ResetTo(q) // warms the scratch caches and state buffers
	if allocs := testing.AllocsPerRun(20, func() {
		_ = env.state()
	}); allocs != 0 {
		t.Errorf("steady-state state() allocates %.0f objects per call, want 0", allocs)
	}

	// The reused buffers really are reused: successive states share storage.
	s1 := env.state()
	s2 := env.state()
	if &s1.Features[0] != &s2.Features[0] || &s1.Mask[0] != &s2.Mask[0] {
		t.Error("ReuseStateBuffers did not reuse the state storage")
	}
	// And without the opt-in, trajectories keep distinct vectors.
	plain := NewEnv(Config{Space: f.space, Stages: Stages{JoinOps: true}, Planner: f.planner, Queries: f.queries})
	plain.ResetTo(q)
	p1 := plain.state()
	p2 := plain.state()
	if &p1.Features[0] == &p2.Features[0] {
		t.Error("default env aliased feature vectors across states")
	}
}

// TestTrainingEpisodeAllocs pins the allocations of one whole training
// episode — Reset, every step, the completion that ends it — with the env's
// per-query inputs warm, under each completion mode. Training keeps each
// state's fresh feature vector and mask (trajectories retain them), each
// join step allocates its node and predicates, and the completion builds
// its plan: every candidate join it prices is a node, and the aggregation
// on top is one more. What the ceilings leave no room for is per-step alias
// sets: skeleton joins find their predicates from relation bitmasks,
// completion reuses them, and featurization reads subtrees as bitmasks — a
// subtree's depth weights and relation bits come from one walk, and its
// cardinality from the scratch's memo by relation set, which a warm episode
// only reads. Alias sets rebuilt per join step cost the lifecycle's mode 83
// more objects per episode here.
func TestTrainingEpisodeAllocs(t *testing.T) {
	f := fixture(t, 6, 4, 6)
	for _, mode := range []struct {
		name    string
		st      Stages
		ceiling float64
	}{
		{"CompletePhysical", Stages{}, 40},
		{"CompleteOperators", Stages{AccessPaths: true}, 44},
		{"CompleteAccess", Stages{JoinOps: true}, 23},
		{"CostFixed", StagePrefix(4), 32},
	} {
		env := NewEnv(Config{Space: f.space, Stages: mode.st, Planner: f.planner, Queries: f.queries})
		episode := func() {
			s := env.Reset()
			for !s.Terminal {
				s, _, _ = env.Step(firstValid(s))
			}
		}
		for range f.queries {
			episode() // warms the env's per-query inputs
		}
		if allocs := testing.AllocsPerRun(4*len(f.queries), episode); allocs > mode.ceiling {
			t.Errorf("%s: a warm training episode allocates %.0f objects, ceiling %.0f", mode.name, allocs, mode.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per episode (ceiling %.0f)", mode.name, allocs, mode.ceiling)
		}
	}
}
