package planspace

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"handsfree/internal/catalog"
	"handsfree/internal/cost"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
	"handsfree/internal/stats"
)

// The join-order stage (StagePrefix(1)) on its own is the paper's §3 ReJOIN
// MDP: these tests pin that case study's properties on it.

// chainEnv is a join-order env over one three-relation chain query
// a–b–c (alias index a, b, c): a and c share no predicate.
func chainEnv(t *testing.T, disallowCross bool) (*Env, *query.Query) {
	t.Helper()
	cat := catalog.New()
	for _, name := range []string{"a", "b", "c"} {
		if err := cat.AddTable(&catalog.Table{Name: name, Rows: 100, Columns: []catalog.Column{{Name: "id"}, {Name: "x"}}}); err != nil {
			t.Fatal(err)
		}
	}
	st := stats.NewStats()
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"a", "b", "c"} {
		ids, xs := make([]int64, 100), make([]int64, 100)
		for i := range ids {
			ids[i], xs[i] = int64(i), rng.Int63n(10)
		}
		st.Analyze(name, map[string][]int64{"id": ids, "x": xs}, 8, 2)
	}
	est := stats.NewEstimator(cat, st)
	q := &query.Query{
		Relations: []query.Relation{{Table: "a", Alias: "a"}, {Table: "b", Alias: "b"}, {Table: "c", Alias: "c"}},
		Joins: []query.Join{
			{LeftAlias: "b", LeftCol: "x", RightAlias: "a", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "x", RightAlias: "b", RightCol: "id"},
		},
	}
	env := NewEnv(Config{
		Space:         featurize.NewSpace(4, est),
		Planner:       optimizer.New(cat, cost.New(cost.DefaultParams(), est)),
		Queries:       []*query.Query{q},
		DisallowCross: disallowCross,
	})
	return env, q
}

// validPairs lists the join pairs a state's mask allows.
func validPairs(env *Env, s rl.State) map[[2]int]bool {
	out := map[[2]int]bool{}
	for a, ok := range s.Mask {
		if ok {
			x, y, _ := env.Layout.DecodeJoin(a)
			out[[2]int{x, y}] = true
		}
	}
	return out
}

func TestPairMask(t *testing.T) {
	env, _ := chainEnv(t, false)
	pairs := validPairs(env, env.Reset())
	for p := range pairs {
		if p[0] == p[1] || p[0] >= 3 || p[1] >= 3 {
			t.Fatalf("invalid pair %v unmasked", p)
		}
	}
	if len(pairs) != 6 {
		t.Fatalf("3 subtrees have %d valid ordered pairs, want 6", len(pairs))
	}
}

func TestConnectedPairMask(t *testing.T) {
	env, _ := chainEnv(t, true)
	pairs := validPairs(env, env.Reset())
	if pairs[[2]int{0, 2}] || pairs[[2]int{2, 0}] {
		t.Fatal("disconnected pair a–c not masked")
	}
	if len(pairs) != 4 || !pairs[[2]int{0, 1}] || !pairs[[2]int{1, 2}] {
		t.Fatalf("connected pairs a–b, b–c not exactly the valid ones: %v", pairs)
	}
	// Joining a and b leaves [c, a⋈b]: the predicate c–b connects them.
	s, _, _ := env.Step(env.Layout.EncodeJoin(0, 1, 0))
	if pairs := validPairs(env, s); len(pairs) != 2 {
		t.Fatalf("c and a⋈b are connected, got valid pairs %v", pairs)
	}
}

func TestConnectedPairMaskFallback(t *testing.T) {
	env, q := chainEnv(t, true)
	// Without joins every pair is disconnected, so the mask falls back to
	// all pairs: episodes must be able to finish.
	q.Joins = nil
	if pairs := validPairs(env, env.Reset()); len(pairs) != 6 {
		t.Fatalf("fallback mask allows %d pairs, want all 6", len(pairs))
	}
}

// stage1 builds a join-order env and a REINFORCE policy over it.
func (f fx) stage1(hidden, batch int, seed int64) (*Env, *rl.Reinforce) {
	env := f.env(Stages{}, CostReward, false)
	return env, rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{hidden}, BatchSize: batch, Seed: seed})
}

// trainEpisode runs one sampled episode on the next workload query and
// feeds it to the learner.
func trainEpisode(env *Env, agent *rl.Reinforce) rl.Trajectory {
	traj := env.Episode(agent.Sample)
	agent.Observe(traj)
	return traj
}

func greedy(t *testing.T, env *Env, agent *rl.Reinforce, q *query.Query) Outcome {
	t.Helper()
	out, err := env.GreedyRollout(context.Background(), q, agent.Greedy)
	if err != nil || out.Plan == nil {
		t.Fatalf("greedy rollout on %s: plan %v, err %v", q.Name, out.Plan, err)
	}
	return out
}

// greedyRatio is the geometric mean over the workload of the greedy plan's
// cost against the traditional optimizer's.
func greedyRatio(t *testing.T, f fx, env *Env, agent *rl.Reinforce) float64 {
	t.Helper()
	var logSum float64
	for _, q := range f.queries {
		planned, err := f.planner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(greedy(t, env, agent, q).Cost / planned.Cost)
	}
	return math.Exp(logSum / float64(len(f.queries)))
}

func TestDisallowCrossMasksDisconnectedPairs(t *testing.T) {
	f := fixture(t, 4, 5, 5)
	env, agent := f.stage1(16, 16, 6)
	env.Cfg.DisallowCross = true
	for ep := 0; ep < 40; ep++ {
		trainEpisode(env, agent)
		if env.Last.Plan == nil {
			t.Fatal("no plan")
		}
		if plan.CrossProduct(env.Last.Plan) {
			t.Fatal("cross product under DisallowCross on a connected query")
		}
	}
}

func TestEpisodeTerminatesWithValidPlan(t *testing.T) {
	f := fixture(t, 4, 4, 5)
	env, agent := f.stage1(32, 16, 2)
	for ep := 0; ep < 20; ep++ {
		traj := trainEpisode(env, agent)
		if env.Last.Plan == nil || env.Last.Cost <= 0 {
			t.Fatalf("episode %d: plan %v, cost %v", ep, env.Last.Plan, env.Last.Cost)
		}
		if n := len(env.Current().Relations); len(plan.Leaves(env.Last.Plan)) != n || len(traj.Steps) != n-1 {
			t.Fatalf("episode %d: %d leaves in %d steps for %d relations", ep, len(plan.Leaves(env.Last.Plan)), len(traj.Steps), n)
		}
	}
}

func TestEpisodeCyclesThroughWorkload(t *testing.T) {
	f := fixture(t, 3, 4, 4)
	env, agent := f.stage1(16, 16, 3)
	seen := map[*query.Query]int{}
	for ep := 0; ep < 6; ep++ {
		trainEpisode(env, agent)
		seen[env.Current()]++
	}
	for _, q := range f.queries {
		if seen[q] != 2 {
			t.Fatalf("query %s served %d times in 6 episodes over 3 queries", q.Name, seen[q])
		}
	}
}

// TestCostRewardIsNegLogCost: a join-order episode ends with −log of the
// completed plan's optimizer cost, and no earlier step is rewarded.
func TestCostRewardIsNegLogCost(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	env, agent := f.stage1(16, 16, 1)
	traj := trainEpisode(env, agent)
	for i, st := range traj.Steps[:len(traj.Steps)-1] {
		if st.Reward != 0 {
			t.Fatalf("step %d rewarded %v before the episode ended", i, st.Reward)
		}
	}
	if r := traj.Steps[len(traj.Steps)-1].Reward; r != -math.Log(env.Last.Cost) || r >= 0 {
		t.Fatalf("terminal reward %v for cost %v, want −log(cost) < 0", r, env.Last.Cost)
	}
}

func TestGreedyPlanDeterministic(t *testing.T) {
	f := fixture(t, 3, 4, 5)
	env, agent := f.stage1(16, 16, 5)
	for ep := 0; ep < 50; ep++ {
		trainEpisode(env, agent)
	}
	q := f.queries[0]
	a, b := greedy(t, env, agent, q), greedy(t, env, agent, q)
	if a.Cost != b.Cost || a.Plan.Signature() != b.Plan.Signature() {
		t.Fatalf("greedy inference not deterministic: %v vs %v", a.Cost, b.Cost)
	}
}

// TestCheckpointRoundTrip: a policy restored into a fresh learner plans
// every query exactly as the trained one does.
func TestCheckpointRoundTrip(t *testing.T) {
	f := fixture(t, 4, 4, 5)
	env, agent := f.stage1(32, 16, 2)
	for ep := 0; ep < 100; ep++ {
		trainEpisode(env, agent)
	}
	data, err := agent.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	env2, restored := f.stage1(32, 16, 99)
	if err := restored.UnmarshalPolicy(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queries {
		want, got := greedy(t, env, agent, q), greedy(t, env2, restored, q)
		if got.Cost != want.Cost || got.Plan.Signature() != want.Plan.Signature() {
			t.Fatalf("query %s: restored cost %v, want %v", q.Name, got.Cost, want.Cost)
		}
	}
}

// TestCheckpointRejectsWrongDims: a checkpoint from a space sized for other
// queries is rejected.
func TestCheckpointRejectsWrongDims(t *testing.T) {
	f := fixture(t, 2, 4, 4)
	_, agent := f.stage1(16, 16, 1)
	data, err := agent.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	wide := NewEnv(Config{Space: featurize.NewSpace(6, f.est), Planner: f.planner, Queries: f.queries})
	other := rl.NewReinforce(wide.ObsDim(), wide.ActionDim(), rl.ReinforceConfig{Hidden: []int{16}, Seed: 1})
	if err := other.UnmarshalPolicy(data); err == nil {
		t.Fatal("checkpoint with mismatched dimensions accepted")
	}
}

// TestF32CheckpointRoundTripOnAgent: a briefly trained f32 policy saves and
// restores into a learner with another seed and batch size, and both plan
// every query at the same cost.
func TestF32CheckpointRoundTripOnAgent(t *testing.T) {
	f := fixture(t, 3, 4, 4)
	env, agent := f.stage1(16, 4, 3)
	for ep := 0; ep < 12; ep++ {
		trainEpisode(env, agent)
	}
	data, err := agent.MarshalPolicy()
	if err != nil {
		t.Fatal(err)
	}
	env2, restored := f.stage1(16, 4, 4)
	if err := restored.UnmarshalPolicy(data); err != nil {
		t.Fatal(err)
	}
	for _, q := range f.queries {
		want, got := greedy(t, env, agent, q), greedy(t, env2, restored, q)
		if got.Cost != want.Cost {
			t.Fatalf("restored learner plans %s at cost %v, original %v", q.Name, got.Cost, want.Cost)
		}
	}
}

// TestConvergenceTowardExpert is the §3 reproduction at miniature scale:
// after training, the greedy join orders are close to the traditional
// optimizer's on the training workload, and better than the untrained
// policy's.
func TestConvergenceTowardExpert(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	f := workloadFixture(t, 6, 4, 6, 7)
	env := f.env(Stages{}, CostReward, false)
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{64, 32}, BatchSize: 16, LR: 2e-3, Seed: 4})
	before := greedyRatio(t, f, env, agent)
	for ep := 0; ep < 4000; ep++ {
		trainEpisode(env, agent)
	}
	after := greedyRatio(t, f, env, agent)
	t.Logf("cost ratio vs expert: before=%.2f after=%.2f", before, after)
	if after > before || after > 2.0 {
		t.Fatalf("after 4000 episodes the policy is %.2f× the expert (untrained %.2f×)", after, before)
	}
}

// trainSync trains a fresh join-order learner for the given number of
// sequential episodes.
func trainSync(f fx, episodes int) (*Env, *rl.Reinforce) {
	env, agent := f.stage1(32, 8, 2)
	for ep := 0; ep < episodes; ep++ {
		trainEpisode(env, agent)
	}
	return env, agent
}

// TestF32TrainingConvergesOnSeedWorkload is the system-level half of the f32
// contract (the per-step bounds live in nn): training brings the greedy
// plans' cost ratio against the optimizer down from the untrained policy's
// to within maxTrainedRatio. The budget is short on purpose: the bound
// checks that learning happens, not that it has finished.
func TestF32TrainingConvergesOnSeedWorkload(t *testing.T) {
	f := workloadFixture(t, 4, 4, 5, 7)
	const maxTrainedRatio = 25.0
	env, agent := trainSync(f, 0)
	untrained := greedyRatio(t, f, env, agent)
	env, agent = trainSync(f, 240)
	trained := greedyRatio(t, f, env, agent)
	t.Logf("greedy cost ratio vs optimizer: untrained %.3f, trained %.3f", untrained, trained)
	if trained > maxTrainedRatio || trained >= untrained {
		t.Fatalf("trained plan quality %.3f (untrained %.3f), want below %.0f and improved", trained, untrained, maxTrainedRatio)
	}
}

// TestTrainAsyncConvergesLikeSync: the async split at four actors reaches
// the sequential loop's greedy plan quality within tolerance — bounded
// staleness may cost sample efficiency, not convergence.
func TestTrainAsyncConvergesLikeSync(t *testing.T) {
	f := workloadFixture(t, 4, 4, 5, 7)
	const episodes = 240
	syncEnv, syncAgent := trainSync(f, episodes)
	syncRatio := greedyRatio(t, f, syncEnv, syncAgent)

	asyncEnv, asyncAgent := f.stage1(32, 8, 2)
	TrainAsyncCtx(context.Background(), asyncEnv, asyncAgent, episodes, rl.AsyncConfig{Actors: 4, Staleness: 4}, nil)
	asyncRatio := greedyRatio(t, f, asyncEnv, asyncAgent)

	t.Logf("greedy cost ratio vs optimizer: sync %.3f, async %.3f", syncRatio, asyncRatio)
	if asyncRatio > 1.6*syncRatio {
		t.Fatalf("async final plan quality %.3f not within tolerance of sync %.3f", asyncRatio, syncRatio)
	}
}

// TestTrainAsyncProducesCompleteEpisodes: every async join-order episode
// carries a completed plan with a positive cost for a workload query, the
// episode budget is honored exactly, and the learner updates.
func TestTrainAsyncProducesCompleteEpisodes(t *testing.T) {
	f := fixture(t, 4, 4, 5)
	env, agent := f.stage1(32, 8, 2)
	seen := map[*query.Query]int{}
	n := 0
	stats := TrainAsyncCtx(context.Background(), env, agent, 48, rl.AsyncConfig{Actors: 4, Staleness: 2}, func(i int, rec EpisodeRecord) {
		if rec.Out.Plan == nil || rec.Query == nil || rec.Out.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, rec.Out.Plan, rec.Out.Cost)
		}
		seen[rec.Query]++
		n++
	})
	if n != 48 || stats.Episodes != 48 {
		t.Fatalf("observed %d episodes (stats %d), want 48", n, stats.Episodes)
	}
	for _, q := range f.queries {
		if seen[q] == 0 {
			t.Fatalf("query %s never served during async collection", q.Name)
		}
	}
	if agent.Updates == 0 {
		t.Fatal("no policy updates after 48 async episodes with batch size 8")
	}
}

// TestParallelCollectionCoversWorkload: staggered actor replicas serve
// every workload query during parallel join-order collection.
func TestParallelCollectionCoversWorkload(t *testing.T) {
	f := fixture(t, 4, 4, 4)
	env, agent := f.stage1(16, 8, 3)
	seen := map[*query.Query]int{}
	TrainAsyncCtx(context.Background(), env, agent, 16, rl.AsyncConfig{Actors: 4}, func(_ int, rec EpisodeRecord) {
		seen[rec.Query]++
	})
	for _, q := range f.queries {
		if seen[q] == 0 {
			t.Fatalf("query %s never served during parallel collection", q.Name)
		}
	}
}

// TestParallelCollectionTrainsPolicy: the learner updates once per batch of
// parallel-collected join-order episodes.
func TestParallelCollectionTrainsPolicy(t *testing.T) {
	f := fixture(t, 4, 4, 4)
	env, agent := f.stage1(16, 8, 4)
	TrainAsyncCtx(context.Background(), env, agent, 40, rl.AsyncConfig{Actors: 4}, nil)
	if agent.Updates != 5 {
		t.Fatalf("%d policy updates after 40 parallel episodes with batch size 8, want 5", agent.Updates)
	}
}

// policyBits is a learner's policy identity for bit-for-bit comparisons:
// the network's input and output widths, then every parameter's bits.
func policyBits(agent *rl.Reinforce) []uint64 {
	bits := []uint64{uint64(agent.Policy.InDim()), uint64(agent.Policy.OutDim())}
	for _, w := range agent.Policy.FlattenParams() {
		bits = append(bits, math.Float64bits(w))
	}
	return bits
}

// collectRun trains a fresh join-order learner in parallel, optionally over
// a shared plan cache, and returns the per-episode costs in ticket order
// plus the final policy's bits.
func collectRun(t *testing.T, f fx, cache *plancache.Cache, episodes, actors int) ([]float64, []uint64) {
	t.Helper()
	env := NewEnv(Config{Space: f.space, Planner: f.planner, Queries: f.queries, Cache: cache, Seed: 3})
	agent := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Hidden: []int{32}, BatchSize: 8, Seed: 2})
	var costs []float64
	TrainAsyncCtx(context.Background(), env, agent, episodes, rl.AsyncConfig{Actors: actors}, func(i int, rec EpisodeRecord) {
		if rec.Out.Plan == nil || rec.Query == nil || rec.Out.Cost <= 0 {
			t.Fatalf("episode %d incomplete: plan=%v cost=%v", i, rec.Out.Plan, rec.Out.Cost)
		}
		costs = append(costs, rec.Out.Cost)
	})
	if len(costs) != episodes {
		t.Fatalf("observed %d episodes, want %d", len(costs), episodes)
	}
	return costs, policyBits(agent)
}

// TestParallelCollectionCacheTransparent: parallel join-order training with
// the plan cache enabled produces bitwise-identical episode costs and final
// policy to training without it, whether or not an earlier run shared the
// cache, and the completions leave the cache untouched.
func TestParallelCollectionCacheTransparent(t *testing.T) {
	f := fixture(t, 4, 4, 5)
	plain, plainPolicy := collectRun(t, f, nil, 32, 4)
	cache := plancache.New(plancache.Config{Capacity: 4096, Shards: 8})
	cold, coldPolicy := collectRun(t, f, cache, 32, 4)
	warm, warmPolicy := collectRun(t, f, cache, 32, 4)
	for i := range plain {
		if plain[i] != cold[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v cold-cached", i, plain[i], cold[i])
		}
		if plain[i] != warm[i] {
			t.Fatalf("episode %d: cost %v uncached vs %v warm-cached", i, plain[i], warm[i])
		}
	}
	if !slices.Equal(plainPolicy, coldPolicy) || !slices.Equal(plainPolicy, warmPolicy) {
		t.Fatal("final policy bits differ with the cache enabled")
	}
	if st := cache.Stats(); st.Hits+st.Misses+st.Puts != 0 {
		t.Fatalf("parallel collection touched the plan cache: %+v", st)
	}
}
