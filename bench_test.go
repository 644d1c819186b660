// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks of the substrate. Each figure-level benchmark runs a
// scaled-down version of the corresponding experiment in
// internal/experiment and reports the figure's headline quantity as a
// custom metric; full-scale runs use cmd/handsfree.
package handsfree

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"handsfree/internal/engine"
	"handsfree/internal/experiment"
	"handsfree/internal/nn"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/rl"
	"handsfree/internal/sketch"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiment.Lab
	benchLabErr  error
)

func lab(b *testing.B) *experiment.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab, benchLabErr = experiment.NewLab(experiment.QuickLabConfig())
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

// BenchmarkFig3aConvergence regenerates Figure 3a (ReJOIN convergence).
// Metric: final plan cost relative to the traditional optimizer (percent).
func BenchmarkFig3aConvergence(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.Fig3a(experiment.Fig3aConfig{
			Episodes: 2000, QueryCount: 8, MinRel: 4, MaxRel: 6,
			SamplePoints: 10, Window: 150, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Curve.Last(), "final-%-of-postgres")
	}
}

// BenchmarkFig3bPlanCost regenerates Figure 3b (final cost per JOB query).
// Metric: queries where ReJOIN matched or beat the baseline.
func BenchmarkFig3bPlanCost(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.Fig3b(experiment.Fig3bConfig{Episodes: 2500, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Wins), "wins-of-10")
	}
}

// BenchmarkFig3cPlanningTime regenerates Figure 3c (planning time vs
// relation count). Metric: traditional-vs-ReJOIN time ratio at 12 relations.
func BenchmarkFig3cPlanningTime(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.Fig3c(experiment.Fig3cConfig{
			RelationCounts: []int{4, 8, 12, 14}, Repeats: 2, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Postgres.Y[2]/res.ReJOIN.Y[2], "pg/rejoin-time-at-12rel")
	}
}

// BenchmarkNaiveFullSpace regenerates the §4 negative result. Metric: how
// many times worse the naive full-space agent is than the restricted one.
func BenchmarkNaiveFullSpace(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.NaiveFullSpace(experiment.NaiveConfig{
			Episodes: 2000, QueryCount: 8, MinRel: 4, MaxRel: 6, EvalEvery: 500, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalAgent/res.FinalJoinOrder, "naive/restricted-ratio")
	}
}

// BenchmarkLatencyRewardTimeouts regenerates §4 footnote 2. Metric: the
// fraction of tabula-rasa episodes hitting the execution budget.
func BenchmarkLatencyRewardTimeouts(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.LatencyFromScratch(experiment.ScratchLatencyConfig{
			Episodes: 120, QueryCount: 8, MinRel: 5, MaxRel: 7, BudgetFactor: 25, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TimeoutFraction, "timeout-fraction")
	}
}

// BenchmarkLfD regenerates §5.1. Metric: latency ratio vs expert after
// imitation alone (before any agent-driven execution).
func BenchmarkLfD(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.LfDExperiment(experiment.LfDConfig{
			QueryCount: 8, MinRel: 5, MaxRel: 7, PretrainBatches: 1200, FineTuneEpisodes: 200, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RatioAfterPretrain, "imitation-ratio")
		b.ReportMetric(float64(res.Catastrophic), "catastrophic-execs")
	}
}

// BenchmarkBootstrapScaling regenerates §5.2. Metric: extra destabilization
// of the unscaled reward switch versus the paper's linear rescaling.
func BenchmarkBootstrapScaling(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.BootstrapExperiment(experiment.BootstrapConfig{
			QueryCount: 8, MinRel: 4, MaxRel: 6, Phase1Episodes: 1200, Phase2Episodes: 600, EvalEvery: 150, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DipUnscaled-res.DipScaled, "extra-dip-log10")
	}
}

// BenchmarkCurricula regenerates §5.3. Metric: the flat baseline's final
// ratio divided by the best curriculum's.
func BenchmarkCurricula(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		res, err := l.CurriculumExperiment(experiment.CurriculumConfig{
			QueryCount: 12, MinRel: 2, MaxRel: 5, EpisodesPerPhase: 250, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		best := res.FinalRatios["pipeline"]
		for _, name := range []string{"relations", "hybrid"} {
			if r := res.FinalRatios[name]; r < best {
				best = r
			}
		}
		b.ReportMetric(res.FinalRatios["flat (naive §4)"]/best, "flat/best-curriculum")
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkPlannerDP measures exhaustive DP planning on an 8-relation query.
func BenchmarkPlannerDP(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Planner.PlanWith(q, optimizer.DP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerGreedy measures greedy planning on an 8-relation query.
func BenchmarkPlannerGreedy(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Planner.PlanWith(q, optimizer.Greedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerGEQO measures randomized search on a 17-relation query.
func BenchmarkPlannerGEQO(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(17, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Planner.PlanWith(q, optimizer.GEQO); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel measures costing one physical plan.
func BenchmarkCostModel(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := l.Planner.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Model.Cost(q, planned.Root)
	}
}

// BenchmarkSimulatedLatency measures one latency-model evaluation.
func BenchmarkSimulatedLatency(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	planned, err := l.Planner.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Latency.Latency(q, planned.Root)
	}
}

// BenchmarkEngineExecute measures the executor alone on the benchmark's
// tenant (scale 0.05, the six WithWorkload(6,4,6,3) training queries), under
// the default execution budget. served runs the six expert plans — what
// /execute pays per request; censored runs one cross-product join order that
// the budget refuses — what a latency-tuning episode pays for a bad plan.
// Metric: work-units/op, the executor's deterministic charge, which no change
// to how the executor stores its intermediates may move.
func BenchmarkEngineExecute(b *testing.B) {
	svc, err := New(WithScale(0.05), WithWorkload(6, 4, 6, 3))
	if err != nil {
		b.Fatal(err)
	}
	sys := svc.System()
	observed := engine.NewObserved(sys.Engine)
	type job struct {
		q    *Query
		root PlanNode
	}
	var served, censored []job
	for _, q := range svc.Queries() {
		planned, err := sys.Planner.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		served = append(served, job{q, planned.Root})
	}
	rng := rand.New(rand.NewSource(1))
	for try := 0; len(censored) == 0; try++ {
		if try == 100 {
			b.Fatal("no random join order with a cross product ran out of budget")
		}
		q := svc.Queries()[try%len(svc.Queries())]
		root, _ := sys.Planner.CompletePhysical(q, optimizer.RandomOrder(q, rng))
		if !plan.CrossProduct(root) {
			continue
		}
		if _, _, _, timedOut, err := observed.Run(q, root, DefaultExecBudgetMs); err == nil && timedOut {
			censored = append(censored, job{q, root})
		}
	}
	for _, tc := range []struct {
		name     string
		jobs     []job
		timedOut bool
	}{{"served", served, false}, {"censored", censored, true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var units int64
			for i := 0; i < b.N; i++ {
				for _, j := range tc.jobs {
					_, w, _, timedOut, err := observed.Run(j.q, j.root, DefaultExecBudgetMs)
					if err != nil || timedOut != tc.timedOut {
						b.Fatalf("%s: timedOut=%v err=%v", j.q.Name, timedOut, err)
					}
					units += w.Total()
				}
			}
			b.ReportMetric(float64(units)/float64(b.N), "work-units/op")
		})
	}
}

// --- batched training-path benchmarks ---

// benchQAgent builds a training setup shaped like the production agents:
// a 256-dim observation, 64 actions, 128→64 hidden layers, and a replay
// buffer of 4096 samples.
func benchQAgent(seed int64) (*rl.QAgent, *rl.ReplayBuffer) {
	const obsDim, actions = 256, 64
	agent := rl.NewQAgent(obsDim, actions, rl.QAgentConfig{Hidden: []int{128, 64}, Seed: seed})
	buf := rl.NewReplayBuffer(4096)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4096; i++ {
		f := make([]float64, obsDim)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		buf.Add(rl.Sample{Features: f, Action: rng.Intn(actions), Target: rng.NormFloat64()})
	}
	return agent, buf
}

// BenchmarkBatchedTrain measures QAgent.Train's batched path: one 64-sample
// minibatch per iteration through a single parallel forward/backward pass.
// Steady state is allocation-free (0 allocs/op — see
// TestBatchedTrainZeroAlloc).
func BenchmarkBatchedTrain(b *testing.B) {
	agent, buf := benchQAgent(1)
	agent.Train(buf, 64) // size the layer and batch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Train(buf, 64)
	}
}

// TestBatchedTrainZeroAlloc pins the hot training path's zero-steady-state
// allocation property end to end — replay sampling, batch assembly, the
// forward/backward kernels, and the Adam step. Serial kernels only: the
// parallel dispatch path allocates its task closures by design.
func TestBatchedTrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless under -race")
	}
	prev := nn.Workers()
	nn.SetWorkers(1)
	defer nn.SetWorkers(prev)
	agent, buf := benchQAgent(1)
	train := func() { agent.Train(buf, 64) }
	train() // size the layer and batch buffers
	if allocs := testing.AllocsPerRun(20, train); allocs != 0 {
		t.Errorf("batched train %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkPerSampleTrain replicates the pre-batching training loop — one
// 1×d forward/backward per sample — over the same 64-sample minibatch, for
// comparison against BenchmarkBatchedTrain.
func BenchmarkPerSampleTrain(b *testing.B) {
	agent, buf := benchQAgent(1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := buf.Sample(64, rng)
		agent.Net.ZeroGrad()
		for _, s := range batch {
			pred := agent.Net.Forward(nn.FromVec(s.Features)).Data
			grad := make([]float64, len(pred))
			d := pred[s.Action] - s.Target
			const delta = 1.0
			if math.Abs(d) <= delta {
				grad[s.Action] = d
			} else if d > 0 {
				grad[s.Action] = delta
			} else {
				grad[s.Action] = -delta
			}
			agent.Net.Backward(&nn.Mat{Rows: 1, Cols: len(grad), Data: grad})
		}
		agent.Net.DivideGrads(float64(len(batch)))
		agent.Opt.StepNet(agent.Net)
	}
}

// BenchmarkMatMulParallel measures the goroutine-parallel kernel on the
// batched-training matmul shape (64×256 · 256×128).
func BenchmarkMatMulParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := nn.NewMat(64, 256)
	w := nn.NewMat(256, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MatMul(x, w)
	}
}

// BenchmarkMatMulSerial measures the same multiply with the parallel path
// disabled (SetWorkers(1)).
func BenchmarkMatMulSerial(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := nn.NewMat(64, 256)
	w := nn.NewMat(256, 128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	prev := nn.Workers()
	nn.SetWorkers(1)
	defer nn.SetWorkers(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MatMul(x, w)
	}
}

// BenchmarkSkeletonHashing isolates the per-completion hashing cost the
// episode memo removes: "fresh" is the pre-memo behaviour (allocate a map,
// walk the whole tree, every completion call), "memo" is the per-episode
// path (first completion fills the reused map, later completions of the
// same episode — e.g. the double CostFixed aggregation probe — hit it).
func BenchmarkSkeletonHashing(b *testing.B) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	skeleton := optimizer.RandomOrder(q, rand.New(rand.NewSource(7)))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hs := make(map[PlanNode]uint64, 16)
			plancache.HashSubtrees(skeleton, hs)
		}
	})
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		memo := make(map[PlanNode]uint64, 16)
		plancache.HashSubtreesMemo(skeleton, memo)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plancache.HashSubtreesMemo(skeleton, memo)
		}
	})
}

// BenchmarkCompletePhysicalWarm measures a fully warm completion — the
// per-episode cost of a repeated (query, join order) pair once cached.
func BenchmarkCompletePhysicalWarm(b *testing.B) {
	benchCompletePhysical(b, true)
}

// BenchmarkCompletePhysicalCold is the same completion recomputed from
// scratch every time (the seed system's behaviour).
func BenchmarkCompletePhysicalCold(b *testing.B) {
	benchCompletePhysical(b, false)
}

func benchCompletePhysical(b *testing.B, withCache bool) {
	l := lab(b)
	q, err := l.Workload.ByRelations(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	skeleton := optimizer.RandomOrder(q, rand.New(rand.NewSource(7)))
	planner := l.Planner
	if withCache {
		planner = planner.WithCache(plancache.New(plancache.Config{Capacity: 4096}))
		planner.CompletePhysical(q, skeleton) // warm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if root, _ := planner.CompletePhysical(q, skeleton); root == nil {
			b.Fatal("no plan")
		}
	}
}

// benchExecService builds a small service for Execute-path benchmarks.
func benchExecService(b *testing.B, opts ...Option) *Service {
	b.Helper()
	svc, err := New(append([]Option{
		WithScale(0.05),
		WithWorkload(4, 4, 5, 3),
	}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkServiceExecute measures the full execution feedback path — the
// safeguarded serving decision, the engine run, the per-fingerprint history
// record, and the drift check — against the same path with the feedback
// machinery (latency guard, expert probes, drift detector) disabled, so the
// delta is the drift-detection overhead per execution. Metric: executions/sec,
// reported the way the PR 7 serving benches report plans/sec: wall clock
// measured across the whole driving loop, so the rate stays comparable when
// a variant adds setup inside the loop.
func BenchmarkServiceExecute(b *testing.B) {
	cases := []struct {
		name string
		exec ExecutionConfig
	}{
		{"feedback-on", ExecutionConfig{}},
		{"feedback-off", ExecutionConfig{GuardRatio: -1, ProbeEvery: -1, DriftRatio: -1}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			svc := benchExecService(b, WithExecution(tc.exec))
			qs := svc.Queries()
			ctx := context.Background()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Execute(ctx, qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "executions/sec")
		})
	}
}

// BenchmarkServiceExecuteParallel hammers Execute from all procs — the
// serving-path contention profile (shared engine caches, history store
// mutex, atomic counters). Metric: executions/sec aggregate.
func BenchmarkServiceExecuteParallel(b *testing.B) {
	svc := benchExecService(b)
	qs := svc.Queries()
	ctx := context.Background()
	var idx atomic.Uint64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := qs[idx.Add(1)%uint64(len(qs))]
			if _, err := svc.Execute(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "executions/sec")
}

// BenchmarkServicePlanConcurrent drives Plan from 8 goroutines against a
// warm published policy. The cache is disabled so every call pays the full
// greedy rollout over the snapshot's shared packed weights. The policy uses
// the service's default hidden sizes; inference is a modest slice of a full
// Plan (expert costing and featurization dominate) — the kernel-level
// packed-vs-unpacked gap is pinned by nn's BenchmarkPackedInfer.
// Metric: plans/sec aggregate.
func BenchmarkServicePlanConcurrent(b *testing.B) {
	svc := benchExecService(b, WithFallbackRatio(0))
	publishPolicySized(b, svc, 71, []int{128, 64})
	qs := svc.Queries()
	ctx := context.Background()

	// One batch = a fixed 64-plan block fanned across the 8 goroutines, so
	// even a 1x smoke run measures a meaningful rate.
	const goroutines, plansPerBatch = 8, 64
	errs := make(chan error, goroutines)
	batch := func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= plansPerBatch {
						return
					}
					if _, err := svc.Plan(ctx, qs[i%int64(len(qs))]); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	batch() // warm: expert plans, featurizer state, pools, the pack
	b.ResetTimer()
	start := time.Now()
	for iter := 0; iter < b.N; iter++ {
		batch()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)*plansPerBatch/elapsed.Seconds(), "plans/sec")
}

// BenchmarkServicePlan measures one Plan call on the benchmark tenant with
// the plan cache on and a production-sized policy published, both ways a
// request can go once its expert plan is cached: hit — the (fingerprint,
// policy version) pair is already decided, so Plan is the expert lookup, the
// remembered rollout and the guards; miss — the pair is new (a publish
// between calls, outside the timer, with the weights packed), so Plan also
// pays the greedy rollout. The gap is what Service.rollout's memo saves
// every repeated query. Metrics: ns/op, allocs/op.
func BenchmarkServicePlan(b *testing.B) {
	ctx := context.Background()
	setup := func(b *testing.B) (*Service, []*Query) {
		svc := decisionService(b)
		publishPolicySized(b, svc, 71, []int{128, 64})
		for _, q := range svc.Queries() {
			if _, err := svc.Plan(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		return svc, svc.Queries()
	}
	b.Run("hit", func(b *testing.B) {
		svc, qs := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Plan(ctx, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		svc, qs := setup(b)
		net := svc.policies.Latest().Net
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(qs) == 0 {
				b.StopTimer()
				svc.policies.Publish(net, 0)
				svc.policies.Latest().Packed()
				b.StartTimer()
			}
			if _, err := svc.Plan(ctx, qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got := svc.rollouts.Load(); got < uint64(b.N) {
			b.Fatalf("%d rollouts for %d undecided Plan calls", got, b.N)
		}
	})
}

// --- sketch statistics & approximate execution benchmarks ---

// BenchmarkSketchAnalyze measures the one-pass sketch analysis of the whole
// synthetic database — per column an HLL distinct counter, a Count-Min
// frequency sketch, and a value reservoir, plus one whole-row sample per
// table. Metric: analyzed rows/sec.
func BenchmarkSketchAnalyze(b *testing.B) {
	sys := benchExecService(b).System()
	var rows float64
	for _, tab := range sys.DB.Store.Tables {
		rows += float64(tab.N)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := sketch.NewAnalyzer(sketch.Config{Seed: uint64(i + 1)})
		if st := a.Analyze(sys.DB.Store); len(st.Tables) == 0 {
			b.Fatal("empty sketch store")
		}
	}
	b.ReportMetric(rows*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// BenchmarkApproxCount compares exact and approximate execution of the same
// single-table aggregate at the default 5% error budget. The headline metric
// is exact/approx-work — the scan reduction bought by sample-and-scale
// answering (the acceptance floor is 5x; see TestExecuteApproxWorkReduction
// for the hard assertion). Wall-clock on the approx side includes the
// periodic exact audit the service runs against its own estimates, exactly
// as in production serving.
func BenchmarkApproxCount(b *testing.B) {
	// Full scale (25k-row title table), not the 0.05 bench scale: the scan
	// reduction is governed by table rows vs the fixed sample cap, and at
	// tiny scales the sample covers the whole table.
	svc, err := New(WithWorkload(4, 4, 5, 3))
	if err != nil {
		b.Fatal(err)
	}
	q := approxQuery()
	ctx := context.Background()
	exactRes, err := svc.Execute(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	approxRes, err := svc.ExecuteApprox(ctx, q, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	if approxRes.ApproxFellBack || approxRes.WorkUnits == 0 {
		b.Fatalf("approx path fell back on the bench query: %+v", approxRes)
	}
	reduction := float64(exactRes.WorkUnits) / float64(approxRes.WorkUnits)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.Execute(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(exactRes.WorkUnits), "work-units")
	})
	b.Run("approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := svc.ExecuteApprox(ctx, q, 0.05); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(approxRes.WorkUnits), "work-units")
		b.ReportMetric(reduction, "exact/approx-work")
	})
}

// BenchmarkSketchEstimatorQError sweeps the seed workload and scores both
// cardinality estimators' full-query subset estimates against the truth
// oracle. Metrics: geometric-mean q-error (max(est/true, true/est), 1.0 is
// perfect) for the sketch-backed estimator and the histogram estimator —
// the planning-quality basis behind the sketch-parity acceptance test.
func BenchmarkSketchEstimatorQError(b *testing.B) {
	sys := benchExecService(b).System()
	qs, err := sys.Workload.Training(16, 2, 5, 7)
	if err != nil {
		b.Fatal(err)
	}
	skEst := sys.SketchEstimator()
	qerr := func(est, truth float64) float64 {
		if est < 1 {
			est = 1
		}
		if r := est / truth; r >= 1 {
			return r
		}
		return truth / est
	}
	var sketchGeo, exactGeo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var logSk, logEx float64
		n := 0
		for _, q := range qs {
			aliases := make(map[string]bool, len(q.Relations))
			for _, r := range q.Relations {
				aliases[r.Alias] = true
			}
			truth := sys.Oracle.TrueSubsetCard(q, aliases)
			if truth <= 0 {
				continue
			}
			logSk += math.Log(qerr(skEst.SubsetCard(q, aliases), truth))
			logEx += math.Log(qerr(sys.Est.SubsetCard(q, aliases), truth))
			n++
		}
		sketchGeo = math.Exp(logSk / float64(n))
		exactGeo = math.Exp(logEx / float64(n))
	}
	b.ReportMetric(sketchGeo, "sketch-qerr-geomean")
	b.ReportMetric(exactGeo, "exact-qerr-geomean")
}
