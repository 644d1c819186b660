package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"handsfree"
	"handsfree/internal/engine"
	"handsfree/internal/exechistory"
	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
	"handsfree/internal/server"
)

// Span names of the traced pass. A replayed stage is a child of the real
// call it explains.
const (
	spanPlan        = "service.plan"
	spanExecute     = "service.execute"
	spanExecutePlan = "service.execute.plan"
	spanParse       = "sqlparse.parse"
	spanFingerprint = "plancache.fingerprint"
	spanExpert      = "optimizer.expert"
	spanRatio       = "exechistory.ratio"
	spanRollout     = "planspace.rollout"
	spanInfer       = "nn.infer"
	spanComplete    = "optimizer.complete"
	spanEngine      = "engine.run"
	spanRecord      = "exechistory.record"
	spanEncode      = "server.encode"
)

// replayer re-runs the stages of a served request through the layers'
// public functions, one span each.
//
// The policy a Service publishes is private to it, so rollouts are replayed
// with a stand-in network of the served shape and a fixed seed. Its
// decisions differ from the policy's; its cost per decision (featurize, one
// packed inference, one env step, one completion in the same cache state)
// does not.
type replayer struct {
	t       *tenant
	tr      *tracer
	env     *planspace.Env
	policy  *nn.PackedNetwork
	logits  nn.Mat
	maxRels int
	// firstSight replays in the cache state a never-seen fingerprint finds:
	// the expert search and the completion run cold on the cache-less twin.
	firstSight bool
	observed   *engine.Observed
	history    *exechistory.Store
	trace      int
	workUnits  []float64
}

func newReplayer(t *tenant, tr *tracer, firstSight bool) *replayer {
	sys := t.svc.System()
	maxRels := 0
	for _, q := range t.svc.Queries() {
		maxRels = max(maxRels, len(q.Relations))
	}
	env := planspace.NewEnv(planspace.Config{
		Space:             featurize.NewSpace(maxRels, sys.Est),
		Planner:           sys.Planner,
		Reward:            planspace.CostReward,
		Cache:             sys.PlanCache,
		ReuseStateBuffers: true,
	})
	standIn := nn.NewMLP(rand.New(rand.NewSource(lifecycleSeed)), env.ObsDim(), 128, 64, env.ActionDim())
	return &replayer{
		t: t, tr: tr, env: env, policy: standIn.Pack(), maxRels: maxRels, firstSight: firstSight,
		observed: engine.NewObserved(sys.Engine),
		history:  exechistory.New(exechistory.Config{}),
	}
}

// choose is the served greedy decision: one packed inference, then the
// highest valid logit.
func (r *replayer) choose(parent int) func(rl.State) int {
	return func(st rl.State) int {
		r.tr.run(r.trace, parent, spanInfer, func() { r.policy.InferVec(st.Features, &r.logits) })
		best := -1
		for i, v := range r.logits.Data {
			if i < len(st.Mask) && st.Mask[i] && !math.IsNaN(v) && (best < 0 || v > r.logits.Data[best]) {
				best = i
			}
		}
		return best
	}
}

// skeletonOf strips a completed plan back to what a rollout hands the
// optimizer: the join order over sequential scans.
func skeletonOf(q *handsfree.Query, n plan.Node) plan.Node {
	switch n := n.(type) {
	case *plan.Agg:
		return skeletonOf(q, n.Child)
	case *plan.Join:
		return plan.JoinNodes(q, plan.NestLoop, skeletonOf(q, n.Left), skeletonOf(q, n.Right))
	case *plan.Scan:
		return plan.BuildScan(q, n.Alias, plan.SeqScan, "")
	}
	return n
}

// plan times one real Service.Plan and replays its stages.
func (r *replayer) plan(ctx context.Context, req *request) error {
	r.trace++
	var q *handsfree.Query
	var err error
	r.tr.run(r.trace, 0, spanParse, func() { q, err = handsfree.ParseSQL(req.sql) })
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := r.t.svc.Plan(ctx, q)
	end := time.Now()
	if err != nil {
		return err
	}
	r.planStages(ctx, q, r.tr.record(r.trace, 0, spanPlan, start, end))
	resp := server.PlanResponse{
		Tenant: "bench", Query: req.sql, Source: res.Source.String(), Cost: res.Cost,
		ExpertCost: res.ExpertCost, PolicyVersion: res.PolicyVersion, Phase: r.t.svc.Phase().String(),
	}
	if !math.IsNaN(res.LearnedCost) {
		resp.LearnedCost = &res.LearnedCost
	}
	r.tr.run(r.trace, 0, spanEncode, func() { _, err = json.MarshalIndent(resp, "", "  ") })
	return err
}

func (r *replayer) planStages(ctx context.Context, q *handsfree.Query, root int) {
	sys := r.t.svc.System()
	r.tr.run(r.trace, root, spanFingerprint, func() { plancache.Fingerprint(q) })
	planner := sys.Planner
	if r.firstSight {
		planner = r.t.twin
	}
	r.tr.run(r.trace, root, spanExpert, func() { _, _ = planner.PlanCtx(ctx, q) })
	r.tr.run(r.trace, root, spanRatio, func() { r.t.svc.ObservedRatio(q) })
	if len(q.Relations) > r.maxRels {
		return // beyond the policy's relation bound: expert-served, no rollout
	}
	rollout := r.tr.open() // its children finish before it does
	start := time.Now()
	out, _ := r.env.GreedyRollout(ctx, q, r.choose(rollout))
	r.tr.close(rollout, r.trace, root, spanRollout, start, time.Now())
	if out.Plan != nil {
		skeleton := skeletonOf(q, out.Plan)
		r.tr.run(r.trace, rollout, spanComplete, func() { planner.CompletePhysical(q, skeleton) })
	}
}

// execute times one real Service.Execute and replays its halves: the plan
// decision (a second real Service.Plan), the engine run of the served plan,
// and the history write and read.
func (r *replayer) execute(ctx context.Context, req *request) error {
	r.trace++
	q, err := handsfree.ParseSQL(req.sql)
	if err != nil {
		return err
	}
	var res handsfree.ExecResult
	root := r.tr.run(r.trace, 0, spanExecute, func() { res, err = r.t.svc.Execute(ctx, q) })
	if err != nil {
		return err
	}
	if res.Rows != req.rows {
		return fmt.Errorf("%s returned %d rows, reference plan returns %d", q.Name, res.Rows, req.rows)
	}
	r.tr.run(r.trace, root, spanExecutePlan, func() { _, err = r.t.svc.Plan(ctx, q) })
	if err != nil {
		return err
	}
	var w *engine.Work
	r.tr.run(r.trace, root, spanEngine, func() {
		_, w, _, _, err = r.observed.Run(q, res.Plan, handsfree.DefaultExecBudgetMs)
	})
	if err != nil {
		return err
	}
	r.workUnits = append(r.workUnits, float64(w.Total()))
	rec := exechistory.Record{Kind: exechistory.Expert, LatencyMs: res.LatencyMs, PolicyVersion: res.PolicyVersion, Source: res.Source.String()}
	if res.Source == handsfree.SourceLearned {
		rec.Kind = exechistory.Learned
	}
	r.tr.run(r.trace, root, spanRecord, func() { r.history.Record(res.Fingerprint, rec) })
	r.tr.run(r.trace, root, spanRatio, func() { r.history.Ratio(res.Fingerprint) })
	return nil
}

// window returns n requests starting at first, wrapping around.
func window(reqs []request, first, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = reqs[(first+i)%len(reqs)]
	}
	return out
}

// tracedPass produces the per-layer metrics: (a) a single-client HTTP sample
// that splits the round trip into server and service time, (b) an in-process
// sample that replays each request's stages as spans, (c) the same calls
// untraced, for the tracing overhead, and the stand-alone timings of the
// layers no request isolates. A workload of unique requests continues its
// sequence: the three samples are the tail the measured phase left unused
// (see traceReserve).
func tracedPass(ctx context.Context, cfg runConfig, t *tenant, reqs []request, m metrics, tr *tracer) error {
	n := cfg.traceSample()
	first := len(reqs) - cfg.traceReserve()
	runtime.GC()

	// (a) Over HTTP, one client.
	l := runLoad(t.client, loadSpec{url: t.ts.URL + cfg.w.endpoint, reqs: reqs, first: first, limit: n, cycle: !cfg.w.unique, clients: 1, keepExchanges: true, executes: cfg.w.executes()})
	if l.failed > 0 {
		return fmt.Errorf("HTTP sample: %d of %d failed: %v", l.failed, l.attempted, l.failures)
	}
	var overheadUs, queueUs []float64
	for _, x := range l.exchanges {
		overheadUs = append(overheadUs, (x.rttMs-x.body.serviceMs()-x.body.QueueMs)*1e3)
		queueUs = append(queueUs, x.body.QueueMs*1e3)
	}
	m["server.overhead_us"] = median(overheadUs)
	m["server.queue_wait_us"] = mean(queueUs)

	// (b) In process, traced; (c) the same, untraced.
	rp := newReplayer(t, tr, cfg.w.unique)
	if !cfg.w.unique {
		// Let the stand-in's completions reach the cache state the policy's
		// are in: warm.
		warm := newReplayer(t, newTracer(), false) // its spans are dropped
		for i := range reqs {
			if err := warm.plan(ctx, &reqs[i]); err != nil {
				return err
			}
		}
	}
	sample := window(reqs, first+n, n)
	for i := range sample {
		if err := rp.plan(ctx, &sample[i]); err != nil {
			return err
		}
	}
	var untracedNs []float64
	sample = window(reqs, first+2*n, n)
	for i := range sample {
		q, err := handsfree.ParseSQL(sample[i].sql)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := t.svc.Plan(ctx, q); err != nil {
			return err
		}
		untracedNs = append(untracedNs, float64(time.Since(start)))
	}

	// Executions, on the only queries proven safe to execute.
	execReqs := reqs
	if reqs[0].rows < 0 {
		var err error
		if execReqs, err = trainingRequests(t.svc, cfg.seed, cfg.smoke); err != nil {
			return err
		}
	}
	for i := 0; i < max(n/4, 16); i++ {
		if err := rp.execute(ctx, &execReqs[i%len(execReqs)]); err != nil {
			return err
		}
	}

	by := statsByName(tr.spans)
	planRoot := by[spanPlan]
	m["service.plan_us"] = planRoot.medianUs()
	m["trace.overhead_share"] = median(planRoot.durations)/median(untracedNs) - 1
	m["service.execute_us"] = by[spanExecute].medianUs()
	m["service.unattributed_share"] = sum(planRoot.selfs) / sum(planRoot.durations)
	m["service.expert_search_share"] = sum(by[spanExpert].durations) / sum(planRoot.durations)
	m["sqlparse.parse_us"] = by[spanParse].medianUs()
	m["plancache.fingerprint_us"] = by[spanFingerprint].medianUs()
	m["server.encode_us"] = by[spanEncode].medianUs()
	m["nn.infer_us"] = by[spanInfer].medianUs()
	m["planspace.rollout_us"] = by[spanRollout].medianUs()
	m["planspace.rollout_self_us"] = by[spanRollout].medianSelfUs()
	m["planspace.steps_per_rollout"] = 0
	if rollouts := len(by[spanRollout].durations); rollouts > 0 {
		m["planspace.steps_per_rollout"] = float64(len(by[spanInfer].durations)) / float64(rollouts)
	}
	m["engine.run_us"] = by[spanEngine].medianUs()
	m["engine.work_units_per_exec"] = mean(rp.workUnits)

	return standAlone(ctx, cfg, t, rp, m)
}

// timeEach returns the median time of one f(i), in nanoseconds, over n calls
// timed one by one.
func timeEach(n int, f func(i int)) float64 {
	ns := make([]float64, n)
	for i := range ns {
		start := time.Now()
		f(i)
		ns[i] = float64(time.Since(start))
	}
	return median(ns)
}

// timeLoop returns the mean time of one f(i), in nanoseconds, over n calls
// timed together: for calls too short to time one by one.
func timeLoop(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// standAlone times the layers that no single request isolates, each through
// its public functions on the tenant's own data.
func standAlone(ctx context.Context, cfg runConfig, t *tenant, rp *replayer, m metrics) error {
	sys := t.svc.System()
	training := t.svc.Queries()
	rounds := 16
	if cfg.smoke {
		rounds = 2
	}

	// optimizer: cold DP by relation count, a cached lookup, a cold completion.
	for rels := 4; rels <= 8; rels++ {
		qs := make([]*handsfree.Query, rounds)
		for i := range qs {
			q, err := sys.Workload.ByRelations(rels, cfg.seed*1000+int64(i))
			if err != nil {
				return err
			}
			qs[i] = q
		}
		var err error
		m[fmt.Sprintf("optimizer.plan_cold_us.r%d", rels)] = timeEach(len(qs), func(i int) {
			if _, e := t.twin.PlanCtx(ctx, qs[i]); e != nil {
				err = e
			}
		}) / 1e3
		if err != nil {
			return err
		}
	}
	var skeletons []plan.Node
	for _, q := range training {
		p, err := sys.Planner.PlanCtx(ctx, q)
		if err != nil {
			return err
		}
		skeletons = append(skeletons, skeletonOf(q, p.Root))
	}
	m["optimizer.plan_cached_us"] = timeEach(rounds*len(training), func(i int) {
		_, _ = sys.Planner.PlanCtx(ctx, training[i%len(training)])
	}) / 1e3
	m["optimizer.complete_us"] = timeEach(rounds*len(training), func(i int) {
		t.twin.CompletePhysical(training[i%len(training)], skeletons[i%len(training)])
	}) / 1e3

	// featurize: the first state of a rollout.
	space := rp.env.Cfg.Space
	var scratch featurize.Scratch
	dst := make([]float64, space.ObsDim())
	forests := make([][]plan.Node, len(training))
	for i, q := range training {
		for _, alias := range featurize.AliasIndex(q) {
			forests[i] = append(forests[i], plan.BuildScan(q, alias, plan.SeqScan, ""))
		}
	}
	m["featurize.state_us"] = timeLoop(rounds*64, func(i int) {
		scratch.Reset()
		space.JoinStateInto(dst, training[i%len(training)], forests[i%len(training)], &scratch)
	}) / 1e3

	// plancache: a hit in a cache of the served capacity, half full.
	cache := plancache.New(plancache.Config{Capacity: cacheCapacity})
	const entries = cacheCapacity / 2
	for i := 0; i < entries; i++ {
		cache.Put(plancache.Key{Query: uint64(i) * 0x9e3779b97f4a7c15, Mode: plancache.ModePlan}, plancache.Entry{Plan: skeletons[0]})
	}
	m["plancache.get_ns"] = timeLoop(rounds*4096, func(i int) {
		cache.Get(plancache.Key{Query: uint64(i%entries) * 0x9e3779b97f4a7c15, Mode: plancache.ModePlan})
	})

	// exechistory: a write and a ratio read on warm windows.
	hist := exechistory.New(exechistory.Config{})
	rec := func(i int) {
		kind := exechistory.Learned
		if i%4 == 0 {
			kind = exechistory.Expert
		}
		hist.Record(uint64(i%len(training)), exechistory.Record{Kind: kind, LatencyMs: 1 + float64(i%7), Source: "learned"})
	}
	for i := 0; i < 1024; i++ {
		rec(i)
	}
	m["exechistory.record_ns"] = timeLoop(rounds*4096, rec)
	m["exechistory.ratio_ns"] = timeLoop(rounds*4096, func(i int) { hist.Ratio(uint64(i % len(training))) })

	// nn and paramserver: one batch-16 policy update and one publish at the
	// lifecycle's network shape.
	trainEnv := planspace.NewEnv(planspace.Config{
		Space: space, Planner: sys.Planner, Queries: training, Cache: sys.PlanCache, Seed: lifecycleSeed,
	})
	agent := rl.NewReinforce(trainEnv.ObsDim(), trainEnv.ActionDim(), rl.ReinforceConfig{Seed: lifecycleSeed})
	batch := make([]rl.Trajectory, agent.Cfg.BatchSize)
	stepNs := make([]float64, rounds)
	for r := range stepNs {
		// Collecting the batch is not part of the step: the
		// lifecycle.*_eps_per_s metrics cover collection.
		for i := range batch {
			batch[i] = rl.RunEpisode(trainEnv, agent.Sample, 4*space.MaxRels+8)
		}
		for _, traj := range batch[:len(batch)-1] {
			agent.Observe(traj)
		}
		start := time.Now()
		if !agent.Observe(batch[len(batch)-1]) {
			return fmt.Errorf("a full batch of %d episodes triggered no policy update", len(batch))
		}
		stepNs[r] = float64(time.Since(start))
	}
	m["nn.train_step_us"] = median(stepNs) / 1e3

	ps := paramserver.New(nil)
	m["paramserver.publish_us"] = timeEach(rounds, func(i int) {
		ps.Publish(agent.Policy.CloneForInference(), i+1)
		cache.BumpEpoch()
	}) / 1e3

	// rl: does a second actor earn its keep? The cost-training loop the
	// lifecycle runs, at one actor and at one per core. Cost training only:
	// a multi-actor run is not repeatable, and letting an unrepeatable policy
	// execute plans is how a benchmark meets the engine's unbounded joins
	// (README, Known hazards).
	episodes := costEpisodes
	if cfg.smoke {
		episodes = 96
	}
	asyncEpisodesPerS := func(actors int) float64 {
		env := planspace.NewEnv(planspace.Config{
			Space: space, Planner: t.twin, Queries: training, Seed: lifecycleSeed,
			Cache: plancache.New(plancache.Config{Capacity: cacheCapacity}),
		})
		learner := rl.NewReinforce(env.ObsDim(), env.ActionDim(), rl.ReinforceConfig{Seed: lifecycleSeed})
		start := time.Now()
		st := planspace.TrainAsyncCtx(ctx, env, learner, episodes, rl.AsyncConfig{Actors: actors, Seed: lifecycleSeed}, nil)
		return float64(st.Episodes) / time.Since(start).Seconds()
	}
	single := asyncEpisodesPerS(1)
	m["rl.async.actors_scaling"] = asyncEpisodesPerS(runtime.NumCPU()) / single
	return nil
}
