package handsfree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"handsfree/internal/cost"
	"handsfree/internal/engine"
	"handsfree/internal/exechistory"
	"handsfree/internal/featurize"
	"handsfree/internal/nn"
	"handsfree/internal/paramserver"
	"handsfree/internal/plancache"
	"handsfree/internal/planspace"
	"handsfree/internal/rl"
)

// This file is the hands-free optimizer as a service: a concurrency-safe
// front end that always serves a plan (the traditional optimizer's until a
// learned policy exists, the learned policy's once it beats the safeguard),
// threads context.Context through every planning request, and runs the
// paper's learning state machine — observe the expert, train on cost,
// fine-tune on latency — as a background lifecycle with hot policy swaps.
//
//	svc, _ := handsfree.New(handsfree.WithScale(0.1), handsfree.WithWorkload(8, 4, 6, 3))
//	res, _ := svc.PlanSQL(ctx, "SELECT ...")     // expert plan (untrained)
//	svc.StartTraining(ctx, handsfree.LifecycleConfig{})
//	...                                           // Plan keeps serving, policy hot-swaps
//	svc.WaitTraining(ctx)
//
// See ARCHITECTURE.md, "Service lifecycle", for the state machine diagram.

// DefaultFallbackRatio is the regression-guard default: a learned plan is
// served only while its cost-model estimate stays within this multiple of
// the expert plan's.
const DefaultFallbackRatio = 1.2

// serviceOptions is the state assembled by functional options.
type serviceOptions struct {
	cfg           config
	fallbackRatio float64
	workload      *workloadSpec
	exec          ExecutionConfig
}

type workloadSpec struct {
	count, minRel, maxRel int
	seed                  int64
}

// Option configures New.
type Option func(*serviceOptions)

// WithSeed sets the database-generation seed (default 1).
func WithSeed(seed int64) Option {
	return func(o *serviceOptions) { o.cfg.Seed = seed }
}

// WithScale sets the database scale factor (default 1.0 ≈ 400k rows).
func WithScale(scale float64) Option {
	return func(o *serviceOptions) { o.cfg.Scale = scale }
}

// WithStats selects the statistics source the planning stack runs on:
// StatsExact (histograms + MCVs, the historical behavior), StatsSketch
// (HyperLogLog / Count-Min / reservoir sketches alone), or StatsAuto
// (resolve through HANDSFREE_STATS, defaulting to exact).
func WithStats(m StatsMode) Option {
	return func(o *serviceOptions) { o.cfg.Stats = m }
}

// WithCache enables and sizes the plan cache service.
func WithCache(cc CacheConfig) Option {
	return func(o *serviceOptions) { o.cfg.Cache = &cc }
}

// WithWorkload attaches a generated training workload: count queries of
// minRel–maxRel relations drawn with the given seed. The lifecycle trains on
// it by default, and Queries exposes it for serving loops.
func WithWorkload(count, minRel, maxRel int, seed int64) Option {
	return func(o *serviceOptions) {
		o.workload = &workloadSpec{count: count, minRel: minRel, maxRel: maxRel, seed: seed}
	}
}

// WithFallbackRatio configures the per-query regression guard: the learned
// plan is served only while its cost stays ≤ ratio × the expert plan's cost;
// otherwise the expert plan is served and the fallback counted. Values ≤ 0
// disable the guard (the learned plan, when one exists, is always served).
// Default DefaultFallbackRatio.
func WithFallbackRatio(ratio float64) Option {
	return func(o *serviceOptions) { o.fallbackRatio = ratio }
}

// Service is the hands-free optimizer as a long-lived, concurrency-safe
// service. Plan/PlanSQL may be called from any number of goroutines, during
// training included: policy snapshots are immutable and swapped atomically
// (versions are monotone), and the regression guard keeps every served plan
// within the configured ratio of the expert's.
type Service struct {
	sys           *System
	queries       []*Query
	fallbackRatio float64

	// statements remembers what each SQL text resolved to (see statement.go).
	statements *plancache.Statements

	// policies holds the published policy snapshots (version 0 = no learned
	// policy yet). The lifecycle's learner publishes, Plan reads lock-free.
	policies *paramserver.Server
	// serve is the current serving layout + env pool (nil before the first
	// StartTraining; swapped atomically when a lifecycle begins).
	serve atomic.Pointer[servePool]

	phase atomic.Int32

	// Execution feedback loop (see execute.go): real execution with
	// fault-injectable observed latency, the bounded per-fingerprint latency
	// history, and the drift detector over its rolling ratios. driftCh hands
	// drift events to the resident lifecycle (one pending signal, never
	// blocking the serving path).
	execCfg  ExecutionConfig
	observed *engine.Observed
	history  *exechistory.Store
	drift    *exechistory.Detector
	driftCh  chan string

	mu           sync.Mutex
	running      bool
	done         chan struct{}
	exited       chan struct{}
	stopTraining context.CancelFunc
	trainErr     error
	transitions  []PhaseChange
	progress     lifecycleProgress

	plans, learnedServed, expertServed, fallbacks atomic.Uint64
	// rollouts counts the greedy rollouts Plan actually ran (rollout's cache
	// misses); tests read it to tell a decided query from a re-decided one.
	rollouts atomic.Uint64

	executions, execFailures, execTimeouts atomic.Uint64
	latencyGuarded, driftEvents, retrains  atomic.Uint64

	// Approximate-execution counters (see ExecuteApprox): served vs
	// fell-back decisions, plus the exact-audit accuracy tallies guarded by
	// approxMu.
	approxServed, approxFallbacks atomic.Uint64
	approxMu                      sync.Mutex
	approxAudits                  uint64
	approxCompared, approxCovered uint64
	approxErrSum                  float64
}

// New assembles the synthetic substrate and wraps it in a Service.
func New(opts ...Option) (*Service, error) {
	o := serviceOptions{fallbackRatio: DefaultFallbackRatio}
	for _, opt := range opts {
		opt(&o)
	}
	sys, err := openSystem(o.cfg)
	if err != nil {
		return nil, err
	}
	o.exec.fill()
	svc := &Service{
		sys:           sys,
		fallbackRatio: o.fallbackRatio,
		statements:    plancache.NewStatements(),
		policies:      paramserver.New(nil),
		execCfg:       o.exec,
		history: exechistory.New(exechistory.Config{
			Window:     o.exec.Window,
			MinLearned: o.exec.MinLearned,
			MinExpert:  o.exec.MinExpert,
		}),
		drift: exechistory.NewDetector(exechistory.DriftConfig{
			Ratio:   o.exec.DriftRatio,
			Sustain: o.exec.DriftSustain,
		}),
		driftCh: make(chan string, 1),
	}
	svc.observed = engine.NewObserved(sys.Engine)
	if o.workload != nil {
		qs, err := sys.Workload.Training(o.workload.count, o.workload.minRel, o.workload.maxRel, o.workload.seed)
		if err != nil {
			return nil, err
		}
		svc.queries = qs
	}
	return svc, nil
}

// System exposes the underlying substrate (database, planner, engine,
// latency simulator, workload generators) for code that needs direct access.
func (s *Service) System() *System { return s.sys }

// StatsMode reports which statistics source the planner runs on: exact
// histograms (StatsExact) or one-pass sketches (StatsSketch).
func (s *Service) StatsMode() StatsMode { return s.sys.StatsSource }

// Queries returns the workload configured with WithWorkload (nil otherwise).
func (s *Service) Queries() []*Query { return s.queries }

// FallbackRatio reports the regression-guard ratio in force (≤ 0 when the
// guard is disabled).
func (s *Service) FallbackRatio() float64 { return s.fallbackRatio }

// PolicyVersion returns the version of the latest published policy snapshot
// (0 until the lifecycle publishes one). Versions are monotone: once a
// caller has observed version v, no later call observes an older version.
func (s *Service) PolicyVersion() uint64 { return s.policies.Version() }

// PlanSource says which planner produced a served plan.
type PlanSource int

const (
	// SourceExpert: the traditional optimizer's plan, served because no
	// learned policy exists (or it cannot cover the query).
	SourceExpert PlanSource = iota
	// SourceLearned: the learned policy's plan, within the safeguard bound.
	SourceLearned
	// SourceFallback: the learned policy produced a plan but it regressed
	// past FallbackRatio × the expert's cost, so the expert plan was served.
	SourceFallback
)

// String names the source.
func (p PlanSource) String() string {
	switch p {
	case SourceLearned:
		return "learned"
	case SourceFallback:
		return "fallback"
	default:
		return "expert"
	}
}

// PlanResult is one served planning decision.
type PlanResult struct {
	// Plan is the served physical plan; Cost its cost-model estimate.
	Plan PlanNode
	Cost float64
	// Source says which planner the served plan came from.
	Source PlanSource
	// PolicyVersion is the policy snapshot consulted — or, for a query the
	// policy cannot cover, the latest one published — and 0 only while no
	// learned policy exists. It never decreases from one call to the next.
	PolicyVersion uint64
	// ExpertCost is the traditional optimizer's plan cost (always computed:
	// it is both the fallback and the safeguard reference).
	ExpertCost float64
	// LearnedCost is the learned plan's cost (NaN when no learned rollout
	// ran).
	LearnedCost float64
	// Fingerprint is the query's canonical fingerprint — the key its
	// execution history (and therefore the latency guard and drift detector)
	// is tracked under.
	Fingerprint uint64
	// LatencyRatio is the fingerprint's rolling observed learned/expert
	// latency ratio at decision time (NaN until both windows hold their
	// minimum samples); Service.ObservedRatio reads the live value.
	LatencyRatio float64
	// LatencyGuarded reports that the observed-latency guard (not the cost
	// guard) forced this decision to the expert plan: the learned plan's
	// rolling observed latency had regressed past ExecutionConfig.GuardRatio
	// × the expert's on this fingerprint.
	LatencyGuarded bool

	// expertPlan is the expert's plan, kept for Execute's failure fallback
	// and expert shadow probes even when the learned plan is served.
	expertPlan PlanNode
}

// Plan serves a plan for q under a request-scoped context. The expert plan
// is always computed (it is the safeguard reference and the fallback); when
// a learned policy is published, the policy rolls out greedily — once per
// (fingerprint, policy version), remembered in the plan cache after that —
// and its plan is served only if its cost stays within FallbackRatio × the
// expert's and the fingerprint's observed latency within GuardRatio, both
// judged on every request. Deadlines and cancellation are honored
// mid-search — inside the expert's enumeration loops and between rollout
// decisions — returning ctx.Err().
func (s *Service) Plan(ctx context.Context, q *Query) (PlanResult, error) {
	if q == nil {
		return PlanResult{}, fmt.Errorf("handsfree: Plan called with a nil query")
	}
	if err := ctx.Err(); err != nil {
		return PlanResult{}, err
	}
	expert, err := s.sys.Planner.PlanCtx(ctx, q)
	if err != nil {
		return PlanResult{}, err
	}
	fp := s.sys.PlanCache.FingerprintOf(q)
	ratio, _, _ := s.history.Ratio(fp)
	res := PlanResult{
		Plan:         expert.Root,
		Cost:         expert.Cost,
		Source:       SourceExpert,
		ExpertCost:   expert.Cost,
		LearnedCost:  math.NaN(),
		Fingerprint:  fp,
		LatencyRatio: ratio,
		expertPlan:   expert.Root,
	}
	sp := s.serve.Load()
	if sp == nil || len(q.Relations) > sp.maxRels {
		// The policy cannot cover the query: an expert decision, stamped with
		// the latest published version so a caller never sees it go backwards.
		res.PolicyVersion = s.policies.Version()
		s.plans.Add(1)
		s.expertServed.Add(1)
		return res, nil
	}
	var out planspace.Outcome
	for decided := false; !decided; {
		snap := s.policies.Latest()
		res.PolicyVersion = snap.Version
		if snap.Version == 0 || snap.Net == nil ||
			snap.Net.InDim() != sp.obsDim || snap.Net.OutDim() != sp.actionDim {
			// No learned policy yet, or a stale snapshot from a lifecycle with a
			// different layout (a fresh lifecycle has begun but not published).
			s.plans.Add(1)
			s.expertServed.Add(1)
			return res, nil
		}
		var rerr error
		if out, decided, rerr = s.rollout(ctx, q, fp, sp, snap); rerr != nil {
			return PlanResult{}, rerr
		}
	}
	res.LearnedCost = out.Cost
	// Count the decision only once it is complete, next to its source
	// counter, so Plans == LearnedServed + ExpertServed + Fallbacks holds
	// even when a deadline aborts a rollout mid-episode.
	s.plans.Add(1)
	switch {
	case out.Plan == nil || math.IsInf(out.Cost, 1) ||
		(s.fallbackRatio > 0 && out.Cost > s.fallbackRatio*expert.Cost):
		res.Source = SourceFallback
		s.fallbacks.Add(1)
	case s.execCfg.GuardRatio > 0 && ratio > s.execCfg.GuardRatio:
		// The observed-latency guard: the cost model still likes the learned
		// plan, but executions of this fingerprint's learned plans have been
		// measurably slower than the expert's — serve the expert until the
		// ratio recovers (or re-training flushes the learned windows). A NaN
		// ratio (no verdict yet) never trips this branch.
		res.Source = SourceFallback
		res.LatencyGuarded = true
		s.fallbacks.Add(1)
		s.latencyGuarded.Add(1)
	default:
		res.Plan, res.Cost, res.Source = out.Plan, out.Cost, SourceLearned
		s.learnedServed.Add(1)
	}
	return res, nil
}

// rollout returns the plan and cost snap's policy reaches on q by greedy
// rollout. That is a pure function of (fingerprint, snapshot) — Plan only
// rolls a snapshot out on a layout whose dimensions match its network's, and
// the dimensions fix the layout — so it is decided once per snapshot version
// and read back from the plan cache on every later request. Only the rollout
// is memoised: the guards in Plan judge the remembered outcome against the
// live expert cost and latency history each time. A publish moves every
// lookup to a new version and the stale entries age out of the LRU; a
// rollout cut short by ctx stores nothing. Only a miss reads the weights,
// under a reference held for the rollout; when snap has been superseded and
// recycled since Plan read it, rollout reports decided false and Plan
// decides under the newer snapshot.
func (s *Service) rollout(ctx context.Context, q *Query, fp uint64, sp *servePool, snap *paramserver.Snapshot) (out planspace.Outcome, decided bool, err error) {
	cache := s.sys.PlanCache
	key := plancache.Key{Query: fp, Mode: plancache.ModeServedRollout, Epoch: snap.Version}
	if e, ok := cache.Get(key); ok {
		return planspace.Outcome{Plan: e.Plan, Cost: e.Cost.Total}, true, nil
	}
	if !snap.Acquire() {
		return planspace.Outcome{}, false, nil
	}
	s.rollouts.Add(1)
	env := sp.get()
	// Every rollout of this snapshot shares one packed form of its weights:
	// the actors' when training published it, else packed on first use.
	packed := snap.Packed()
	logits := logitsPool.Get().(*nn.Mat)
	out, err = env.GreedyRollout(ctx, q, func(st rl.State) int {
		return greedyActionPacked(packed, st, logits)
	})
	snap.Release()
	logitsPool.Put(logits)
	sp.put(env)
	if err != nil {
		return planspace.Outcome{}, true, err
	}
	cache.Put(key, plancache.Entry{Plan: out.Plan, Cost: cost.NodeCost{Total: out.Cost}})
	return out, true, nil
}

// PlanSQL parses SQL text and serves a plan for it; see Plan.
func (s *Service) PlanSQL(ctx context.Context, sql string) (PlanResult, error) {
	q, err := s.resolve(sql, false)
	if err != nil {
		return PlanResult{}, err
	}
	return s.Plan(ctx, q)
}

// ExpertPlan runs only the traditional optimizer under a request-scoped
// context — no learned policy, no safeguard.
func (s *Service) ExpertPlan(ctx context.Context, q *Query) (Planned, error) {
	return s.sys.Planner.PlanCtx(ctx, q)
}

// greedyActionPacked picks the highest-logit valid action from a policy
// snapshot's shared packed form (see paramserver.Snapshot.Packed; immutable,
// safe for concurrent use). Returns -1 when no valid action exists.
// Tie-breaking is first-max-wins over the logits, which selects the same
// action as rl.Reinforce.Greedy's first-max-wins over the softmax
// probabilities (softmax is monotone and tie-preserving), which is why the
// lifecycle's greedyRatio chooses with it too. The packed gemv
// rounds exactly like the unpacked network's single-row kernels
// (nn.TestPackedInferBitwise), so the logits are bitwise those of
// snap.Net.Forward on a clone. One pooled logits buffer serves one Plan
// call's whole rollout; concurrent Plan calls each hold their own.
func greedyActionPacked(p *nn.PackedNetwork, st rl.State, logits *nn.Mat) int {
	p.InferVec(st.Features, logits)
	return argmaxMasked(logits.Data, st.Mask)
}

func argmaxMasked(logits []float64, mask []bool) int {
	best := -1
	var bestV float64
	for i, v := range logits {
		if i >= len(mask) || !mask[i] || math.IsNaN(v) {
			continue
		}
		if best < 0 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// logitsPool recycles rollout logits buffers across Plan calls.
var logitsPool = sync.Pool{New: func() any { return &nn.Mat{} }}

// servePool is the serving-side layout and environment pool for learned
// rollouts. Envs are stateful (one rollout at a time each), so concurrent
// Plan calls each take their own from the pool.
type servePool struct {
	svc               *Service
	space             *featurize.Space
	maxRels           int
	obsDim, actionDim int
	pool              sync.Pool
}

func newServePool(svc *Service, space *featurize.Space, maxRels int) *servePool {
	layout := planspace.Layout{Space: space}
	sp := &servePool{
		svc:       svc,
		space:     space,
		maxRels:   maxRels,
		obsDim:    layout.ObsDim(),
		actionDim: layout.ActionDim(),
	}
	sp.pool.New = func() any {
		return planspace.NewEnv(planspace.Config{
			Space:   sp.space,
			Planner: sp.svc.sys.Planner,
			Reward:  planspace.CostReward,
			Cache:   sp.svc.sys.PlanCache,
			// Serving rollouts decode each state into an action and drop it,
			// so the pooled envs can reuse their feature/mask buffers.
			ReuseStateBuffers: true,
		})
	}
	return sp
}

func (sp *servePool) get() *planspace.Env  { return sp.pool.Get().(*planspace.Env) }
func (sp *servePool) put(e *planspace.Env) { sp.pool.Put(e) }

// LifecyclePhase is a state of the learning state machine.
type LifecyclePhase int32

const (
	// PhaseIdle: no lifecycle has run.
	PhaseIdle LifecyclePhase = iota
	// PhaseDemonstration: observing the expert (§5.1 steps 1–2): the expert
	// plans every workload query, the plan is executed and recorded as the
	// fingerprint's expert baseline, and its trajectory is handed to the
	// policy learner.
	PhaseDemonstration
	// PhaseCostTraining: the §5.2 "training wheels" phase — asynchronous
	// actor-learner training against the cost model, exploration safe
	// because bad plans are costed, never executed.
	PhaseCostTraining
	// PhaseLatencyTuning: the reward switches to the latency the engine
	// observes running each training plan (§5.2 Phase 2) and training
	// continues asynchronously.
	PhaseLatencyTuning
	// PhaseDone: the lifecycle completed its budgets. With
	// LifecycleConfig.DriftRetrain the lifecycle stays resident here,
	// watching for drift events from the execution feedback loop.
	PhaseDone
	// PhaseStopped: the lifecycle's context was cancelled mid-run.
	PhaseStopped
	// PhaseDriftRetraining: the drift detector observed a served learned
	// plan's latency sustainedly regressing against the expert baseline, so
	// the lifecycle flushed the stale learned history and re-entered
	// cost-then-latency training. Serving continues throughout (the latency
	// guard holds regressed fingerprints on the expert plan meanwhile), and
	// the retrained policy hot-swaps in on the way back to PhaseDone.
	PhaseDriftRetraining
)

// String names the phase.
func (p LifecyclePhase) String() string {
	switch p {
	case PhaseDemonstration:
		return "demonstration"
	case PhaseCostTraining:
		return "cost-training"
	case PhaseLatencyTuning:
		return "latency-tuning"
	case PhaseDone:
		return "done"
	case PhaseStopped:
		return "stopped"
	case PhaseDriftRetraining:
		return "drift-retraining"
	default:
		return "idle"
	}
}

// PhaseChange records one state-machine transition, why it fired and when:
// the difference between two transitions' At is how long the phase between
// them ran.
type PhaseChange struct {
	From, To LifecyclePhase
	Reason   string
	At       time.Time
}

// LifecycleConfig budgets the learning state machine. The zero value is
// usable when the service has a workload (WithWorkload): every knob has a
// default sized for a quick run; scale the budgets up for real training.
//
// The learned policy orders joins and the traditional optimizer completes
// the rest (the paper's §3 setup, planspace.Stages{}). The learner is
// rl.Reinforce at its defaults (learning rate 1e-3, 16 episodes per
// update), actors lag the learner by at most rl.AsyncConfig's default of 4
// versions, and training censors engine runs at DefaultExecBudgetMs, as
// Execute does.
type LifecycleConfig struct {
	// Queries is the training workload (default: the service workload).
	Queries []*Query
	// Hidden and Seed configure the learner (defaults: 128/64, 1).
	Hidden []int
	Seed   int64

	// DemoSweeps is how many times the expert's demonstrated trajectories
	// are handed to the policy learner, which updates per 16 of them
	// (default 2).
	DemoSweeps int

	// CostEpisodes budgets the CostTraining phase (default 192); every
	// EvalEvery episodes (default 64) the greedy policy's geometric-mean cost
	// ratio versus the expert is evaluated into LifecycleStats.CostRatio.
	CostEpisodes int
	EvalEvery    int

	// LatencyEpisodes budgets the LatencyTuning phase (default 96).
	LatencyEpisodes int

	// Actors is the actor count of the asynchronous actor-learner split
	// used by the training phases (default GOMAXPROCS).
	Actors int

	// DriftRetrain keeps the lifecycle resident after PhaseDone, watching
	// the execution feedback loop: when the drift detector trips on a served
	// fingerprint, the lifecycle transitions to PhaseDriftRetraining, flushes
	// the stale learned latency history, and re-runs CostTraining +
	// LatencyTuning on the same budgets before returning to PhaseDone
	// (default off — without it the lifecycle goroutine exits at PhaseDone).
	DriftRetrain bool
}

func (c *LifecycleConfig) fill(s *Service) {
	if len(c.Queries) == 0 {
		c.Queries = s.queries
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DemoSweeps == 0 {
		c.DemoSweeps = 2
	}
	if c.CostEpisodes == 0 {
		c.CostEpisodes = 192
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 64
	}
	if c.LatencyEpisodes == 0 {
		c.LatencyEpisodes = 96
	}
}

// lifecycleProgress is the mutable half of LifecycleStats (mu-guarded).
type lifecycleProgress struct {
	demos           int
	costEpisodes    int
	latencyEpisodes int
	costRatio       float64
}

// LifecycleStats is a point-in-time snapshot of the learning state machine
// and the serving counters.
type LifecycleStats struct {
	// Phase is the current state.
	Phase LifecyclePhase
	// Transitions is the ordered transition history with reasons.
	Transitions []PhaseChange
	// Demonstrations counts the workload queries the expert demonstrated.
	Demonstrations int
	// CostEpisodes / LatencyEpisodes count consumed training episodes;
	// CostRatio is the last evaluated greedy-vs-expert geometric-mean cost
	// ratio.
	CostEpisodes    int
	LatencyEpisodes int
	CostRatio       float64
	// PolicyVersion is the latest published snapshot version.
	PolicyVersion uint64
	// Plans counts Plan/PlanSQL decisions; LearnedServed, ExpertServed,
	// and Fallbacks split them by source. Fallbacks > 0 means the
	// regression guard fired — hands-free is not hands-over-eyes.
	Plans, LearnedServed, ExpertServed, Fallbacks uint64
}

// Phase returns the lifecycle's current state.
func (s *Service) Phase() LifecyclePhase { return LifecyclePhase(s.phase.Load()) }

// TrainingActive reports whether a lifecycle goroutine is running.
func (s *Service) TrainingActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// LifecycleStats snapshots the state machine and serving counters.
func (s *Service) LifecycleStats() LifecycleStats {
	s.mu.Lock()
	trans := append([]PhaseChange(nil), s.transitions...)
	prog := s.progress
	s.mu.Unlock()
	return LifecycleStats{
		Phase:           s.Phase(),
		Transitions:     trans,
		Demonstrations:  prog.demos,
		CostEpisodes:    prog.costEpisodes,
		LatencyEpisodes: prog.latencyEpisodes,
		CostRatio:       prog.costRatio,
		PolicyVersion:   s.policies.Version(),
		Plans:           s.plans.Load(),
		LearnedServed:   s.learnedServed.Load(),
		ExpertServed:    s.expertServed.Load(),
		Fallbacks:       s.fallbacks.Load(),
	}
}

// StartTraining launches the learning state machine as a background
// goroutine: Demonstration → CostTraining → LatencyTuning → Done, with the
// budgets in LifecycleConfig and a policy snapshot published
// (hot swap) on every learner update. Serving
// continues throughout. Cancelling ctx stops the lifecycle at the next
// episode boundary (phase becomes PhaseStopped and WaitTraining returns the
// context error). Errors if a lifecycle is already running, no workload is
// configured, or a training query has more than planspace.MaxRelations
// relations.
func (s *Service) StartTraining(ctx context.Context, cfg LifecycleConfig) error {
	cfg.fill(s)
	if len(cfg.Queries) == 0 {
		return fmt.Errorf("handsfree: no training workload: set LifecycleConfig.Queries or configure WithWorkload")
	}
	for _, q := range cfg.Queries {
		if len(q.Relations) > planspace.MaxRelations {
			return fmt.Errorf("handsfree: training query %s has %d relations; the learned planner takes at most %d", q.Name, len(q.Relations), planspace.MaxRelations)
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		cancel()
		return fmt.Errorf("handsfree: a training lifecycle is already running")
	}
	s.running = true
	s.done = make(chan struct{})
	s.exited = make(chan struct{})
	s.stopTraining = cancel
	s.trainErr = nil
	s.mu.Unlock()

	// Install the serving layout before anything can be published, so Plan
	// rollouts always agree with the snapshots' dimensions.
	maxRels := 0
	for _, q := range cfg.Queries {
		if len(q.Relations) > maxRels {
			maxRels = len(q.Relations)
		}
	}
	sp := newServePool(s, featurize.NewSpace(maxRels, s.sys.cardEstimator()), maxRels)
	s.serve.Store(sp)

	done, exited := s.done, s.exited
	// trained fires at the first PhaseDone, releasing WaitTraining; with
	// DriftRetrain the goroutine then stays resident, so exited (the
	// StopTraining barrier) closes separately at goroutine exit.
	var once sync.Once
	trained := func() { once.Do(func() { close(done) }) }
	go func() {
		defer cancel()
		err := s.runLifecycle(ctx, cfg, sp, trained)
		s.mu.Lock()
		s.trainErr = err
		s.running = false
		s.mu.Unlock()
		trained()
		close(exited)
	}()
	return nil
}

// StopTraining cancels the running lifecycle, if any, and waits for its
// goroutine to exit (the phase becomes PhaseStopped and the lifecycle error
// is context.Canceled, which StopTraining swallows as the expected clean
// stop). In-flight Plan calls are unaffected: they run under their own
// request contexts. Returns nil when no lifecycle is running; returns
// ctx.Err() if ctx expires before the lifecycle goroutine exits. It is the
// drain hook for network front ends shutting down mid-training.
func (s *Service) StopTraining(ctx context.Context) error {
	s.mu.Lock()
	cancel := s.stopTraining
	exited := s.exited
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if exited == nil {
		return nil
	}
	select {
	case <-exited:
		s.mu.Lock()
		defer s.mu.Unlock()
		if errors.Is(s.trainErr, context.Canceled) && ctx.Err() == nil {
			return nil
		}
		return s.trainErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CacheStats snapshots the plan cache counters (zeros when the cache is
// disabled) and the statement table's. It is the stats hook behind a front
// end's /cache endpoint.
func (s *Service) CacheStats() PlanCacheStats {
	st := s.sys.CacheStats()
	st.Statements = s.statements.Stats()
	return st
}

// WaitTraining blocks until the running lifecycle first reaches PhaseDone
// (returning nil) or stops with an error, or until ctx expires (returning
// ctx.Err()). Under LifecycleConfig.DriftRetrain the lifecycle goroutine
// stays resident after PhaseDone to watch for drift; WaitTraining still
// returns at the first PhaseDone — use StopTraining to retire the resident
// watcher. Returns nil immediately if no lifecycle was ever started.
func (s *Service) WaitTraining(ctx context.Context) error {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.trainErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// transition moves the state machine and records why.
func (s *Service) transition(to LifecyclePhase, reason string) {
	from := LifecyclePhase(s.phase.Swap(int32(to)))
	s.mu.Lock()
	s.transitions = append(s.transitions, PhaseChange{From: from, To: to, Reason: reason, At: time.Now()})
	s.mu.Unlock()
}

func (s *Service) setProgress(f func(p *lifecycleProgress)) {
	s.mu.Lock()
	f(&s.progress)
	s.mu.Unlock()
}

// publish makes a copy of the learner's current policy the served snapshot
// (hot swap). Served rollouts are cached under their snapshot's version, so
// the new version's decisions never meet an older one's. It is for the
// points between training calls; inside one, every update publishes to the
// same server through rl.TrainAsyncCtx.
func (s *Service) publish(learner *rl.Reinforce) {
	s.policies.Publish(learner.Policy, learner.Updates)
}

// stopped marks a context-cancelled lifecycle.
func (s *Service) stopped(err error) error {
	s.transition(PhaseStopped, fmt.Sprintf("lifecycle stopped: %v", err))
	return err
}

// nextPhase is the learning state machine's one edge table: the phase that
// follows each phase once its work ends, walked by the first round and by
// every drift re-entry alike. A cancelled context sends any running phase to
// PhaseStopped instead; StartTraining leaves PhaseIdle, PhaseDone or
// PhaseStopped for PhaseDemonstration.
var nextPhase = map[LifecyclePhase]LifecyclePhase{
	PhaseIdle:            PhaseDemonstration,
	PhaseDemonstration:   PhaseCostTraining,
	PhaseCostTraining:    PhaseLatencyTuning,
	PhaseLatencyTuning:   PhaseDone,
	PhaseDone:            PhaseDriftRetraining,
	PhaseDriftRetraining: PhaseCostTraining,
}

// runLifecycle is the learning state machine (one background goroutine) over
// the serving layout sp: it walks nextPhase, running each phase's work, until
// a phase fails or ends the lifecycle. trained fires at the first PhaseDone.
func (s *Service) runLifecycle(ctx context.Context, cfg LifecycleConfig, sp *servePool, trained func()) error {
	// The cost→latency learner. REINFORCE's defaults (Adam, a
	// batch-standardized baseline, clipping) are scale-free, so the reward
	// switches between cost and latency with no rescaling and no learner
	// surgery: §5.2's reward-range hazard does not apply. Latency rewards
	// come from the same observed executor serving does, but exploratory
	// rollouts are NOT recorded per fingerprint: only served decisions and
	// expert baselines may move the guard and drift ratios.
	trainEnv := planspace.NewEnv(planspace.Config{
		Space:           sp.space,
		Planner:         s.sys.Planner,
		Latency:         s.observed,
		Queries:         cfg.Queries,
		Reward:          lifecycleCostReward,
		LatencyBudgetMs: DefaultExecBudgetMs,
		Cache:           s.sys.PlanCache,
		Seed:            cfg.Seed + 1,
	})
	learner := rl.NewReinforce(trainEnv.ObsDim(), trainEnv.ActionDim(), rl.ReinforceConfig{
		Hidden: cfg.Hidden,
		Seed:   cfg.Seed,
	})
	// Every update is served at once: training publishes into the service's
	// own parameter server, so serving reads the very snapshot — and the
	// very pack — the actors train against. A publish copies the policy into
	// recycled buffers. Each training call runs on the next actor seed.
	async := rl.AsyncConfig{
		Actors: cfg.Actors,
		Seed:   cfg.Seed + 100,
		Server: s.policies,
	}
	train := func(episodes int) int {
		async.Seed++
		return planspace.TrainAsyncCtx(ctx, trainEnv, learner, episodes, async, nil).Episodes
	}
	var expert []float64 // each query's expert plan cost: greedyRatio's baseline
	reentry := false     // the round in progress is a drift re-entry

	// Each running phase's work returns the reason the phase ends (the next
	// transition's), or "" when the lifecycle ends there, or ctx's error.
	work := map[LifecyclePhase]func() (string, error){
		// Demonstration (§5.1 steps 1–2): each expert plan is replayed
		// through the env, in query order since each execution consults the
		// fault seam. The replay executes for real and is recorded as the
		// expert baseline, so the execution feedback loop starts warm for
		// every workload fingerprint. The plan's cost is the greedy ratio's
		// baseline for the whole lifecycle: the expert plans from the query
		// and the catalog statistics alone, which nothing changes.
		PhaseDemonstration: func() (string, error) {
			demoEnv := planspace.NewEnv(planspace.Config{
				Space:           sp.space,
				Planner:         s.sys.Planner,
				Latency:         recordingExecutor{svc: s},
				Queries:         cfg.Queries,
				ExecuteAlways:   true,
				LatencyBudgetMs: DefaultExecBudgetMs,
				Cache:           s.sys.PlanCache,
			})
			demos := make([]rl.Trajectory, 0, len(cfg.Queries))
			for _, q := range cfg.Queries {
				planned, err := demoEnv.Cfg.Planner.PlanCtx(ctx, q)
				if err != nil {
					return "", err
				}
				traj, _, err := demoEnv.Replay(q, planned.Root)
				if err != nil {
					return "", err
				}
				demos = append(demos, traj)
				expert = append(expert, planned.Cost)
			}
			s.setProgress(func(p *lifecycleProgress) { p.demos = len(demos) })
			// Prime the learner on the demonstrated trajectories (their
			// rewards are the same −log(cost) the cost phase trains on). It
			// updates only on a full batch: below 16 trajectories
			// (2 × 6 < 16 for the benchmark's workload) v1 is the initial
			// policy and the demonstrations enter the first cost-phase update.
			for sweep := 0; sweep < cfg.DemoSweeps; sweep++ {
				if err := ctx.Err(); err != nil {
					return "", err
				}
				for _, traj := range demos {
					learner.Observe(traj)
				}
			}
			s.publish(learner)
			return fmt.Sprintf(
				"every workload query demonstrated (%d); policy v%d published after %d learner updates, %d expert trajectories pending",
				len(demos), s.policies.Version(), learner.Updates, learner.Pending()), nil
		},
		// CostTraining (§5.2 Phase 1): train on the cost model until the
		// budget is spent, evaluating the greedy cost ratio every chunk.
		PhaseCostTraining: func() (string, error) {
			trainEnv.Cfg.Reward, trainEnv.Cfg.RewardNeedsLatency = lifecycleCostReward, false
			for remaining := cfg.CostEpisodes; remaining > 0; {
				if err := ctx.Err(); err != nil {
					return "", err
				}
				chunk := min(cfg.EvalEvery, remaining)
				n := train(chunk)
				remaining -= chunk
				s.setProgress(func(p *lifecycleProgress) { p.costEpisodes += n })
				if err := ctx.Err(); err != nil {
					return "", err
				}
				// Every update published, so the latest snapshot is the
				// learner's policy; its pack is the one the actors built.
				snap := s.policies.Acquire()
				ratio := greedyRatio(sp, snap.Packed(), cfg.Queries, expert)
				snap.Release()
				s.setProgress(func(p *lifecycleProgress) { p.costRatio = ratio })
			}
			s.publish(learner)
			return fmt.Sprintf("cost budget exhausted (%d episodes)", cfg.CostEpisodes), nil
		},
		// LatencyTuning (§5.2 Phase 2): train on the latency the engine
		// observes running each training plan; a re-entry's ending counts
		// one more completed re-training round.
		PhaseLatencyTuning: func() (string, error) {
			trainEnv.Cfg.Reward, trainEnv.Cfg.RewardNeedsLatency = lifecycleLatencyReward, true
			n := train(cfg.LatencyEpisodes)
			s.setProgress(func(p *lifecycleProgress) { p.latencyEpisodes += n })
			if err := ctx.Err(); err != nil {
				return "", err
			}
			s.publish(learner)
			if reentry {
				return fmt.Sprintf("drift re-training round %d complete", s.retrains.Add(1)), nil
			}
			return fmt.Sprintf("latency budget exhausted (%d episodes)", cfg.LatencyEpisodes), nil
		},
		// Done: a drift signal still pending indicts a replaced policy (an
		// earlier round's or an earlier lifecycle's) and is dropped, the
		// parameter server's free list is trimmed, and WaitTraining is
		// released. With DriftRetrain the lifecycle stays resident, waiting
		// on the execution feedback loop.
		PhaseDone: func() (string, error) {
			select {
			case <-s.driftCh:
			default:
			}
			// Nothing publishes until a drift round or the next lifecycle:
			// the recycled snapshot buffers go to the garbage collector.
			s.policies.Trim()
			trained()
			if !cfg.DriftRetrain {
				return "", nil
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case reason := <-s.driftCh:
				return reason, nil
			}
		},
		// DriftRetraining: the stale learned latency history is flushed
		// (expert baselines survive — the regressed policy's observations
		// must not be held against its successor) and the detector resets;
		// the round then re-runs on the same budgets, hot-swapping policies
		// the whole way.
		PhaseDriftRetraining: func() (string, error) {
			s.history.FlushLearned()
			s.drift.Reset()
			reentry = true
			return "drift re-training: reward back on the cost model", nil
		},
	}
	for phase, reason := nextPhase[PhaseIdle], "lifecycle started: observe the expert"; reason != ""; phase = nextPhase[phase] {
		s.transition(phase, reason)
		var err error
		if reason, err = work[phase](); err != nil {
			return s.stopped(err)
		}
	}
	return nil
}

// lifecycleCostReward is the CostTraining reward: −log of the plan's
// cost-model value, −1e6 when the plan has no finite positive cost.
func lifecycleCostReward(o planspace.Outcome) float64 {
	if math.IsInf(o.Cost, 1) || o.Cost <= 0 {
		return -1e6
	}
	return -math.Log(o.Cost)
}

// lifecycleLatencyReward is the LatencyTuning reward: −log of the observed
// latency (a censored run reports the budget), −1e6 when the run failed
// (NaN) or reported no positive latency.
func lifecycleLatencyReward(o planspace.Outcome) float64 {
	if o.LatencyMs <= 0 || math.IsNaN(o.LatencyMs) {
		return -1e6
	}
	return -math.Log(o.LatencyMs)
}

// greedyRatio is CostTraining's progress measurement (LifecycleStats'
// CostRatio): the geometric mean over queries of (greedy plan cost under the
// packed policy) / expert[i], skipping queries whose rollout ends without a
// plan (+Inf when all do). The rollouts fan out over the cores, each worker
// on its own env from sp, choosing as serving does — greedyActionPacked picks
// what rl.Reinforce.Greedy picks — and the logs are summed in query order, so
// the result is that of one sequential loop. The lifecycle passes the latest
// snapshot's pack, holding a reference for the call.
func greedyRatio(sp *servePool, packed *nn.PackedNetwork, queries []*Query, expert []float64) float64 {
	logs := make([]float64, len(queries))
	planned := make([]bool, len(queries))
	workers := min(runtime.GOMAXPROCS(0), len(queries))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, logits := sp.get(), &nn.Mat{}
			defer sp.put(env)
			greedy := func(st rl.State) int { return greedyActionPacked(packed, st, logits) }
			for i := w; i < len(queries); i += workers {
				out, err := env.GreedyRollout(context.Background(), queries[i], greedy)
				if err == nil && out.Plan != nil {
					logs[i], planned[i] = math.Log(out.Cost/expert[i]), true
				}
			}
		}()
	}
	wg.Wait()
	var logSum float64
	n := 0
	for i, ok := range planned {
		if ok {
			logSum += logs[i]
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(logSum / float64(n))
}
