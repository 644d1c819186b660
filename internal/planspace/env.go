package planspace

import (
	"context"
	"math"

	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// Outcome describes a finished episode: the plan the agent (plus optimizer
// completion) produced and its evaluation under both performance indicators.
type Outcome struct {
	Plan plan.Node
	// Cost is the traditional optimizer's cost-model value (always computed:
	// costing is free at planning time).
	Cost float64
	// LatencyMs is the execution latency the configured Executor reported
	// (simulated or observed, censored at the budget); NaN when the episode
	// was not executed (no executor attached or the reward needed none) or
	// the execution failed.
	LatencyMs float64
	// TimedOut reports that execution hit the latency budget (the paper's
	// "could not be executed in any reasonable amount of time").
	TimedOut bool
}

// RewardFunc maps an episode outcome to the terminal reward.
type RewardFunc func(Outcome) float64

// CostReward is the Phase-1/§3 reward: −log of the optimizer cost.
func CostReward(o Outcome) float64 {
	if math.IsInf(o.Cost, 1) || o.Cost <= 0 {
		return -50
	}
	return -math.Log(o.Cost)
}

// LatencyReward is the "true" reward: −log of observed latency.
func LatencyReward(o Outcome) float64 {
	if o.LatencyMs <= 0 || math.IsNaN(o.LatencyMs) || math.IsInf(o.LatencyMs, 1) {
		return -50
	}
	return -math.Log(o.LatencyMs)
}

// Executor abstracts "run this plan and observe a latency" for episode
// evaluation. Both the analytic simulator (engine.LatencyModel) and the
// real observed executor (engine.Observed) satisfy it, so a training
// environment's reward can come from simulated or genuinely executed
// latencies without the env knowing which. Implementations must be safe for
// concurrent use: environment replicas share the configured value.
type Executor interface {
	Execute(q *query.Query, n plan.Node, budgetMs float64) (latencyMs float64, timedOut bool)
}

// prepare splits an execution into what must happen now, in episode order
// (an executor with order-dependent state — engine.Observed's fault seam —
// offers Prepare for that), and the run itself, which the returned function
// performs whenever and on whatever goroutine it is called.
func prepare(x Executor, q *query.Query, n plan.Node, budgetMs float64) func() (latencyMs float64, timedOut bool) {
	if p, ok := x.(interface {
		Prepare(q *query.Query, n plan.Node, budgetMs float64) func() (float64, bool)
	}); ok {
		return p.Prepare(q, n, budgetMs)
	}
	return func() (float64, bool) { return x.Execute(q, n, budgetMs) }
}

// Config assembles an Env.
type Config struct {
	Space   *featurize.Space
	Stages  Stages
	Planner *optimizer.Planner
	// Latency is required when Reward reads LatencyMs or ExecuteAlways is
	// set; otherwise episodes are not executed.
	Latency Executor
	Queries []*query.Query
	// Reward defaults to CostReward.
	Reward RewardFunc
	// ExecuteAlways forces execution (latency measurement) of every episode
	// even under CostReward — used to count how often an agent *would* have
	// run a catastrophic plan.
	ExecuteAlways bool
	// RewardNeedsLatency declares that Reward reads Outcome.LatencyMs, so
	// every episode must be executed. CostReward leaves it false.
	RewardNeedsLatency bool
	// LatencyBudgetMs censors execution latency (0 = no budget).
	LatencyBudgetMs float64
	// Cache, when non-nil, memoizes the optimizer completions that end
	// every episode (the plan cache service). NewEnv attaches it to the
	// planner, and Replica copies inherit the attachment, so all parallel
	// collection workers share one sharded cache.
	Cache *plancache.Cache
	// ReuseStateBuffers makes the env reuse one features vector and one mask
	// across states instead of allocating fresh slices per step. Safe only
	// when the caller consumes each state before the next Step/ResetTo — the
	// serving GreedyRollout path, where states are decoded into an action and
	// dropped. Training collection retains whole trajectories until the
	// policy update and must leave this off.
	ReuseStateBuffers bool
	// DisallowCross masks join actions between forest entries no join
	// predicate connects. When no entry pair is connected, every pair stays
	// valid so episodes can always finish.
	DisallowCross bool
	// Seed derives TrainAsyncCtx's sampling seed when rl.AsyncConfig.Seed is 0.
	Seed int64
}

// phase enumerates the episode's decision phases.
type phase int

const (
	phaseAccess phase = iota
	phaseJoin
	phaseAgg
	phaseDone
)

// Env is the full plan-space MDP.
type Env struct {
	Cfg    Config
	Layout Layout

	curIdx int

	cur    *query.Query
	prep   *prepared
	chosen []int // access choice per alias index (-1 = undecided)
	forest []plan.Node
	// rels is each forest entry's relation set, one bit per position of the
	// query's sorted alias index (featurize.AliasIndex).
	rels []uint32
	ph   phase
	// preps caches prepared by query pointer (queries are immutable once
	// planned); bounded, since a serving env sees an open-ended stream.
	preps map[*query.Query]*prepared
	// memo is the per-episode skeleton-hash memo (lazily allocated, only
	// with a plan cache attached): the completion calls that end every
	// episode share it, so a skeleton costed under two aggregation
	// algorithms is hashed once and no completion allocates a map.
	memo map[plan.Node]uint64
	// scratch holds the featurization's per-query entries (alias index,
	// constant blocks, subtree cardinalities by relation set). Like preps it
	// outlives the episode: a replica keeps it across TrainAsyncCtx calls
	// (see actorReplicas), so a lifecycle computes each entry once per actor.
	scratch featurize.Scratch
	// actors are the replicas TrainAsyncCtx collects on, built on its first
	// call and reused by every later one.
	actors []*Env
	// featBuf/maskBuf are the reused state storage under
	// Cfg.ReuseStateBuffers; nil otherwise.
	featBuf []float64
	maskBuf []bool

	// Executions counts how many episodes were actually executed (latency
	// measured); TimedOutCount counts executions that hit the budget.
	Executions    int
	TimedOutCount int

	// Last is the outcome of the most recently finished episode.
	Last Outcome

	// deferEval marks a TrainAsyncCtx replica: a finished episode is left
	// unevaluated — Last without a latency, run holding the prepared
	// execution when the episode needs one, step reward 0 — and the driver
	// executes it on a free core and calls Reward in ticket order.
	deferEval bool
	run       func() (latencyMs float64, timedOut bool)
}

// NewEnv builds the environment.
func NewEnv(cfg Config) *Env {
	if cfg.Reward == nil {
		cfg.Reward = CostReward
	}
	if cfg.Cache != nil {
		// WithCache is idempotent, so replicas built from an already
		// attached config keep sharing the same planner copy and cache.
		cfg.Planner = cfg.Planner.WithCache(cfg.Cache)
	}
	return &Env{
		Cfg:    cfg,
		Layout: Layout{Space: cfg.Space, Stages: cfg.Stages},
		curIdx: -1,
	}
}

// ObsDim implements rl.Env.
func (e *Env) ObsDim() int { return e.Layout.ObsDim() }

// ActionDim implements rl.Env.
func (e *Env) ActionDim() int { return e.Layout.ActionDim() }

// Current returns the in-progress episode's query.
func (e *Env) Current() *query.Query { return e.cur }

// Reset starts an episode on the next workload query.
func (e *Env) Reset() rl.State {
	e.curIdx = (e.curIdx + 1) % len(e.Cfg.Queries)
	return e.ResetTo(e.Cfg.Queries[e.curIdx])
}

// ResetTo starts an episode on a specific query.
func (e *Env) ResetTo(q *query.Query) rl.State {
	e.cur = q
	e.prep = e.prepare(q)
	e.chosen = e.chosen[:0]
	e.forest = e.forest[:0]
	e.rels = e.rels[:0]
	for i, opt := range e.prep.opts {
		e.chosen = append(e.chosen, -1)
		e.forest = append(e.forest, opt.scans[AccessSeq])
		e.rels = append(e.rels, 1<<i)
	}
	if e.Cfg.Stages.AccessPaths {
		e.ph = phaseAccess
	} else {
		e.ph = phaseJoin
	}
	e.Last = Outcome{}
	e.run = nil
	clear(e.memo)
	return e.state()
}

// prepared is what an episode needs of its query before the first step, a
// pure function of (catalog, query): each relation's access options and each
// join predicate's relation bits, both over the sorted alias index. It is
// cached per env in preps and reused by every later episode over the query,
// as the featurization's per-query entries are in scratch. leaves is the
// query's optimizer leaf table, which the completions ending its episodes
// price each relation's access paths into once.
type prepared struct {
	opts     []accessOptions
	joinRels [][2]uint32 // see featurize.AppendJoinRels
	leaves   *optimizer.Leaves
}

// MaxRelations is the largest query an Env plans: a forest entry's relation
// set is a uint32 bitmask.
const MaxRelations = 32

// maxPrepared bounds Env.preps; a training env cycles through far fewer
// queries.
const maxPrepared = 64

// prepare returns q's prepared episode inputs, computing them on the env's
// first episode over q.
func (e *Env) prepare(q *query.Query) *prepared {
	if p, ok := e.preps[q]; ok {
		return p
	}
	aliases := featurize.AliasIndex(q)
	if len(aliases) > MaxRelations {
		panic("planspace: query exceeds MaxRelations")
	}
	p := &prepared{
		opts:     make([]accessOptions, len(aliases)),
		joinRels: featurize.AppendJoinRels(nil, q, aliases),
		leaves:   e.Cfg.Planner.NewLeaves(q),
	}
	for i, a := range aliases {
		p.opts[i] = accessOptionsFor(e.Cfg.Planner.Cat, q, a)
	}
	if e.preps == nil {
		e.preps = make(map[*query.Query]*prepared)
	} else if len(e.preps) >= maxPrepared {
		clear(e.preps)
	}
	e.preps[q] = p
	return p
}

// predsBetween returns the current query's join predicates that span the
// relation sets l and r, in q.Joins order: exactly what q.JoinsBetween
// returns for the two sets' aliases, nil when there are none.
func (e *Env) predsBetween(l, r uint32) []query.Join {
	var out []query.Join
	for k, b := range e.prep.joinRels {
		if featurize.Spans(b, l, r) {
			out = append(out, e.cur.Joins[k])
		}
	}
	return out
}

// connected reports whether a join predicate of the current query spans the
// relation sets l and r.
func (e *Env) connected(l, r uint32) bool {
	for _, b := range e.prep.joinRels {
		if featurize.Spans(b, l, r) {
			return true
		}
	}
	return false
}

// anyConnected reports whether some pair of forest entries is connected.
func (e *Env) anyConnected() bool {
	for x := range e.rels {
		for y := x + 1; y < len(e.rels); y++ {
			if e.connected(e.rels[x], e.rels[y]) {
				return true
			}
		}
	}
	return false
}

// hashMemo returns the env's per-episode skeleton-hash memo, allocating it
// on first use; without an attached plan cache skeleton hashing is never
// needed and the memo stays nil.
func (e *Env) hashMemo() map[plan.Node]uint64 {
	if e.Cfg.Planner.Cache == nil {
		return nil
	}
	if e.memo == nil {
		e.memo = make(map[plan.Node]uint64, 16)
	}
	return e.memo
}

// cursor returns the alias index whose access path is being decided.
func (e *Env) cursor() int {
	for i, c := range e.chosen {
		if c < 0 {
			return i
		}
	}
	return -1
}

func (e *Env) state() rl.State {
	n := e.Cfg.Space.MaxRels
	// One fresh vector per state (trajectories retain it) unless the caller
	// opted into buffer reuse; the join-state prefix and the
	// phase/cursor/access one-hot blocks are written directly at their
	// offsets instead of composed from temporary slices, and the scratch
	// serves everything per-query.
	var features []float64
	if e.Cfg.ReuseStateBuffers {
		if cap(e.featBuf) < e.ObsDim() {
			e.featBuf = make([]float64, e.ObsDim())
		}
		features = e.featBuf[:e.ObsDim()]
		clear(features)
	} else {
		features = make([]float64, e.ObsDim())
	}
	e.Cfg.Space.JoinStateInto(features[:e.Cfg.Space.ObsDim()], e.cur, e.forest, &e.scratch)

	phaseOff := e.Cfg.Space.ObsDim()
	cursorOff := phaseOff + 3
	accessOff := cursorOff + n
	switch e.ph {
	case phaseAccess:
		features[phaseOff] = 1
		if c := e.cursor(); c >= 0 && c < n {
			features[cursorOff+c] = 1
		}
	case phaseJoin:
		features[phaseOff+1] = 1
	case phaseAgg:
		features[phaseOff+2] = 1
	}
	for i, c := range e.chosen {
		if c >= 0 && i < n {
			features[accessOff+i*numAccessChoices+c] = 1
		}
	}

	return rl.State{
		Features: features,
		Mask:     e.mask(),
		Terminal: e.ph == phaseDone,
	}
}

func (e *Env) mask() []bool {
	var mask []bool
	if e.Cfg.ReuseStateBuffers {
		if cap(e.maskBuf) < e.ActionDim() {
			e.maskBuf = make([]bool, e.ActionDim())
		}
		mask = e.maskBuf[:e.ActionDim()]
		clear(mask)
	} else {
		mask = make([]bool, e.ActionDim())
	}
	switch e.ph {
	case phaseAccess:
		c := e.cursor()
		off := e.Layout.AccessOffset()
		for i := 0; i < numAccessChoices; i++ {
			mask[off+i] = e.prep.opts[c].valid[i]
		}
	case phaseJoin:
		nAlgo := e.Layout.JoinAlgoCount()
		connectedOnly := e.Cfg.DisallowCross && e.anyConnected()
		for x := 0; x < len(e.forest); x++ {
			for y := 0; y < len(e.forest); y++ {
				if x == y || connectedOnly && !e.connected(e.rels[x], e.rels[y]) {
					continue
				}
				for a := 0; a < nAlgo; a++ {
					mask[e.Layout.EncodeJoin(x, y, a)] = true
				}
			}
		}
	case phaseAgg:
		off := e.Layout.AggOffset()
		for i := range plan.AggAlgos {
			mask[off+i] = true
		}
	}
	return mask
}

// Step implements rl.Env.
func (e *Env) Step(action int) (rl.State, float64, bool) {
	switch e.ph {
	case phaseAccess:
		c := e.cursor()
		choice := action - e.Layout.AccessOffset()
		if choice < 0 || choice >= numAccessChoices || !e.prep.opts[c].valid[choice] {
			return e.abort()
		}
		e.chosen[c] = choice
		e.forest[c] = e.prep.opts[c].scans[choice]
		if e.cursor() < 0 {
			e.ph = phaseJoin
		}
		return e.state(), 0, false

	case phaseJoin:
		if action >= e.Layout.JoinBlockSize() {
			return e.abort()
		}
		x, y, algoIdx := e.Layout.DecodeJoin(action)
		if x >= len(e.forest) || y >= len(e.forest) || x == y {
			return e.abort()
		}
		algo := plan.NestLoop
		if e.Cfg.Stages.JoinOps {
			algo = plan.JoinAlgos[algoIdx]
		}
		// The join carries the predicates spanning its inputs, found from
		// their relation bits rather than from rebuilt alias sets; the
		// completion that ends the episode reuses them.
		joined := &plan.Join{
			Algo:  algo,
			Left:  e.forest[x],
			Right: e.forest[y],
			Preds: e.predsBetween(e.rels[x], e.rels[y]),
		}
		rels := e.rels[x] | e.rels[y]
		// Filter in place: the write index never overtakes the read index,
		// so reusing the backing arrays is safe and avoids fresh slices per
		// join step.
		next, nextRels := e.forest[:0], e.rels[:0]
		for i, node := range e.forest {
			if i != x && i != y {
				next = append(next, node)
				nextRels = append(nextRels, e.rels[i])
			}
		}
		e.forest = append(next, joined)
		e.rels = append(nextRels, rels)
		if len(e.forest) > 1 {
			return e.state(), 0, false
		}
		if e.Cfg.Stages.AggOps && (len(e.cur.Aggregates) > 0 || len(e.cur.GroupBys) > 0) {
			e.ph = phaseAgg
			return e.state(), 0, false
		}
		return e.finish(plan.HashAgg, false)

	case phaseAgg:
		idx := action - e.Layout.AggOffset()
		if idx < 0 || idx >= len(plan.AggAlgos) {
			return e.abort()
		}
		return e.finish(plan.AggAlgos[idx], true)
	default:
		return e.abort()
	}
}

// abort ends the episode on an invalid (unmasked) action with the worst
// reward; masked sampling never reaches this path.
func (e *Env) abort() (rl.State, float64, bool) {
	e.ph = phaseDone
	e.Last = Outcome{Cost: infCost, LatencyMs: math.NaN()}
	if e.deferEval {
		return rl.State{Terminal: true}, 0, true
	}
	return rl.State{Terminal: true}, e.Cfg.Reward(e.Last), true
}

// finish completes the plan (delegating undecided dimensions to the
// traditional optimizer), evaluates it, and returns the terminal reward.
func (e *Env) finish(aggAlgo plan.AggAlgo, aggChosen bool) (rl.State, float64, bool) {
	skeleton := e.forest[0]
	var final plan.Node
	var costTotal float64
	p := e.Cfg.Planner
	q := e.cur
	st := e.Cfg.Stages
	memo := e.hashMemo()
	switch {
	case aggChosen || (st.AccessPaths && st.JoinOps):
		// Fully specified up to aggregation.
		if aggChosen {
			root, nc := p.CostFixedMemo(q, skeleton, aggAlgo, memo)
			final, costTotal = root, nc.Total
		} else {
			// The optimizer picks the cheaper aggregation; the shared episode
			// memo means the skeleton is hashed once for both candidates.
			bestRoot, bestNC := p.CostFixedMemo(q, skeleton, plan.HashAgg, memo)
			if len(q.Aggregates) > 0 || len(q.GroupBys) > 0 {
				r2, nc2 := p.CostFixedMemo(q, skeleton, plan.SortAgg, memo)
				if nc2.Total < bestNC.Total {
					bestRoot, bestNC = r2, nc2
				}
			}
			final, costTotal = bestRoot, bestNC.Total
		}
	case st.AccessPaths:
		root, nc := p.CompleteOperatorsMemo(q, skeleton, memo)
		final, costTotal = root, nc.Total
	case st.JoinOps:
		root, nc := p.CompleteAccessMemo(q, skeleton, memo, e.prep.leaves)
		final, costTotal = root, nc.Total
	default:
		root, nc := p.CompletePhysicalMemo(q, skeleton, memo, e.prep.leaves)
		final, costTotal = root, nc.Total
	}

	out := Outcome{Plan: final, Cost: costTotal, LatencyMs: math.NaN()}
	execute := e.Cfg.Latency != nil && (e.Cfg.ExecuteAlways || e.Cfg.RewardNeedsLatency)
	e.ph = phaseDone
	if e.deferEval {
		if execute {
			e.run = prepare(e.Cfg.Latency, q, final, e.Cfg.LatencyBudgetMs)
		}
		e.Last = out
		return rl.State{Terminal: true}, 0, true
	}
	if execute {
		out.LatencyMs, out.TimedOut = e.Cfg.Latency.Execute(q, final, e.Cfg.LatencyBudgetMs)
		e.Executions++
		if out.TimedOut {
			e.TimedOutCount++
		}
	}
	e.Last = out
	return rl.State{Terminal: true}, e.Cfg.Reward(out), true
}

// GreedyRollout plans q by stepping the env with choose until the episode
// terminates, checking ctx before every decision: a deadline or
// cancellation cuts the rollout off mid-search and returns ctx.Err(). A
// negative action from choose (no valid action) ends the rollout early with
// whatever outcome the env holds. This is the request-scoped serving path of
// the root handsfree.Service; the env must be owned by the caller (rollouts
// are not concurrency-safe on a shared env).
func (e *Env) GreedyRollout(ctx context.Context, q *query.Query, choose func(rl.State) int) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	s := e.ResetTo(q)
	for i := 0; i < e.maxSteps() && !s.Terminal; i++ {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		act := choose(s)
		if act < 0 {
			break
		}
		next, _, done := e.Step(act)
		s = next
		if done {
			break
		}
	}
	return e.Last, nil
}

// maxSteps caps an episode's length. A finished episode takes at most
// 2·MaxRels steps (an access path per relation, the joins, an aggregation);
// the cap only guards against a choose that never ends one.
func (e *Env) maxSteps() int { return 4*e.Cfg.Space.MaxRels + 8 }

// Episode runs one training episode on the next workload query, choosing
// each action with choose, and returns its trajectory; e.Last holds the
// outcome. Every sequential trainer rolls out through it.
func (e *Env) Episode(choose func(rl.State) int) rl.Trajectory {
	return rl.RunEpisode(e, choose, e.maxSteps())
}

// CostRatio rolls every query out with choose, in order, and returns the
// geometric mean of the plan's cost over the expert plan's: expert maps a
// query's Key to that cost. A stateful choose (a seeded random policy) sees
// the queries in the order given, so a slice holding the workload k times
// averages k passes.
func (e *Env) CostRatio(queries []*query.Query, expert map[string]float64, choose func(rl.State) int) float64 {
	var logSum float64
	for _, q := range queries {
		// A background context never cuts the rollout off: the error is nil.
		out, _ := e.GreedyRollout(context.Background(), q, choose)
		logSum += math.Log(out.Cost / expert[q.Key()])
	}
	return math.Exp(logSum / float64(len(queries)))
}
