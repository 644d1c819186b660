// Package rejoin implements the paper's §3 case study: ReJOIN, a deep
// reinforcement learning join order enumerator. Episodes build a join tree
// bottom-up over a query's relations; the terminal reward is derived from
// the traditional optimizer's cost model applied to the completed physical
// plan (the optimizer performs operator and access-path selection on the
// learned join order, exactly as in the paper).
//
// Episode collection — the training hot path — can attach a plancache.Cache
// (Env.UseCache): the per-episode optimizer completion is then memoized
// across episodes, and GreedyPlan memoizes whole learned plans keyed by the
// policy version so repeated evaluations of an unchanged policy skip both
// the network passes and the completion.
package rejoin

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"

	"handsfree/internal/cost"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/rl"
)

// RewardKind selects the terminal reward transform.
type RewardKind int

const (
	// RewardNegLogCost uses −log(cost): smooth over the many orders of
	// magnitude that plan costs span (the package default).
	RewardNegLogCost RewardKind = iota
	// RewardReciprocal uses 1/cost, the exact form in the paper (§3).
	RewardReciprocal
)

// Env is the ReJOIN Markov decision process. Each Reset serves the next
// query of the workload (an episode per query, queries cycling continuously,
// as the paper describes). Actions pick ordered subtree pairs to join; the
// episode terminates when one tree remains.
type Env struct {
	Space   *featurize.Space
	Planner *optimizer.Planner
	Queries []*query.Query
	// Reward selects the terminal reward transform.
	Reward RewardKind
	// DisallowCross masks join actions between disconnected subtrees.
	DisallowCross bool

	rng    *rand.Rand
	seed   int64
	curIdx int
	cur    *query.Query
	forest []plan.Node
	// scratch carries the reusable featurization state (alias index,
	// selectivities, subtree cardinalities); Reset per episode.
	scratch featurize.Scratch
	// memo is the per-episode skeleton-hash memo (allocated lazily, only
	// when a plan cache is attached): the terminal completion reuses it so
	// each episode hashes each skeleton node once and allocates no map.
	memo map[plan.Node]uint64

	// LastPlan and LastCost describe the most recently completed episode.
	LastPlan plan.Node
	LastCost float64
}

// NewEnv builds the ReJOIN environment over a workload.
func NewEnv(space *featurize.Space, planner *optimizer.Planner, queries []*query.Query, seed int64) *Env {
	return &Env{
		Space:   space,
		Planner: planner,
		Queries: queries,
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		curIdx:  -1,
	}
}

// UseCache attaches a plan cache to the environment's planner (a shallow
// planner copy; other users of the original planner are unaffected).
// Replicas built afterwards inherit the attachment, so parallel collection
// workers share one sharded cache. Returns e for chaining.
func (e *Env) UseCache(c *plancache.Cache) *Env {
	e.Planner = e.Planner.WithCache(c)
	return e
}

// Replica returns an independent copy of the environment for parallel
// episode collection: its own RNG stream (derived from the worker index)
// and an episode cursor staggered so that `workers` replicas sweep the
// workload with minimal overlap. The planner (with any attached plan
// cache), featurization space, and query set are shared — the first two
// are read-only during planning and the cache is concurrency-safe.
func (e *Env) Replica(worker, workers int) *Env {
	r := NewEnv(e.Space, e.Planner, e.Queries, e.seed+1000*int64(worker+1))
	r.Reward = e.Reward
	r.DisallowCross = e.DisallowCross
	if workers > 0 {
		r.curIdx = (worker*len(e.Queries))/workers - 1
	}
	return r
}

// Current returns the query served by the episode in progress.
func (e *Env) Current() *query.Query { return e.cur }

// ObsDim implements rl.Env.
func (e *Env) ObsDim() int { return e.Space.ObsDim() }

// ActionDim implements rl.Env.
func (e *Env) ActionDim() int { return e.Space.ActionDim() }

// Reset starts an episode on the next workload query.
func (e *Env) Reset() rl.State {
	e.curIdx = (e.curIdx + 1) % len(e.Queries)
	return e.ResetTo(e.Queries[e.curIdx])
}

// ResetTo starts an episode on a specific query.
func (e *Env) ResetTo(q *query.Query) rl.State {
	e.cur = q
	e.forest = e.forest[:0]
	for _, a := range featurize.AliasIndex(q) {
		e.forest = append(e.forest, plan.BuildScan(q, a, plan.SeqScan, ""))
	}
	e.LastPlan = nil
	e.LastCost = 0
	clear(e.memo)
	e.scratch.Reset()
	return e.state()
}

// hashMemo returns the env's per-episode skeleton-hash memo, allocating it
// on first use; without an attached plan cache skeleton hashing is never
// needed and the memo stays nil.
func (e *Env) hashMemo() map[plan.Node]uint64 {
	if e.Planner.Cache == nil {
		return nil
	}
	if e.memo == nil {
		e.memo = make(map[plan.Node]uint64, 16)
	}
	return e.memo
}

func (e *Env) state() rl.State {
	var mask []bool
	if e.DisallowCross {
		mask = e.Space.ConnectedPairMaskScratch(e.cur, e.forest, &e.scratch)
	} else {
		mask = e.Space.PairMask(len(e.forest))
	}
	// The feature vector is freshly allocated (trajectories retain it); the
	// scratch eliminates every other per-state allocation of the encoding.
	features := e.Space.JoinStateInto(make([]float64, e.Space.ObsDim()), e.cur, e.forest, &e.scratch)
	return rl.State{
		Features: features,
		Mask:     mask,
		Terminal: len(e.forest) <= 1,
	}
}

// Step joins the (x, y) subtrees addressed by the action. Non-terminal
// rewards are zero; the terminal reward reflects the optimizer cost of the
// completed physical plan (§3: operator/index selection is delegated to the
// traditional optimizer).
func (e *Env) Step(action int) (rl.State, float64, bool) {
	x, y := e.Space.DecodeAction(action)
	if x >= len(e.forest) || y >= len(e.forest) || x == y {
		// Invalid action (should be masked): end the episode with the worst
		// possible signal rather than panicking mid-training.
		return rl.State{Terminal: true}, e.terminalReward(math.Inf(1)), true
	}
	joined := plan.JoinNodes(e.cur, plan.NestLoop, e.forest[x], e.forest[y])
	var next []plan.Node
	for i, n := range e.forest {
		if i != x && i != y {
			next = append(next, n)
		}
	}
	e.forest = append(next, joined)

	if len(e.forest) > 1 {
		return e.state(), 0, false
	}
	completed, nc := e.Planner.CompletePhysicalMemo(e.cur, e.forest[0], e.hashMemo())
	e.LastPlan = completed
	e.LastCost = nc.Total
	return e.state(), e.terminalReward(nc.Total), true
}

func (e *Env) terminalReward(cost float64) float64 {
	switch e.Reward {
	case RewardReciprocal:
		if math.IsInf(cost, 1) {
			return 0
		}
		return 1 / cost
	default:
		if math.IsInf(cost, 1) {
			return -50
		}
		return -math.Log(cost)
	}
}

// agentNonce hands every Agent (and every Load-restored policy) a distinct
// identity for plan-cache keys, so agents sharing one cache can never serve
// each other's memoized greedy plans.
var agentNonce atomic.Uint64

// Agent couples the environment with a REINFORCE policy.
type Agent struct {
	Env *Env
	RL  *rl.Reinforce

	// snapSeed persists the actor seed counter across TrainAsync calls so
	// successive calls never replay an earlier call's action-sampling RNG
	// streams.
	snapSeed int64
	// cacheID is this agent's identity in greedy-plan cache keys; redrawn
	// by Load because a restored policy is a different policy.
	cacheID uint64
}

// NewAgent builds a ReJOIN agent with the given policy configuration.
func NewAgent(env *Env, cfg rl.ReinforceConfig) *Agent {
	return &Agent{
		Env:      env,
		RL:       rl.NewReinforce(env.ObsDim(), env.ActionDim(), cfg),
		snapSeed: cfg.Seed,
		cacheID:  agentNonce.Add(1),
	}
}

// EpisodeResult reports one training or evaluation episode.
type EpisodeResult struct {
	Query *query.Query
	// Cost is the optimizer cost of the plan the agent produced.
	Cost float64
	// Plan is the completed physical plan.
	Plan plan.Node
}

// TrainEpisode runs one sampled episode on the next workload query and
// feeds it to the learner.
func (a *Agent) TrainEpisode() EpisodeResult {
	traj := rl.RunEpisode(a.Env, a.RL.Sample, 2*a.Env.Space.MaxRels+4)
	a.RL.Observe(traj)
	return EpisodeResult{Query: a.Env.Current(), Cost: a.Env.LastCost, Plan: a.Env.LastPlan}
}

// TrainEpisodes runs `episodes` sequential training episodes and returns
// their results in order. TrainAsync is the parallel schedule.
func (a *Agent) TrainEpisodes(episodes int) []EpisodeResult {
	results := make([]EpisodeResult, 0, episodes)
	for i := 0; i < episodes; i++ {
		results = append(results, a.TrainEpisode())
	}
	return results
}

// Save serializes the trained policy for later reuse (gob encoding).
func (a *Agent) Save() ([]byte, error) {
	return a.RL.MarshalPolicy()
}

// Load restores a policy saved with Save. The checkpoint must have been
// produced by an agent over the same featurization space. The agent's
// plan-cache identity is redrawn: greedy plans memoized for the previous
// weights must not be served for the restored ones.
func (a *Agent) Load(data []byte) error {
	if err := a.RL.UnmarshalPolicy(data); err != nil {
		return err
	}
	a.cacheID = agentNonce.Add(1)
	return nil
}

// greedyKey keys a whole learned plan for q under the current policy
// version of this specific agent. The Skeleton slot (unused for whole-query
// entries) carries the agent's cache identity, so agents sharing a cache
// keep disjoint entries; the epoch folds together the shared cache epoch
// (bumped whenever fresh policy snapshots are taken; low 32 bits) and the
// agent's own update counter (high 32 bits) in disjoint bit ranges, so a
// plan cached before any kind of policy change can never be returned. The
// update counter and cache identity alone would be precise for this agent;
// folding the shared epoch in as well is deliberate conservatism — the
// issue's snapshot-refresh invalidation contract — at worst costing a
// recompute when another agent's training bumps the epoch.
func (a *Agent) greedyKey(c *plancache.Cache, q *query.Query) plancache.Key {
	return plancache.Key{
		Query:    c.FingerprintOf(q),
		Skeleton: a.cacheID,
		Mode:     plancache.ModeGreedyPolicy,
		Epoch:    uint64(a.RL.Updates)<<32 | c.Epoch()&0xffffffff,
	}
}

// GreedyPlan runs the trained policy greedily on a query and returns the
// completed physical plan and its optimizer cost. With a cache attached
// (Env.UseCache), the whole plan is memoized per policy version: repeated
// greedy evaluations of an unchanged policy — the repeated-workload serving
// pattern — skip both the network passes and the optimizer completion.
func (a *Agent) GreedyPlan(q *query.Query) (plan.Node, float64) {
	node, c, _ := a.GreedyPlanCtx(context.Background(), q)
	return node, c
}

// GreedyPlanCtx is GreedyPlan under a request-scoped context: the rollout
// checks ctx before every policy decision, so a deadline or cancellation
// cuts the search off mid-episode and returns ctx.Err() with a nil plan.
// A cache hit is served without touching the policy network and therefore
// succeeds even under an already-expired context only when the context was
// still live at entry (the entry check runs first).
func (a *Agent) GreedyPlanCtx(ctx context.Context, q *query.Query) (plan.Node, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	cache := a.Env.Planner.Cache
	if cache != nil {
		if e, ok := cache.Get(a.greedyKey(cache, q)); ok {
			// Mirror the uncached path's observable state: the episode "ran"
			// on q and ended with this plan.
			a.Env.cur = q
			a.Env.LastPlan, a.Env.LastCost = e.Plan, e.Cost.Total
			return e.Plan, e.Cost.Total, nil
		}
	}
	s := a.Env.ResetTo(q)
	for !s.Terminal {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		act := a.RL.Greedy(s)
		if act < 0 {
			break
		}
		next, _, done := a.Env.Step(act)
		s = next
		if done {
			break
		}
	}
	if cache != nil && a.Env.LastPlan != nil {
		cache.Put(a.greedyKey(cache, q), plancache.Entry{
			Plan: a.Env.LastPlan,
			Cost: cost.NodeCost{Total: a.Env.LastCost},
		})
	}
	return a.Env.LastPlan, a.Env.LastCost, nil
}
