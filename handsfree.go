// Package handsfree is a from-scratch Go reproduction of "Towards a
// Hands-Free Query Optimizer through Deep Learning" (Marcus &
// Papaemmanouil, CIDR 2019): a deep-reinforcement-learning query optimizer
// stack built on a synthetic relational substrate.
//
// The package has one entry point, the optimizer-as-a-service API:
//
//   - New assembles the synthetic JOB-like database with statistics, a
//     PostgreSQL-style cost model, a traditional optimizer, a truth oracle,
//     and a latency simulator, and wraps them in a concurrency-safe Service
//     (functional options: WithScale, WithCache, WithWorkload,
//     WithFallbackRatio, …).
//   - Service.Plan / Service.PlanSQL serve request-scoped, safeguarded
//     planning decisions: context deadlines cut searches off mid-flight,
//     and a regression guard falls back to the expert plan whenever the
//     learned plan's cost regresses past a configurable ratio.
//   - Service.StartTraining runs the paper's learning state machine in the
//     background — observe the expert (§5.1), train on cost (§5.2 Phase 1),
//     fine-tune on latency (§5.2 Phase 2) — hot-swapping policy snapshots
//     while serving continues.
//   - Service.System exposes the substrate underneath.
//   - ParseSQL turns SQL text into the query IR.
//   - The internal/experiment package (exposed through cmd/handsfree)
//     regenerates every figure of the paper.
//
// See README.md for an overview and ARCHITECTURE.md for the layer stack,
// the data flow of the batched + cached training loop, and the service
// lifecycle state machine.
package handsfree

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"handsfree/internal/cost"
	"handsfree/internal/datagen"
	"handsfree/internal/engine"
	"handsfree/internal/featurize"
	"handsfree/internal/optimizer"
	"handsfree/internal/plan"
	"handsfree/internal/plancache"
	"handsfree/internal/query"
	"handsfree/internal/sketch"
	"handsfree/internal/sqlparse"
	"handsfree/internal/stats"
	"handsfree/internal/workload"
)

// Re-exported core types. The internal packages carry the full APIs; these
// aliases cover the common entry points.
type (
	// Query is the logical query IR.
	Query = query.Query
	// PlanNode is a physical plan operator.
	PlanNode = plan.Node
	// Planned couples a plan with its cost and planning duration.
	Planned = optimizer.Planned
	// Result is a materialized execution result.
	Result = engine.Result
	// Work is the executor's effort accounting.
	Work = engine.Work
	// PlanCache is the plan cache service: a sharded fingerprint → plan
	// memoization layer shared by the optimizer and the learned agents.
	PlanCache = plancache.Cache
	// PlanCacheStats is a snapshot of the plan cache's hit/miss/eviction
	// counters.
	PlanCacheStats = plancache.Stats
)

// StatsMode selects the statistics source the planning stack — cost model,
// optimizer DP, and learned featurization — reads its cardinality estimates
// from; see WithStats.
type StatsMode int

// Statistics modes for WithStats.
const (
	// StatsAuto resolves through the HANDSFREE_STATS environment variable
	// ("exact" | "sketch") and defaults to StatsExact.
	StatsAuto StatsMode = iota
	// StatsExact runs planning on the exact per-column statistics
	// (equi-depth histograms + MCV lists) — the historical behavior.
	StatsExact
	// StatsSketch runs planning on probabilistic sketches alone:
	// HyperLogLog distinct counts, Count-Min equality frequencies, and
	// reservoir-sample CDFs, built in one pass per column. Same System-R
	// estimation formulas, noisy-but-cheap inputs — the scalable mode.
	StatsSketch
)

// Resolve maps StatsAuto through HANDSFREE_STATS to a concrete mode.
func (m StatsMode) Resolve() StatsMode {
	if m != StatsAuto {
		return m
	}
	if strings.EqualFold(os.Getenv("HANDSFREE_STATS"), "sketch") {
		return StatsSketch
	}
	return StatsExact
}

// String names the mode ("exact", "sketch", or "auto").
func (m StatsMode) String() string {
	switch m {
	case StatsExact:
		return "exact"
	case StatsSketch:
		return "sketch"
	default:
		return "auto"
	}
}

// CacheConfig sizes the optional plan cache service (WithCache), which
// memoizes fingerprint → plan: the optimizer's full plans and the
// per-episode skeleton completions are cached across episodes, so repeated
// workload queries are cheap on every visit after the first. The cache is
// split into plancache's default 16 lock shards.
type CacheConfig struct {
	// Capacity bounds the cached entry count (default 4096; LRU eviction).
	Capacity int
}

// The truth oracle's systematic cardinality-error field and the latency
// simulator's execution-noise field are fixed: every system draws the same
// simulated world for a given database.
const (
	oracleSeed  = 11
	latencySeed = 5
)

// config is the substrate state New's options assemble.
type config struct {
	// Seed drives data generation (default 1).
	Seed int64
	// Scale is the database scale factor (default 1.0 ≈ 400k rows).
	Scale float64
	// Cache sizes the plan cache service (nil: no plan cache).
	Cache *CacheConfig
	// Stats selects the statistics source planning runs on. The default,
	// StatsAuto, resolves through the HANDSFREE_STATS environment variable
	// and falls back to StatsExact. StatsSketch replaces the histogram
	// estimator with the sketch-backed one everywhere the planner stack
	// reads cardinalities; the truth oracle and latency simulator keep
	// their exact basis either way (they model the world, not the
	// planner's beliefs).
	Stats StatsMode
}

func (c *config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
}

// System bundles the full substrate: database, statistics, cost model,
// traditional optimizer, truth oracle, latency simulator, executor, and
// workload generators.
type System struct {
	DB       *datagen.Database
	Stats    *stats.Stats
	Est      *stats.Estimator
	Oracle   *stats.Oracle
	Cost     *cost.Model
	Planner  *optimizer.Planner
	Latency  *engine.LatencyModel
	Engine   *engine.Engine
	Workload *workload.Workload
	// PlanCache is the plan cache service attached to Planner (nil unless
	// New was given WithCache).
	PlanCache *PlanCache
	// StatsSource is the resolved statistics mode planning runs on
	// (WithStats, StatsAuto through HANDSFREE_STATS).
	StatsSource StatsMode

	// sketchOnce guards the lazily built sketch store: exact-stats systems
	// only pay the one-pass analysis when something asks for sketches
	// (approximate execution, or an explicit Sketches call); sketch-stats
	// systems build them at New because the cost model reads them.
	sketchOnce sync.Once
	sketches   *sketch.Store
	sketchEst  *sketch.Estimator
	sketchSeed uint64

	// cacheTag fingerprints the configuration that determines plan
	// identity (database seed, scale, oracle seed, statistics mode);
	// plan-cache dumps carry it so a dump can never warm a differently
	// built system.
	cacheTag uint64
}

// buildSketches analyzes the stored tables into the sketch store, once.
func (s *System) buildSketches() {
	s.sketchOnce.Do(func() {
		a := sketch.NewAnalyzer(sketch.Config{Seed: s.sketchSeed})
		s.sketches = a.Analyze(s.DB.Store)
		s.sketchEst = sketch.NewEstimator(s.DB.Catalog, s.sketches)
	})
}

// Sketches returns the sketch store (building it on first use).
func (s *System) Sketches() *sketch.Store {
	s.buildSketches()
	return s.sketches
}

// SketchEstimator returns the sketch-backed cardinality estimator
// (building the store on first use).
func (s *System) SketchEstimator() *sketch.Estimator {
	s.buildSketches()
	return s.sketchEst
}

// cardEstimator returns the estimator the planning stack runs on in the
// resolved statistics mode — the featurization side of the same choice the
// cost model made at New.
func (s *System) cardEstimator() featurize.Estimator {
	if s.StatsSource == StatsSketch {
		return s.SketchEstimator()
	}
	return s.Est
}

// systemTag hashes the configuration fields that determine what plans and
// costs the system computes (FNV-1a over seed, scale bits, oracle seed).
// The oracle seed is a constant, still mixed so that tags match the ones
// plan-cache and execution-history dumps already carry.
func systemTag(cfg config) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(cfg.Seed))
	mix(math.Float64bits(cfg.Scale))
	mix(oracleSeed)
	// Sketch-driven planning produces different plans for the same query,
	// so the mode is part of plan identity. Exact mode mixes nothing,
	// keeping historical tags (and saved dumps) valid.
	if cfg.Stats.Resolve() == StatsSketch {
		mix(0x5ce7c4)
	}
	return h
}

// openSystem generates the synthetic database and assembles the substrate
// bundle (the construction behind New).
func openSystem(cfg config) (*System, error) {
	cfg.fill()
	db, err := datagen.Generate(datagen.Config{Seed: cfg.Seed, Scale: cfg.Scale})
	if err != nil {
		return nil, err
	}
	est := stats.NewEstimator(db.Catalog, db.Stats)
	oracle := stats.NewOracle(est, oracleSeed)
	sys := &System{
		DB:          db,
		Stats:       db.Stats,
		Est:         est,
		Oracle:      oracle,
		Latency:     engine.NewLatencyModel(oracle, latencySeed),
		Engine:      engine.New(db.Store),
		Workload:    workload.New(db),
		StatsSource: cfg.Stats.Resolve(),
		sketchSeed:  uint64(cfg.Seed),
		cacheTag:    systemTag(cfg),
	}
	// The cost model reads cardinalities from the mode's estimator; the
	// oracle and latency model above stay exact-based — they are the
	// simulated world, not the planner's beliefs about it.
	var cards cost.CardSource = est
	if sys.StatsSource == StatsSketch {
		cards = sys.SketchEstimator()
	}
	sys.Cost = cost.New(cost.DefaultParams(), cards)
	sys.Planner = optimizer.New(db.Catalog, sys.Cost)
	if cfg.Cache != nil {
		sys.PlanCache = plancache.New(plancache.Config{Capacity: cfg.Cache.Capacity})
		sys.Planner = sys.Planner.WithCache(sys.PlanCache)
	}
	return sys, nil
}

// SavePlanCache serializes the plan cache's pure (policy-independent)
// entries to w, so a restarted system can warm-start with LoadPlanCache and
// skip the cold completion sweep on its repeated workload. The dump is
// tagged with the system's plan-identity fingerprint (database seed, scale,
// oracle seed), so it can only be loaded into an identically configured
// system. Errors if the cache is disabled.
func (s *System) SavePlanCache(w io.Writer) error {
	if s.PlanCache == nil {
		return fmt.Errorf("handsfree: plan cache is disabled (WithCache)")
	}
	return s.PlanCache.Save(w, s.cacheTag)
}

// LoadPlanCache replays a dump written by SavePlanCache into the system's
// plan cache, returning how many entries the cache stored. It errors if the
// cache is disabled or if the dump was produced by a system with a
// different database seed, scale, or oracle seed — entries keyed under one
// catalog must never serve another.
func (s *System) LoadPlanCache(r io.Reader) (int, error) {
	if s.PlanCache == nil {
		return 0, fmt.Errorf("handsfree: plan cache is disabled (WithCache)")
	}
	return s.PlanCache.Load(r, s.cacheTag)
}

// CacheStats snapshots the plan cache counters (zeros when the cache is
// disabled).
func (s *System) CacheStats() PlanCacheStats {
	return s.PlanCache.Stats()
}

// ParseSQL parses SQL text into the query IR.
func ParseSQL(sql string) (*Query, error) {
	return sqlparse.Parse(sql)
}

// Execute runs a physical plan on the columnar engine, returning the result
// and the deterministic work accounting.
func (s *System) Execute(q *Query, root PlanNode) (*Result, *Work, error) {
	return s.Engine.Execute(q, root)
}

// ExplainPlan renders a plan tree in EXPLAIN style.
func ExplainPlan(root PlanNode) string {
	return plan.Format(root)
}
