package engine

import (
	"errors"
	"math"

	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/sketch"
)

// ErrInjected is returned when the fault seam fails an execution.
var ErrInjected = errors.New("engine: injected execution failure")

// DefaultMsPerWork converts executor work units into observed milliseconds.
// Calibrated so the generated workloads at small scale factors land in the
// 1–100 ms range a production OLAP query would.
const DefaultMsPerWork = 1e-4

// Observed is the "run it on the production system" executor: it executes
// plans for real on the columnar Engine and derives an observed wall-clock
// latency from the deterministic work accounting (work units × MsPerWork),
// optionally transformed by the fault seam. Unlike LatencyModel — an
// analytic simulator over estimated costs — Observed latencies reflect what
// the engine actually did, so they respond to injected faults, and they are
// exactly reproducible per (database, plan).
//
// Observed is safe for concurrent use: what the Engine shares between
// executions is built once and then only read, per-call state lives in the
// Work accounting, and the fault seam serializes its counter internally.
type Observed struct {
	Eng *Engine
	// MsPerWork converts work units to milliseconds (DefaultMsPerWork when
	// built by NewObserved).
	MsPerWork float64
	// Faults is the fault-injection seam (never nil from NewObserved; an
	// empty seam injects nothing).
	Faults *Faults
}

// NewObserved wraps the engine with the default calibration and a fresh
// (inject-nothing) fault seam.
func NewObserved(eng *Engine) *Observed {
	return &Observed{Eng: eng, MsPerWork: DefaultMsPerWork, Faults: NewFaults()}
}

// Run executes root for q under a latency budget (milliseconds; 0 = none)
// and returns the result, the work performed, and the observed latency.
// A budget-exhausted execution is not an error: it returns timedOut=true
// with the budget as the censored latency, mirroring LatencyModel.Execute.
// An injected failure returns ErrInjected with a NaN latency.
func (o *Observed) Run(q *query.Query, root plan.Node, budgetMs float64) (res *Result, w *Work, latencyMs float64, timedOut bool, err error) {
	factor, fail := o.consult(q, root)
	return o.run(q, root, budgetMs, factor, fail)
}

// consult asks the fault seam what happens to this execution, advancing the
// seam's execution counter.
func (o *Observed) consult(q *query.Query, root plan.Node) (factor float64, fail bool) {
	if o.Faults == nil {
		return 1, false
	}
	return o.Faults.apply(q, root)
}

// run is Run after the seam has answered.
func (o *Observed) run(q *query.Query, root plan.Node, budgetMs, factor float64, fail bool) (res *Result, w *Work, latencyMs float64, timedOut bool, err error) {
	if fail {
		return nil, nil, math.NaN(), false, ErrInjected
	}
	var budget int64
	if budgetMs > 0 {
		// The budget censors observed (post-inflation) latency, so an
		// inflated execution times out proportionally earlier — exactly how a
		// wall-clock timeout behaves on a degraded system.
		budget = int64(budgetMs / (o.MsPerWork * factor))
		if budget < 1 {
			budget = 1
		}
	}
	res, w, err = o.Eng.ExecuteBudget(q, root, budget)
	if err != nil {
		if errors.Is(err, ErrBudget) {
			return nil, w, budgetMs, true, nil
		}
		return nil, w, math.NaN(), false, err
	}
	return res, w, float64(w.Total()) * o.MsPerWork * factor, false, nil
}

// RunApprox is Run's approximate sibling: it executes the query's
// aggregates over the table's row sample via ExecuteApprox and derives the
// observed latency from the (much smaller) sample-scan work — under the
// same fault seam and the same budget censoring, so approximate latencies
// live in the same regime as exact ones and feed the same history. root is
// the served plan; it participates only in fault-seam matching, not in
// execution. ErrApproxBudget propagates so the caller can fall back.
func (o *Observed) RunApprox(q *query.Query, root plan.Node, sample *sketch.RowSample, opt ApproxOptions, budgetMs float64) (res *ApproxResult, w *Work, latencyMs float64, timedOut bool, err error) {
	factor, fail := o.consult(q, root)
	if fail {
		return nil, nil, math.NaN(), false, ErrInjected
	}
	res, w, err = o.Eng.ExecuteApprox(q, sample, opt)
	if err != nil {
		return res, w, math.NaN(), false, err
	}
	lat := float64(w.Total()) * o.MsPerWork * factor
	if budgetMs > 0 && lat > budgetMs {
		return res, w, budgetMs, true, nil
	}
	return res, w, lat, false, nil
}

// Execute satisfies the planspace executor contract (latency and timeout
// only): training environments use it to reward episodes with observed
// execution latency. Failed executions report NaN (the reward functions'
// worst-case path).
func (o *Observed) Execute(q *query.Query, n plan.Node, budgetMs float64) (latencyMs float64, timedOut bool) {
	return o.Prepare(q, n, budgetMs)()
}

// Prepare is Execute in two halves, for callers that decide executions in
// one order and run them in another (the training pipeline starts a plan on
// a free core and moves on): the fault seam is consulted now, so its
// execution counter — the clock of periodic spikes and failures — advances
// in the order Prepare is called, and the returned function does the engine
// run, whenever and wherever it is called.
func (o *Observed) Prepare(q *query.Query, n plan.Node, budgetMs float64) func() (latencyMs float64, timedOut bool) {
	factor, fail := o.consult(q, n)
	return func() (float64, bool) {
		_, _, lat, timedOut, err := o.run(q, n, budgetMs, factor, fail)
		if err != nil {
			return math.NaN(), false
		}
		return lat, timedOut
	}
}
