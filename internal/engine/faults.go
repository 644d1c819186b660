package engine

import (
	"sync"

	"handsfree/internal/plan"
	"handsfree/internal/query"
)

// Faults is the deterministic fault-injection seam over observed execution:
// per-table and per-plan-signature latency inflation, periodic latency
// spikes, and injected execution failures. It exists so tests (and chaos
// drills) can reproduce the production incidents the drift detector is built
// for — a table's storage degrading, one plan shape hitting a pathological
// code path, a noisy neighbor — without any nondeterminism: every fault is a
// pure function of the (query, plan) pair plus a mutex-guarded execution
// counter, so a single-threaded replay observes the exact same faults in the
// exact same order.
//
// A zero-valued/fresh Faults injects nothing; Clear returns to that state
// (the "incident resolved" transition in drift tests).
type Faults struct {
	mu sync.Mutex

	tableFactor map[string]float64
	planFactor  map[string]float64
	failPlans   map[string]bool

	spikeEvery  int
	spikeFactor float64
	failEvery   int

	execs    uint64 // executions routed through the seam
	spikes   uint64 // spike injections
	failures uint64 // failure injections
}

// NewFaults returns an empty (inject-nothing) fault seam.
func NewFaults() *Faults { return &Faults{} }

// InflateTable multiplies the observed latency of every execution whose query
// reads the table (models a degraded disk/cache under one relation). A
// factor ≤ 0 or 1 removes the entry.
func (f *Faults) InflateTable(table string, factor float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if factor <= 0 || factor == 1 {
		delete(f.tableFactor, table)
		return
	}
	if f.tableFactor == nil {
		f.tableFactor = make(map[string]float64)
	}
	f.tableFactor[table] = factor
}

// InflatePlan multiplies the observed latency of executions of the exact plan
// shape (plan.Node.Signature). Because learned and expert plans for the same
// query differ precisely in their signatures, this is the knob that injects
// *differential* drift: the learned plan regresses while the expert baseline
// on the same fingerprint stays healthy. A factor ≤ 0 or 1 removes the entry.
func (f *Faults) InflatePlan(signature string, factor float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if factor <= 0 || factor == 1 {
		delete(f.planFactor, signature)
		return
	}
	if f.planFactor == nil {
		f.planFactor = make(map[string]float64)
	}
	f.planFactor[signature] = factor
}

// Spike inflates every `every`-th execution through the seam by factor
// (periodic latency spikes: checkpoints, GC pauses). every ≤ 0 disables, and
// so does a factor that is no inflation — ≤ 0, NaN or 1, as InflateTable and
// InflatePlan read it: a latency multiplied by zero would enter the history
// as a 0 ms execution, and a budget divided by it has no integer value.
func (f *Faults) Spike(every int, factor float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !(factor > 0) || factor == 1 {
		every, factor = 0, 0
	}
	f.spikeEvery, f.spikeFactor = every, factor
}

// FailPlan makes every execution of the exact plan shape fail with
// ErrInjected.
func (f *Faults) FailPlan(signature string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPlans == nil {
		f.failPlans = make(map[string]bool)
	}
	f.failPlans[signature] = true
}

// FailEvery makes every `every`-th execution through the seam fail with
// ErrInjected (transient worker crashes). every ≤ 0 disables.
func (f *Faults) FailEvery(every int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEvery = every
}

// Clear removes every configured fault (injection counters are kept).
func (f *Faults) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tableFactor, f.planFactor, f.failPlans = nil, nil, nil
	f.spikeEvery, f.spikeFactor, f.failEvery = 0, 0, 0
}

// FaultStats counts what the seam has injected so far.
type FaultStats struct {
	// Executions is how many executions were routed through the seam.
	Executions uint64
	// Spikes and Failures count injected spikes and failures.
	Spikes   uint64
	Failures uint64
}

// Stats snapshots the injection counters.
func (f *Faults) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultStats{Executions: f.execs, Spikes: f.spikes, Failures: f.failures}
}

// Active reports whether any fault is currently configured.
func (f *Faults) Active() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tableFactor) > 0 || len(f.planFactor) > 0 || len(f.failPlans) > 0 ||
		f.spikeEvery > 0 || f.failEvery > 0
}

// apply resolves the faults for one execution: the combined latency inflation
// factor and whether the execution fails outright. It advances the seam's
// execution counter (the clock for periodic spikes/failures).
func (f *Faults) apply(q *query.Query, n plan.Node) (factor float64, fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.execs++
	factor = 1
	if len(f.tableFactor) > 0 && q != nil {
		for _, r := range q.Relations {
			if v, ok := f.tableFactor[r.Table]; ok {
				factor *= v
			}
		}
	}
	var sig string
	if n != nil && (len(f.planFactor) > 0 || len(f.failPlans) > 0) {
		sig = n.Signature()
	}
	if v, ok := f.planFactor[sig]; ok && sig != "" {
		factor *= v
	}
	if f.spikeEvery > 0 && f.execs%uint64(f.spikeEvery) == 0 {
		factor *= f.spikeFactor
		f.spikes++
	}
	if sig != "" && f.failPlans[sig] {
		f.failures++
		return factor, true
	}
	if f.failEvery > 0 && f.execs%uint64(f.failEvery) == 0 {
		f.failures++
		return factor, true
	}
	return factor, false
}
