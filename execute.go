package handsfree

import (
	"context"
	"fmt"
	"math"

	"handsfree/internal/engine"
	"handsfree/internal/exechistory"
	"handsfree/internal/plan"
	"handsfree/internal/query"
	"handsfree/internal/sketch"
)

// This file closes the paper's feedback loop: Service.Execute runs the served
// plan on the columnar engine, observes its true latency, and feeds the
// observation back into (a) the latency-tuning reward, (b) a latency-based
// regression guard on the serving path, and (c) a drift detector that sends
// the lifecycle back to CostTraining when a learned plan's observed latency
// sustainedly regresses against the expert baseline on the same query
// fingerprint. The execution history behind all three lives in the bounded
// internal/exechistory store; the deterministic fault seam (Service.Faults)
// makes production incidents reproducible in tests.
//
// See ARCHITECTURE.md, "Execution feedback loop", for the data flow.

// Execution-feedback re-exports.
type (
	// Faults is the deterministic fault-injection seam over observed
	// execution: per-table and per-plan latency inflation, periodic spikes,
	// and injected failures, all reproducible. Reach it via Service.Faults.
	Faults = engine.Faults
	// FaultStats counts what the fault seam has injected.
	FaultStats = engine.FaultStats
	// ExecHistoryStats snapshots the execution-history store's counters.
	ExecHistoryStats = exechistory.Stats
	// ScanMemoStats counts what the executor's memo of operator outputs has
	// answered, built, holds and evicted (see ARCHITECTURE.md, "The executor").
	ScanMemoStats = engine.MemoStats
	// ApproxEstimate is one approximate aggregate with its bootstrap
	// confidence interval (see ExecuteApprox).
	ApproxEstimate = engine.ApproxEstimate
)

// ErrApproxBudget reports that an approximate execution could not meet its
// error budget on the sample; ExecuteApprox reacts by falling back to exact
// execution, so callers only see it through ExecResult.ApproxFellBack.
var ErrApproxBudget = engine.ErrApproxBudget

// DefaultMaxRelError is the approximate-execution error budget used when the
// caller passes none: every estimate's confidence-interval half-width must
// stay within 5% of the point estimate.
const DefaultMaxRelError = engine.DefaultMaxRelError

// Defaults for ExecutionConfig.
const (
	// DefaultLatencyGuardRatio is the observed-latency regression guard: a
	// learned plan is served only while its rolling observed latency stays
	// within this multiple of the expert's on the same query fingerprint.
	DefaultLatencyGuardRatio = 1.5
	// DefaultExecBudgetMs is the per-execution latency budget (censoring
	// timeout) of Execute and of latency-phase training: a timed-out run
	// records the budget itself as its latency.
	DefaultExecBudgetMs = 1000.0
	// DefaultExpertProbeEvery is how many learned executions of a
	// fingerprint elapse between expert shadow probes that keep the
	// fingerprint's expert baseline fresh.
	DefaultExpertProbeEvery = 8
)

// ExecutionConfig tunes the execution feedback loop. The zero value selects
// the defaults; a Service always has the loop on (Execute works untrained —
// it just observes expert plans). Every execution is censored at
// DefaultExecBudgetMs, work units become milliseconds at
// engine.DefaultMsPerWork, and the history tracks exechistory's default of
// 4096 fingerprints.
type ExecutionConfig struct {
	// Window, MinLearned, MinExpert bound the execution history store (see
	// exechistory.Config; defaults 32, 4, 2).
	Window     int
	MinLearned int
	MinExpert  int
	// GuardRatio is the latency regression guard: when a fingerprint's
	// rolling learned/expert observed-latency ratio exceeds it, Plan serves
	// the expert plan (SourceFallback, LatencyGuarded) until the ratio
	// recovers or the history is flushed by re-training. Negative disables;
	// default DefaultLatencyGuardRatio.
	GuardRatio float64
	// ProbeEvery schedules expert shadow probes: after this many learned
	// executions of a fingerprint, Execute also runs the expert plan once to
	// refresh the baseline the ratio compares against. Negative disables;
	// default DefaultExpertProbeEvery.
	ProbeEvery int
	// DriftRatio / DriftSustain tune the drift detector: DriftSustain
	// consecutive post-execution ratios above DriftRatio on one fingerprint
	// trip a drift event (defaults 2.0 and 6; negative DriftRatio disables).
	// A lifecycle started with LifecycleConfig.DriftRetrain reacts to trips
	// by re-entering CostTraining.
	DriftRatio   float64
	DriftSustain int
}

func (c *ExecutionConfig) fill() {
	if c.GuardRatio == 0 {
		c.GuardRatio = DefaultLatencyGuardRatio
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = DefaultExpertProbeEvery
	}
}

// WithExecution tunes the execution feedback loop (history bounds, latency
// guard, expert probing, drift thresholds).
func WithExecution(ec ExecutionConfig) Option {
	return func(o *serviceOptions) { o.exec = ec }
}

// ExecResult is one executed planning decision: the serving decision plus
// what actually happened when the plan ran.
type ExecResult struct {
	PlanResult
	// LatencyMs is the observed execution latency of the served plan (the
	// budget itself when TimedOut).
	LatencyMs float64
	// TimedOut marks a budget-censored execution.
	TimedOut bool
	// Failed reports that the learned plan's execution failed and the expert
	// plan was executed and served in its place (the execution-level
	// safeguard; the decision's Source becomes SourceFallback).
	Failed bool
	// Rows is the served result's row count; WorkUnits the executor's
	// deterministic effort accounting for it.
	Rows      int
	WorkUnits int64
	// Approx marks an approximately executed decision: Estimates carries the
	// sample-scaled aggregates with their 99% bootstrap confidence intervals,
	// and SampleFraction is the fraction of the table actually scanned.
	Approx         bool
	Estimates      []ApproxEstimate
	SampleFraction float64
	// ApproxFellBack reports that approximate execution was requested but
	// the query was ineligible or the error budget unsatisfiable on the
	// sample, so the result above is an exact execution.
	ApproxFellBack bool
}

// Execute serves a plan for q (exactly Plan's safeguarded decision), runs it
// on the engine, and returns the decision together with its observed latency.
// Every execution is recorded in the per-fingerprint history that drives the
// latency guard and the drift detector:
//
//   - A served learned plan's latency lands in the fingerprint's learned
//     window; expert and fallback executions land in the expert window
//     (they executed the expert plan, so they refresh the baseline).
//   - When a fingerprint's expert baseline goes stale (ProbeEvery learned
//     executions since the last expert one), the expert plan is additionally
//     shadow-executed once and recorded, so the ratio never compares fresh
//     learned latencies against a fossilized baseline.
//   - If the learned plan's execution fails outright, the expert plan is
//     executed and served instead (Failed; counted as a fallback at
//     execution level), so Execute degrades, never breaks, under faults.
//   - After recording, the fingerprint's rolling learned/expert ratio feeds
//     the drift detector; once the lifecycle is PhaseDone, a sustained
//     degradation signals the (DriftRetrain-enabled) lifecycle to re-enter
//     CostTraining.
//
// Execute is safe for any number of concurrent callers, during training and
// drift re-training included.
func (s *Service) Execute(ctx context.Context, q *Query) (ExecResult, error) {
	pr, err := s.Plan(ctx, q)
	if err != nil {
		return ExecResult{}, err
	}
	return s.executePlanned(q, pr)
}

// executePlanned is Execute's back half: run an already-served decision
// exactly, with the execution-level safeguard, history recording, expert
// probing, and drift observation. ExecuteApprox shares it as the exact
// fallback path.
func (s *Service) executePlanned(q *Query, pr PlanResult) (ExecResult, error) {
	res := ExecResult{PlanResult: pr}
	s.executions.Add(1)
	kind := exechistory.Expert
	if pr.Source == SourceLearned {
		kind = exechistory.Learned
	}
	run, w, lat, timedOut, rerr := s.observed.Run(q, res.Plan, DefaultExecBudgetMs)
	if rerr != nil {
		s.execFailures.Add(1)
		s.history.RecordFailure(pr.Fingerprint)
		if pr.Source != SourceLearned || pr.expertPlan == nil {
			return res, fmt.Errorf("handsfree: execution failed: %w", rerr)
		}
		// Execution-level safeguard: the learned plan failed, so execute and
		// serve the expert plan instead of surfacing the failure.
		res.Failed = true
		res.Plan, res.Cost, res.Source = pr.expertPlan, pr.ExpertCost, SourceFallback
		s.fallbacks.Add(1)
		kind = exechistory.Expert
		run, w, lat, timedOut, rerr = s.observed.Run(q, res.Plan, DefaultExecBudgetMs)
		if rerr != nil {
			s.execFailures.Add(1)
			s.history.RecordFailure(pr.Fingerprint)
			return res, fmt.Errorf("handsfree: fallback execution failed: %w", rerr)
		}
	}
	res.LatencyMs, res.TimedOut = lat, timedOut
	if run != nil {
		res.Rows = run.N
	}
	if w != nil {
		res.WorkUnits = w.Total()
	}
	if timedOut {
		s.execTimeouts.Add(1)
	}
	source := res.Source.String()
	if res.LatencyGuarded {
		source = "latency-guard"
	}
	s.history.Record(pr.Fingerprint, exechistory.Record{
		Kind:          kind,
		LatencyMs:     lat,
		PolicyVersion: pr.PolicyVersion,
		TimedOut:      timedOut,
		Source:        source,
	})
	if kind == exechistory.Learned && s.execCfg.ProbeEvery > 0 &&
		s.history.NeedExpertProbe(pr.Fingerprint, s.execCfg.ProbeEvery) {
		s.probeExpert(q, pr.Fingerprint, pr.expertPlan)
	}
	ratio, _, _ := s.history.Ratio(pr.Fingerprint)
	// Drift only means something once a trained policy is the steady state:
	// during training phases the policy is in flux by design, and before any
	// lifecycle there is nothing to retrain.
	if s.Phase() == PhaseDone && s.drift.Observe(pr.Fingerprint, ratio) {
		s.driftEvents.Add(1)
		s.signalDrift(fmt.Sprintf(
			"observed latency drift: fingerprint %016x sustained ratio %.2f > %.2f for %d executions",
			pr.Fingerprint, ratio, s.drift.Config().Ratio, s.drift.Config().Sustain))
	}
	return res, nil
}

// ExecuteSQL parses SQL text and executes a served plan for it; see Execute.
func (s *Service) ExecuteSQL(ctx context.Context, sql string) (ExecResult, error) {
	q, err := s.resolve(sql, false)
	if err != nil {
		return ExecResult{}, err
	}
	return s.Execute(ctx, q)
}

// approxAuditEvery schedules the accuracy audit: every Nth approximately
// served answer is also executed exactly (off the books — the audit run is
// not recorded in the latency history) and the observed estimate error and
// CI coverage feed ApproxStats.
const approxAuditEvery = 8

// ExecuteApprox serves a plan for q through the same safeguarded decision
// path as Execute, then executes it approximately: the query's COUNT/SUM
// (and derived AVG) aggregates are estimated from the table's reservoir row
// sample, scaled to the full table, and reported with 99% bootstrap
// confidence intervals. The work accounting — and therefore the observed
// latency recorded in the execution history — reflects the reduced sample
// scan, which is the point: an approximate answer with a quantified error
// at a fraction of the cost.
//
// maxRelError is the error budget (≤ 0 means DefaultMaxRelError): every
// estimate's CI half-width must stay within maxRelError × |estimate|.
// When the budget cannot be met (too few matching sample rows, or the
// interval is too wide), when the query is ineligible (joins, GROUP BY,
// MIN/MAX), or when no sample exists, ExecuteApprox transparently falls
// back to exact execution and marks the result ApproxFellBack — the
// approximate path is an optimization, never a new failure mode.
func (s *Service) ExecuteApprox(ctx context.Context, q *Query, maxRelError float64) (ExecResult, error) {
	opt := engine.ApproxOptions{MaxRelError: maxRelError}
	// Resolve eligibility and the sample before planning; either miss means
	// the decision executes exactly.
	var sample *sketch.RowSample
	if engine.ApproxEligible(q) == nil {
		if ts := s.sys.Sketches().Table(q.Relations[0].Table); ts != nil {
			sample = ts.Sample
		}
	}
	pr, err := s.Plan(ctx, q)
	if err != nil {
		return ExecResult{}, err
	}
	if sample == nil {
		s.approxFallbacks.Add(1)
		res, eerr := s.executePlanned(q, pr)
		res.ApproxFellBack = true
		return res, eerr
	}
	ares, w, lat, timedOut, rerr := s.observed.RunApprox(q, pr.Plan, sample, opt, DefaultExecBudgetMs)
	if rerr != nil {
		// Budget unsatisfiable on the sample (or an injected failure): fall
		// back to the exact path, which carries its own safeguards.
		s.approxFallbacks.Add(1)
		res, eerr := s.executePlanned(q, pr)
		res.ApproxFellBack = true
		return res, eerr
	}
	out := ExecResult{
		PlanResult:     pr,
		LatencyMs:      lat,
		TimedOut:       timedOut,
		Rows:           1,
		WorkUnits:      w.Total(),
		Approx:         true,
		Estimates:      ares.Estimates,
		SampleFraction: ares.SampleFraction,
	}
	s.executions.Add(1)
	s.approxServed.Add(1)
	if timedOut {
		s.execTimeouts.Add(1)
	}
	kind := exechistory.Expert
	if pr.Source == SourceLearned {
		kind = exechistory.Learned
	}
	source := pr.Source.String()
	if pr.LatencyGuarded {
		source = "latency-guard"
	}
	s.history.Record(pr.Fingerprint, exechistory.Record{
		Kind:          kind,
		LatencyMs:     lat,
		PolicyVersion: pr.PolicyVersion,
		TimedOut:      timedOut,
		Source:        source,
	})
	if s.approxServed.Load()%approxAuditEvery == 1 {
		s.auditApprox(q, out)
	}
	return out, nil
}

// auditApprox executes the served plan exactly and scores the approximate
// answer against it: per-estimate relative error and whether each reported
// confidence interval covered the exact value. Audit runs are off the
// latency books (not recorded in the history) — they measure accuracy, not
// performance.
func (s *Service) auditApprox(q *Query, out ExecResult) {
	run, _, _, _, err := s.observed.Run(q, out.Plan, 0)
	if err != nil || run == nil || run.N == 0 {
		return
	}
	var compared, covered uint64
	var errSum float64
	for _, est := range out.Estimates {
		col, err := run.Column(est.Name)
		if err != nil || len(col) == 0 {
			continue // derived AVG has no exact output column
		}
		exact := float64(col[0])
		compared++
		if est.Lo <= exact && exact <= est.Hi {
			covered++
		}
		if exact != 0 {
			errSum += math.Abs(est.Value-exact) / math.Abs(exact)
		} else if est.Value != 0 {
			errSum += 1
		}
	}
	if compared == 0 {
		return
	}
	s.approxMu.Lock()
	s.approxAudits++
	s.approxCompared += compared
	s.approxCovered += covered
	s.approxErrSum += errSum
	s.approxMu.Unlock()
}

// ApproxStats is a point-in-time snapshot of the approximate-execution
// accuracy counters.
type ApproxStats struct {
	// Served counts approximately served answers; Fallbacks counts
	// ExecuteApprox calls that executed exactly instead (ineligible query,
	// missing sample, or unsatisfiable error budget).
	Served, Fallbacks uint64
	// Audits counts exact audit runs; AuditEstimates individual estimates
	// compared against their exact value; AuditCovered those whose reported
	// confidence interval contained it.
	Audits, AuditEstimates, AuditCovered uint64
	// AuditMeanRelError is the mean |approx − exact| / |exact| over all
	// audited estimates (NaN until the first audit).
	AuditMeanRelError float64
}

// ApproxStats snapshots the approximate-execution counters (O(1)).
func (s *Service) ApproxStats() ApproxStats {
	s.approxMu.Lock()
	defer s.approxMu.Unlock()
	st := ApproxStats{
		Served:            s.approxServed.Load(),
		Fallbacks:         s.approxFallbacks.Load(),
		Audits:            s.approxAudits,
		AuditEstimates:    s.approxCompared,
		AuditCovered:      s.approxCovered,
		AuditMeanRelError: math.NaN(),
	}
	if s.approxCompared > 0 {
		st.AuditMeanRelError = s.approxErrSum / float64(s.approxCompared)
	}
	return st
}

// probeExpert shadow-executes the expert plan to refresh a fingerprint's
// expert latency baseline. Probe failures are counted, never surfaced: the
// caller's own execution already succeeded.
func (s *Service) probeExpert(q *Query, fp uint64, expert PlanNode) {
	if expert == nil {
		return
	}
	_, _, lat, timedOut, err := s.observed.Run(q, expert, DefaultExecBudgetMs)
	if err != nil {
		s.execFailures.Add(1)
		s.history.RecordFailure(fp)
		return
	}
	s.history.Record(fp, exechistory.Record{
		Kind: exechistory.Expert, LatencyMs: lat, TimedOut: timedOut,
	})
}

// signalDrift hands a drift event to the resident lifecycle without ever
// blocking the serving path: the channel holds one pending signal, and a
// signal arriving while one is pending (or while no lifecycle listens)
// is redundant and dropped.
func (s *Service) signalDrift(reason string) {
	select {
	case s.driftCh <- reason:
	default:
	}
}

// ObservedRatio returns a query's current rolling learned/expert
// observed-latency ratio and the window sizes behind it (ratio is NaN until
// both windows hold their configured minimum samples). It is the
// post-execution view; PlanResult.LatencyRatio is the same ratio as of
// decision time.
func (s *Service) ObservedRatio(q *Query) (ratio float64, learnedN, expertN int) {
	return s.history.Ratio(s.sys.PlanCache.FingerprintOf(q))
}

// Faults exposes the deterministic fault-injection seam on the execution
// path, for tests and chaos drills: inflate a table's or plan shape's
// observed latency, add periodic spikes, or fail executions — reproducibly.
func (s *Service) Faults() *Faults { return s.observed.Faults }

// ExecutionConfig returns the resolved execution feedback configuration
// (every default filled in, including the drift detector's).
func (s *Service) ExecutionConfig() ExecutionConfig {
	ec := s.execCfg
	hc := s.history.Config()
	ec.Window = hc.Window
	ec.MinLearned, ec.MinExpert = hc.MinLearned, hc.MinExpert
	dc := s.drift.Config()
	ec.DriftRatio, ec.DriftSustain = dc.Ratio, dc.Sustain
	return ec
}

// ExecStats is a point-in-time snapshot of the execution feedback loop.
type ExecStats struct {
	// Executions counts Execute decisions; Failures injected/failed plan
	// executions (including failed shadow probes); TimedOut budget-censored
	// executions.
	Executions, Failures, TimedOut uint64
	// LatencyGuarded counts serving decisions where the observed-latency
	// guard (not the cost guard) forced the expert plan.
	LatencyGuarded uint64
	// DriftEvents counts drift-detector trips; Retrains counts completed
	// drift-triggered re-training rounds.
	DriftEvents, Retrains uint64
	// DriftWorstRatio is the worst finite learned/expert ratio the detector
	// has seen since the last re-training round (NaN when none).
	DriftWorstRatio float64
	// History snapshots the bounded execution-history store.
	History ExecHistoryStats
	// ScanMemo snapshots the executor's memo: the scans, joins, aggregations
	// and join build-side indexes the engine has kept instead of re-running.
	ScanMemo ScanMemoStats
}

// DriftEntry is one fingerprint's execution-feedback state: its rolling
// latency ratio, the window sizes behind it, the drift detector's current
// consecutive-degradation streak, and the serving decision that last touched
// it ("learned", "expert", "fallback", "latency-guard", "demonstration").
type DriftEntry struct {
	Fingerprint       uint64
	Ratio             float64 // NaN until both windows hold their minimums
	LearnedN, ExpertN int
	Streak            int
	LastSource        string
}

// DriftEntries snapshots up to max tracked fingerprints (all when max ≤ 0),
// most recently executed first — the per-fingerprint view behind ExecStats,
// served by GET /drift. The ratio/streak pair says where each fingerprint
// stands relative to the guard and drift thresholds in ExecutionConfig.
func (s *Service) DriftEntries(max int) []DriftEntry {
	hist := s.history.Entries(max)
	out := make([]DriftEntry, len(hist))
	for i, e := range hist {
		out[i] = DriftEntry{
			Fingerprint: e.Fingerprint,
			Ratio:       e.Ratio,
			LearnedN:    e.LearnedN,
			ExpertN:     e.ExpertN,
			Streak:      s.drift.Streak(e.Fingerprint),
			LastSource:  e.LastSource,
		}
	}
	return out
}

// ExecStats snapshots the execution feedback loop's counters (O(1)).
func (s *Service) ExecStats() ExecStats {
	return ExecStats{
		Executions:      s.executions.Load(),
		Failures:        s.execFailures.Load(),
		TimedOut:        s.execTimeouts.Load(),
		LatencyGuarded:  s.latencyGuarded.Load(),
		DriftEvents:     s.driftEvents.Load(),
		Retrains:        s.retrains.Load(),
		DriftWorstRatio: s.drift.WorstRatio(),
		History:         s.history.Stats(),
		ScanMemo:        s.observed.Eng.Stats(),
	}
}

// recordingExecutor is the lifecycle's demonstration-phase executor: it
// derives latency from real observed execution (like the serving path) and
// records each expert demonstration into the execution history, so query
// fingerprints enter serving with a warm expert baseline.
type recordingExecutor struct {
	svc *Service
}

func (r recordingExecutor) Execute(q *query.Query, n plan.Node, budgetMs float64) (float64, bool) {
	lat, timedOut := r.svc.observed.Execute(q, n, budgetMs)
	if !math.IsNaN(lat) {
		r.svc.history.Record(r.svc.sys.PlanCache.FingerprintOf(q), exechistory.Record{
			Kind: exechistory.Expert, LatencyMs: lat, TimedOut: timedOut,
			Source: "demonstration",
		})
	}
	return lat, timedOut
}
