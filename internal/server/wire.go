// Package server is the network-facing front end of the hands-free
// optimizer: a JSON-over-HTTP surface that multiplexes N independent
// handsfree.Services — one per tenant, each with its own plan cache,
// learning lifecycle, policy versions, and fallback counters — behind one
// listener, with admission control (bounded queue, SLO-based load shedding),
// per-request deadlines mapped onto the Plan(ctx) cancellation path, and
// graceful drain that completes in-flight plans even mid-training.
//
// Endpoints:
//
//	POST /plan        plan a structured query (JSON IR)
//	POST /plansql     plan a SQL string
//	POST /execute     plan a structured query AND run the served plan,
//	                  returning its observed latency (feeds the tenant's
//	                  latency guard and drift detector)
//	POST /executesql  same, from a SQL string
//	GET  /phase       lifecycle phase + timed transition history for one tenant
//	GET  /drift       one tenant's execution-feedback/drift snapshot
//	GET  /stats       server admission counters + per-tenant serving stats
//	GET  /cache       per-tenant plan cache counters
//	GET  /healthz     liveness (503 while draining)
//
// Planning endpoints take the tenant from the "tenant" query parameter or
// the X-Tenant header; a single-tenant server accepts requests with no
// tenant named. See ARCHITECTURE.md, "Serving layer".
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"handsfree/internal/query"
)

// maxBodyBytes bounds a planning request body; anything larger is a 400.
const maxBodyBytes = 1 << 20

// PlanRequest is the body of POST /plan and POST /plansql. Exactly one of
// SQL (for /plansql) or Query (for /plan) carries the query.
type PlanRequest struct {
	// SQL is the query text (/plansql).
	SQL string `json:"sql,omitempty"`
	// Query is the structured logical query IR (/plan).
	Query *WireQuery `json:"query,omitempty"`
	// TimeoutMs is the per-request planning deadline in milliseconds. It is
	// mapped onto the context handed to Service.Plan, so an expiring
	// deadline cancels the search mid-flight and surfaces as a 504. Zero
	// uses the server's default; values above the server cap are clamped.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Explain asks for the served plan tree in EXPLAIN format.
	Explain bool `json:"explain,omitempty"`
	// Mode selects how /execute and /executesql run the served plan:
	// "exact" (or empty — the default) runs it in full; "approx" answers
	// eligible aggregate queries from the table's row sample with bootstrap
	// confidence intervals, falling back to exact execution when the error
	// budget cannot be met. Planning endpoints reject the field.
	Mode string `json:"mode,omitempty"`
	// MaxError is the approximate-execution error budget: every estimate's
	// confidence-interval half-width must stay within max_error × |estimate|
	// (0 uses the service default; only meaningful with mode "approx").
	MaxError float64 `json:"max_error,omitempty"`
}

// WireQuery is the JSON form of the logical query IR.
type WireQuery struct {
	Name       string          `json:"name,omitempty"`
	Relations  []WireRelation  `json:"relations"`
	Joins      []WireJoin      `json:"joins,omitempty"`
	Filters    []WireFilter    `json:"filters,omitempty"`
	Aggregates []WireAggregate `json:"aggregates,omitempty"`
	GroupBys   []WireGroupBy   `json:"group_bys,omitempty"`
}

// WireRelation is one FROM-clause entry. An empty alias defaults to the
// table name.
type WireRelation struct {
	Table string `json:"table"`
	Alias string `json:"alias,omitempty"`
}

// WireJoin is an equality join predicate.
type WireJoin struct {
	LeftAlias  string `json:"left_alias"`
	LeftCol    string `json:"left_col"`
	RightAlias string `json:"right_alias"`
	RightCol   string `json:"right_col"`
}

// WireFilter is a single-column comparison predicate. Op is one of
// "=", "<", "<=", ">", ">=", "<>".
type WireFilter struct {
	Alias  string `json:"alias"`
	Column string `json:"column"`
	Op     string `json:"op"`
	Value  int64  `json:"value"`
}

// WireAggregate is one SELECT-list aggregate. Kind is one of "COUNT",
// "MIN", "MAX", "SUM"; COUNT with empty alias/column is COUNT(*).
type WireAggregate struct {
	Kind   string `json:"kind"`
	Alias  string `json:"alias,omitempty"`
	Column string `json:"column,omitempty"`
}

// WireGroupBy is one grouping column.
type WireGroupBy struct {
	Alias  string `json:"alias"`
	Column string `json:"column"`
}

// PlanResponse is the body of a successful planning request.
type PlanResponse struct {
	Tenant string `json:"tenant"`
	// Query names what was planned (the query's Name, else its SQL).
	Query string `json:"query,omitempty"`
	// Source is which planner produced the served plan: "expert",
	// "learned", or "fallback" (learned plan regressed past the safeguard).
	Source string `json:"source"`
	// Cost is the served plan's cost-model estimate; ExpertCost the
	// traditional optimizer's (the safeguard reference).
	Cost       float64 `json:"cost"`
	ExpertCost float64 `json:"expert_cost"`
	// LearnedCost is present only when a learned rollout ran.
	LearnedCost *float64 `json:"learned_cost,omitempty"`
	// PolicyVersion is the policy snapshot consulted, or the latest one
	// published when the policy cannot cover the query (0 = none yet).
	// Within one client connection it is monotone non-decreasing.
	PolicyVersion uint64 `json:"policy_version"`
	// Phase is the tenant's lifecycle phase at serving time.
	Phase string `json:"phase"`
	// Plan is the EXPLAIN rendering (only with "explain": true).
	Plan string `json:"plan,omitempty"`
	// QueueMs is time spent waiting in the admission queue; PlanMs is the
	// planning time proper.
	QueueMs float64 `json:"queue_ms"`
	PlanMs  float64 `json:"plan_ms"`
}

// ExecuteResponse is the body of a successful POST /execute or
// POST /executesql: the safeguarded serving decision (as in PlanResponse)
// plus what actually happened when the served plan ran.
type ExecuteResponse struct {
	Tenant string `json:"tenant"`
	Query  string `json:"query,omitempty"`
	// Source is "expert", "learned", or "fallback"; LatencyGuarded marks a
	// fallback forced by the observed-latency guard rather than the cost
	// guard, and Failed one forced at execution time (the learned plan's
	// execution failed and the expert plan was run and served instead).
	Source         string `json:"source"`
	LatencyGuarded bool   `json:"latency_guarded,omitempty"`
	Failed         bool   `json:"failed,omitempty"`
	// Cost/ExpertCost/LearnedCost are the cost-model estimates, as in
	// PlanResponse.
	Cost          float64  `json:"cost"`
	ExpertCost    float64  `json:"expert_cost"`
	LearnedCost   *float64 `json:"learned_cost,omitempty"`
	PolicyVersion uint64   `json:"policy_version"`
	Phase         string   `json:"phase"`
	// Fingerprint is the query's canonical fingerprint (zero-padded hex —
	// uint64 would lose precision in JavaScript clients), the key its
	// execution history is tracked under.
	Fingerprint string `json:"fingerprint"`
	// LatencyMs is the served plan's observed execution latency (the budget
	// itself when TimedOut). Rows and WorkUnits describe the result.
	LatencyMs float64 `json:"latency_ms"`
	TimedOut  bool    `json:"timed_out,omitempty"`
	Rows      int     `json:"rows"`
	WorkUnits int64   `json:"work_units"`
	// LatencyRatio is the fingerprint's rolling learned/expert observed
	// latency ratio at decision time (absent until both windows hold their
	// minimum samples).
	LatencyRatio *float64 `json:"latency_ratio,omitempty"`
	// Approx marks an approximately executed answer: Estimates carries the
	// sample-scaled aggregates with their confidence intervals and
	// SampleFraction the fraction of the table actually scanned.
	// ApproxFellBack reports that mode "approx" was requested but the query
	// was ineligible or the error budget unsatisfiable, so the answer above
	// is an exact execution.
	Approx         bool           `json:"approx,omitempty"`
	ApproxFellBack bool           `json:"approx_fell_back,omitempty"`
	Estimates      []EstimateInfo `json:"estimates,omitempty"`
	SampleFraction float64        `json:"sample_fraction,omitempty"`
	// Plan is the EXPLAIN rendering (only with "explain": true).
	Plan string `json:"plan,omitempty"`
	// QueueMs is admission-queue wait; TotalMs is planning + execution.
	QueueMs float64 `json:"queue_ms"`
	TotalMs float64 `json:"total_ms"`
}

// EstimateInfo is one approximate aggregate on the wire: the point estimate
// with its 99% bootstrap confidence interval.
type EstimateInfo struct {
	// Name matches the exact executor's output column naming
	// ("agg<i>_<KIND>"; derived averages are "avg<i>_<column>").
	Name string `json:"name"`
	// Kind is the aggregate function: COUNT, SUM, or the derived AVG.
	Kind string `json:"kind"`
	// Value is the sample-scaled point estimate; Lo and Hi bound its
	// confidence interval; RelError is the half-width relative to |Value|.
	Value    float64 `json:"value"`
	Lo       float64 `json:"lo"`
	Hi       float64 `json:"hi"`
	RelError float64 `json:"rel_error"`
}

// DriftResponse is the body of GET /drift: one tenant's execution feedback
// loop — the guard/drift thresholds in force, the loop's counters, and the
// bounded history store behind them.
type DriftResponse struct {
	Tenant string `json:"tenant"`
	Phase  string `json:"phase"`
	// GuardRatio, DriftRatio, DriftSustain are the resolved thresholds
	// (negative ratio = that mechanism disabled).
	GuardRatio   float64 `json:"guard_ratio"`
	DriftRatio   float64 `json:"drift_ratio"`
	DriftSustain int     `json:"drift_sustain"`
	// Executions counts /execute-path runs; Failures injected or failed
	// executions; TimedOut budget-censored ones; LatencyGuarded serving
	// decisions forced to the expert by the observed-latency guard.
	Executions     uint64 `json:"executions"`
	Failures       uint64 `json:"failures"`
	TimedOut       uint64 `json:"timed_out"`
	LatencyGuarded uint64 `json:"latency_guarded"`
	// DriftEvents counts drift-detector trips; Retrains completed
	// drift-triggered re-training rounds; WorstRatio the worst finite
	// learned/expert ratio seen since the last round (absent when none).
	DriftEvents uint64          `json:"drift_events"`
	Retrains    uint64          `json:"retrains"`
	WorstRatio  *float64        `json:"worst_ratio,omitempty"`
	History     ExecHistoryInfo `json:"history"`
	// ScanMemo is the executor's memo: what /executesql did not have to run
	// again, and what keeping it costs.
	ScanMemo ScanMemoInfo `json:"scan_memo"`
	// Entries is the per-fingerprint view behind the aggregate counters,
	// most recently executed first (absent when nothing has executed). The
	// aggregate fields above keep their shape regardless.
	Entries []DriftEntryInfo `json:"entries,omitempty"`
}

// DriftEntryInfo is one fingerprint's execution-feedback state.
type DriftEntryInfo struct {
	// Fingerprint is the query's canonical fingerprint, in %016x hex.
	Fingerprint string `json:"fingerprint"`
	// Ratio is the rolling learned/expert observed-latency ratio (absent
	// until both windows hold their configured minimum samples).
	Ratio *float64 `json:"ratio,omitempty"`
	// Learned / Expert are the current latency-window sizes.
	Learned int `json:"learned"`
	Expert  int `json:"expert"`
	// Streak is the drift detector's consecutive-degradation count.
	Streak int `json:"streak"`
	// LastSource is the serving decision that last touched the fingerprint:
	// "learned", "expert", "fallback", "latency-guard", or "demonstration"
	// (absent when only sourceless shadow probes have recorded).
	LastSource string `json:"last_source,omitempty"`
}

// ExecHistoryInfo snapshots the bounded per-fingerprint execution history.
type ExecHistoryInfo struct {
	Fingerprints   int    `json:"fingerprints"`
	Evictions      uint64 `json:"evictions"`
	Records        uint64 `json:"records"`
	Learned        uint64 `json:"learned"`
	Expert         uint64 `json:"expert"`
	Rejected       uint64 `json:"rejected"`
	TimedOut       uint64 `json:"timed_out"`
	Failures       uint64 `json:"failures"`
	LearnedHeld    int    `json:"learned_held"`
	ExpertHeld     int    `json:"expert_held"`
	LearnedFlushes uint64 `json:"learned_flushes"`
}

// ScanMemoInfo snapshots the engine's memo of operator outputs and the key
// indexes built over them. A plan node is a hit when its output and its
// subtree's work came from the memo — nothing beneath it is then asked — and
// a miss when it ran: scan_* count base scans, plan_* joins and aggregations
// (a statement answered whole is one plan hit). An index is built once per
// (output, key column) and reused by every later join; Bytes is what the
// resident entries hold.
type ScanMemoInfo struct {
	ScanHits    uint64 `json:"scan_hits"`
	ScanMisses  uint64 `json:"scan_misses"`
	IndexBuilds uint64 `json:"index_builds"`
	IndexReuses uint64 `json:"index_reuses"`
	Bytes       int64  `json:"bytes"`
	Evictions   uint64 `json:"evictions"`
	PlanHits    uint64 `json:"plan_hits"`
	PlanMisses  uint64 `json:"plan_misses"`
}

// PhaseResponse is the body of GET /phase.
type PhaseResponse struct {
	Tenant         string           `json:"tenant"`
	Phase          string           `json:"phase"`
	TrainingActive bool             `json:"training_active"`
	PolicyVersion  uint64           `json:"policy_version"`
	Transitions    []TransitionInfo `json:"transitions,omitempty"`
}

// TransitionInfo is one lifecycle state-machine transition. At is when it
// fired, so consecutive transitions give each phase's duration.
type TransitionInfo struct {
	From   string    `json:"from"`
	To     string    `json:"to"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	Server  ServerStats   `json:"server"`
	Tenants []TenantStats `json:"tenants"`
}

// ServerStats are the listener-wide admission and serving counters.
type ServerStats struct {
	// Requests counts every planning request that reached admission;
	// Admitted the ones that got a slot. ShedQueueFull and ShedSLO split
	// the 429s: queue at capacity vs queue wait riding the SLO.
	Requests      uint64 `json:"requests"`
	Admitted      uint64 `json:"admitted"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedSLO       uint64 `json:"shed_slo"`
	// Timeouts counts 504s (per-request deadline expired mid-search);
	// ClientCancels requests whose client went away mid-plan; DrainRejects
	// 503s sent while draining.
	Timeouts      uint64 `json:"timeouts"`
	ClientCancels uint64 `json:"client_cancels"`
	DrainRejects  uint64 `json:"drain_rejects"`
	// Inflight and Queued are point-in-time gauges.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Tenants  int   `json:"tenants"`
	Draining bool  `json:"draining"`
}

// TenantStats is one tenant's lifecycle and serving snapshot.
type TenantStats struct {
	Name          string  `json:"name"`
	Phase         string  `json:"phase"`
	PolicyVersion uint64  `json:"policy_version"`
	Plans         uint64  `json:"plans"`
	LearnedServed uint64  `json:"learned_served"`
	ExpertServed  uint64  `json:"expert_served"`
	Fallbacks     uint64  `json:"fallbacks"`
	CostEpisodes  int     `json:"cost_episodes"`
	LatencyEps    int     `json:"latency_episodes"`
	CostRatio     float64 `json:"cost_ratio,omitempty"`
	// StatsMode says which statistics source the tenant's planner runs on:
	// "exact" (histograms) or "sketch" (HLL/Count-Min/sample).
	StatsMode string `json:"stats_mode"`
	// ApproxServed / ApproxFallbacks count approximate executions served vs
	// fallen back to exact; the audit fields score served answers against
	// periodic exact re-executions (mean relative error absent until the
	// first audit).
	ApproxServed      uint64   `json:"approx_served,omitempty"`
	ApproxFallbacks   uint64   `json:"approx_fallbacks,omitempty"`
	ApproxAudits      uint64   `json:"approx_audits,omitempty"`
	AuditEstimates    uint64   `json:"approx_audit_estimates,omitempty"`
	AuditCovered      uint64   `json:"approx_audit_covered,omitempty"`
	AuditMeanRelError *float64 `json:"approx_audit_mean_rel_error,omitempty"`
}

// CacheResponse is the body of GET /cache: one tenant's plan cache counters,
// and its statement table's (SQL texts resolved from memory, texts parsed,
// texts held).
type CacheResponse struct {
	Tenant          string  `json:"tenant"`
	Hits            uint64  `json:"hits"`
	Misses          uint64  `json:"misses"`
	Puts            uint64  `json:"puts"`
	Evictions       uint64  `json:"evictions"`
	EpochBumps      uint64  `json:"epoch_bumps"`
	Size            int     `json:"size"`
	Epoch           uint64  `json:"epoch"`
	HitRate         float64 `json:"hit_rate"`
	StatementHits   uint64  `json:"statement_hits"`
	StatementMisses uint64  `json:"statement_misses"`
	StatementSize   int     `json:"statement_size"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string `json:"status"` // "ok" or "draining"
	Tenants int    `json:"tenants"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is a machine-readable error: a stable code plus a message.
type ErrorDetail struct {
	// Code is one of: bad_request, unknown_tenant, plan_error,
	// execute_error, deadline_exceeded, canceled, queue_full, slo_shed,
	// draining, method_not_allowed, not_found, encode_error (a 500: the
	// response could not be written as JSON).
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError carries an HTTP status + wire error through the handler layers.
type apiError struct {
	status  int
	code    string
	message string
	// retryAfterSec sets the Retry-After header on 429s.
	retryAfterSec int
}

func (e *apiError) Error() string { return e.message }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

// decodePlanRequest strictly decodes a planning request body. It never
// panics on arbitrary input (fuzz-tested); every malformed body yields a
// *apiError with status 400 and a structured code/message. allowExec admits
// the execution-only fields (mode, max_error); planning endpoints reject
// them.
func decodePlanRequest(body io.Reader, wantSQL, allowExec bool) (*PlanRequest, *apiError) {
	data, err := io.ReadAll(io.LimitReader(body, maxBodyBytes+1))
	if err != nil {
		return nil, badRequest("reading request body: %v", err)
	}
	if len(data) > maxBodyBytes {
		return nil, badRequest("request body exceeds %d bytes", maxBodyBytes)
	}
	req, ok := decodeFlat(data)
	if !ok {
		var apiErr *apiError
		if req, apiErr = decodeStrict(data); apiErr != nil {
			return nil, apiErr
		}
	}
	return validatePlanRequest(req, wantSQL, allowExec)
}

// validatePlanRequest checks a decoded request's fields against each other
// and against the endpoint.
func validatePlanRequest(req *PlanRequest, wantSQL, allowExec bool) (*PlanRequest, *apiError) {
	if req.TimeoutMs < 0 {
		return nil, badRequest("timeout_ms must be non-negative, got %d", req.TimeoutMs)
	}
	switch req.Mode {
	case "", "exact", "approx":
	default:
		return nil, badRequest(`mode must be "exact" or "approx", got %q`, req.Mode)
	}
	if req.MaxError < 0 {
		return nil, badRequest("max_error must be non-negative, got %v", req.MaxError)
	}
	if !allowExec {
		if req.Mode != "" {
			return nil, badRequest("mode applies to /execute and /executesql only")
		}
		if req.MaxError != 0 {
			return nil, badRequest("max_error applies to /execute and /executesql only")
		}
	}
	if wantSQL {
		if req.SQL == "" {
			return nil, badRequest(`missing "sql" field`)
		}
		if req.Query != nil {
			return nil, badRequest(`/plansql takes "sql", not "query"`)
		}
	} else {
		if req.Query == nil {
			return nil, badRequest(`missing "query" field`)
		}
		if req.SQL != "" {
			return nil, badRequest(`/plan takes "query", not "sql" (use /plansql)`)
		}
	}
	return req, nil
}

// decodeStrict decodes a body with encoding/json, which defines what a
// planning request may be: one object of PlanRequest's fields (keys matched
// as encoding/json matches them), no unknown field, nothing after it.
func decodeStrict(data []byte) (*PlanRequest, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON: %v", err)
	}
	// Reject trailing garbage after the JSON object.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("trailing data after JSON body")
	}
	return &req, nil
}

// parseOp maps a wire comparison operator to the IR.
func parseOp(s string) (query.CmpOp, error) {
	switch s {
	case "=":
		return query.Eq, nil
	case "<":
		return query.Lt, nil
	case "<=":
		return query.Le, nil
	case ">":
		return query.Gt, nil
	case ">=":
		return query.Ge, nil
	case "<>", "!=":
		return query.Ne, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", s)
	}
}

// toQuery converts the wire form into a validated logical query.
func (w *WireQuery) toQuery() (*query.Query, *apiError) {
	if len(w.Relations) == 0 {
		return nil, badRequest("query has no relations")
	}
	q := &query.Query{Name: w.Name}
	for _, r := range w.Relations {
		if r.Table == "" {
			return nil, badRequest("relation with empty table name")
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Table
		}
		q.Relations = append(q.Relations, query.Relation{Table: r.Table, Alias: alias})
	}
	for _, j := range w.Joins {
		q.Joins = append(q.Joins, query.Join{
			LeftAlias: j.LeftAlias, LeftCol: j.LeftCol,
			RightAlias: j.RightAlias, RightCol: j.RightCol,
		})
	}
	for _, f := range w.Filters {
		op, err := parseOp(f.Op)
		if err != nil {
			return nil, badRequest("filter %s.%s: %v", f.Alias, f.Column, err)
		}
		q.Filters = append(q.Filters, query.Filter{Alias: f.Alias, Column: f.Column, Op: op, Value: f.Value})
	}
	for _, a := range w.Aggregates {
		kind, err := parseAgg(a.Kind)
		if err != nil {
			return nil, badRequest("aggregate: %v", err)
		}
		q.Aggregates = append(q.Aggregates, query.Aggregate{Kind: kind, Alias: a.Alias, Column: a.Column})
	}
	for _, g := range w.GroupBys {
		q.GroupBys = append(q.GroupBys, query.GroupBy{Alias: g.Alias, Column: g.Column})
	}
	if err := q.Validate(); err != nil {
		return nil, badRequest("invalid query: %v", err)
	}
	return q, nil
}

// parseAgg maps a wire aggregate function name to the IR.
func parseAgg(s string) (query.AggKind, error) {
	switch s {
	case "COUNT":
		return query.AggCount, nil
	case "MIN":
		return query.AggMin, nil
	case "MAX":
		return query.AggMax, nil
	case "SUM":
		return query.AggSum, nil
	default:
		return 0, fmt.Errorf("unknown aggregate function %q", s)
	}
}

// bodyPool holds response buffers. A body is encoded whole before its
// headers go out, so Content-Length is known and the body is one Write.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers kept for reuse: one grown past it by a
// rare large body (an EXPLAIN of a wide plan) is left to the collector.
const maxPooledBody = 64 << 10

// writeJSON writes v with the given status as one compact JSON value and a
// newline, as json.Encoder.Encode writes it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Nothing has been written yet, so the failure can still be told.
		buf.Reset()
		_ = json.NewEncoder(buf).Encode(ErrorResponse{Error: ErrorDetail{Code: "encode_error", Message: err.Error()}})
		status = http.StatusInternalServerError
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the client may have gone away; nothing to do
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// writeError writes the structured error envelope (and Retry-After on 429s).
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfterSec > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.retryAfterSec))
	}
	writeJSON(w, e.status, ErrorResponse{Error: ErrorDetail{Code: e.code, Message: e.message}})
}
