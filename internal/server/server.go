package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"handsfree"
)

// Config sizes the front end. The zero value resolves to serving defaults;
// Describe renders the resolved configuration for operator diffs.
type Config struct {
	// Addr is the listen address (used by cmd/handsfree serve; a Server
	// mounted under httptest ignores it). Default ":8080".
	Addr string
	// Concurrency is how many plans may run at once (default GOMAXPROCS).
	Concurrency int
	// QueueDepth bounds how many admitted-but-waiting requests may queue
	// for a slot; the excess is shed with 429 (default 4 × Concurrency).
	QueueDepth int
	// SLO is the longest a request may wait in the admission queue before
	// it is shed with 429 + Retry-After (default 500ms).
	SLO time.Duration
	// DefaultTimeout is the per-request planning deadline applied when the
	// client sends no timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (default 2m).
	MaxTimeout time.Duration
	// DrainTimeout bounds Shutdown's graceful drain (default 30s).
	DrainTimeout time.Duration
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Concurrency
	}
	if c.SLO <= 0 {
		c.SLO = 500 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
}

// Describe renders the resolved serving configuration, one knob per line,
// so operators can diff deployments (`handsfree env` prints it). The output
// is stable: it is covered by a golden test.
func (c Config) Describe(tenants int) string {
	c.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "serving:\n")
	fmt.Fprintf(&b, "  addr:            %s\n", c.Addr)
	fmt.Fprintf(&b, "  tenants:         %d\n", tenants)
	fmt.Fprintf(&b, "  concurrency:     %d\n", c.Concurrency)
	fmt.Fprintf(&b, "  queue depth:     %d\n", c.QueueDepth)
	fmt.Fprintf(&b, "  queue-wait SLO:  %s\n", c.SLO)
	fmt.Fprintf(&b, "  default timeout: %s\n", c.DefaultTimeout)
	fmt.Fprintf(&b, "  max timeout:     %s\n", c.MaxTimeout)
	fmt.Fprintf(&b, "  drain timeout:   %s\n", c.DrainTimeout)
	return b.String()
}

// Server is the multi-tenant HTTP front end. Create one with New, mount
// Handler() on a listener (or httptest), and Shutdown to drain.
type Server struct {
	cfg Config
	reg *Registry
	adm *admission
	mux *http.ServeMux

	requests      atomic.Uint64
	timeouts      atomic.Uint64
	clientCancels atomic.Uint64
	drainRejects  atomic.Uint64

	// drain state: once draining, new requests are rejected with 503 while
	// in-flight handlers (counted under mu) run to completion. idle is
	// created by Shutdown when handlers are still in flight and closed by
	// the last one to leave.
	mu        sync.Mutex
	draining  bool
	inflightN int64
	idle      chan struct{}
}

// New builds a Server over a tenant registry.
func New(cfg Config, reg *Registry) *Server {
	cfg.fill()
	s := &Server{
		cfg: cfg,
		reg: reg,
		adm: newAdmission(cfg.Concurrency, cfg.QueueDepth, cfg.SLO),
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /plan", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, false) })
	s.mux.HandleFunc("POST /plansql", func(w http.ResponseWriter, r *http.Request) { s.handlePlan(w, r, true) })
	s.mux.HandleFunc("POST /execute", func(w http.ResponseWriter, r *http.Request) { s.handleExecute(w, r, false) })
	s.mux.HandleFunc("POST /executesql", func(w http.ResponseWriter, r *http.Request) { s.handleExecute(w, r, true) })
	s.mux.HandleFunc("GET /phase", s.handlePhase)
	s.mux.HandleFunc("GET /drift", s.handleDrift)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /cache", s.handleCache)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Registry returns the tenant registry.
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the HTTP handler: the route mux wrapped in the
// drain/accounting middleware.
func (s *Server) Handler() http.Handler { return s }

// enter admits a request past the drain gate, counting it in flight.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflightN++
	return true
}

// leave uncounts a finished request and, when the drain is waiting on the
// last one, signals it.
func (s *Server) leave() {
	s.mu.Lock()
	s.inflightN--
	if s.inflightN == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// ServeHTTP implements http.Handler with the drain gate: while draining,
// every endpoint except /healthz answers 503 so load balancers and clients
// move on, and in-flight requests are counted so Shutdown can wait for them.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		if r.URL.Path == "/healthz" {
			s.handleHealthz(w, r)
			return
		}
		s.drainRejects.Add(1)
		writeError(w, &apiError{
			status: http.StatusServiceUnavailable, code: "draining",
			message: "server is draining; no new requests accepted",
		})
		return
	}
	defer s.leave()
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server gracefully: it stops admitting new requests
// (503 + "draining"), cancels every tenant's learning lifecycle and waits
// for the lifecycle goroutines to exit, then waits for in-flight plans to
// complete — they run under their own request contexts, so a shutdown
// mid-training still returns every admitted response. Returns ctx.Err() if
// the drain outlives ctx (cfg.DrainTimeout is the caller's conventional
// bound). Safe to call once; later calls return immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var idle chan struct{}
	if s.inflightN > 0 {
		idle = make(chan struct{})
		s.idle = idle
	}
	s.mu.Unlock()
	// Stop every lifecycle first: training holds goroutines (actors,
	// learner) that must exit cleanly; in-flight serving is untouched — Plan
	// calls run under their own request contexts.
	var firstErr error
	for _, t := range s.reg.All() {
		if err := t.svc.StopTraining(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("server: stopping tenant %q lifecycle: %w", t.name, err)
		}
	}
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return firstErr
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tenantFor resolves the request's tenant from the "tenant" query parameter
// or the X-Tenant header.
func (s *Server) tenantFor(r *http.Request) (*Tenant, *apiError) {
	var name string
	if r.URL.RawQuery != "" { // Query() builds a map per call, even of nothing
		name = r.URL.Query().Get("tenant")
	}
	if name == "" {
		name = r.Header.Get("X-Tenant")
	}
	t, ok := s.reg.Get(name)
	if !ok {
		if name == "" {
			return nil, &apiError{
				status: http.StatusBadRequest, code: "unknown_tenant",
				message: fmt.Sprintf("no tenant named; pass ?tenant= or X-Tenant (registered: %s)", strings.Join(s.reg.Names(), ", ")),
			}
		}
		return nil, &apiError{
			status: http.StatusNotFound, code: "unknown_tenant",
			message: fmt.Sprintf("unknown tenant %q (registered: %s)", name, strings.Join(s.reg.Names(), ", ")),
		}
	}
	return t, nil
}

// timeoutFor resolves the effective planning deadline for a request. A
// requested timeout is compared with the cap in milliseconds before it is
// converted: timeout_ms above about 9.2e12 overflows a time.Duration.
func (s *Server) timeoutFor(req *PlanRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMs > int64(s.cfg.MaxTimeout/time.Millisecond) {
		return s.cfg.MaxTimeout
	}
	if req.TimeoutMs > 0 {
		d = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// resolveError puts a failure to resolve a request's query on the wire as a
// 400: a name the tenant's catalog lacks, or else SQL that does not parse.
// The planner is deliberately lenient about unknown names (it costs what it
// can), but over the wire that leniency would turn client typos into
// confusing plans instead of 400s.
func resolveError(tenant *Tenant, err error) *apiError {
	var ce *handsfree.CatalogError
	switch {
	case !errors.As(err, &ce):
		return badRequest("parsing SQL: %v", err)
	case ce.Table != "":
		return badRequest("tenant %q has no table %q", tenant.name, ce.Table)
	default:
		return badRequest("%v", err)
	}
}

// resolvePlanShaped resolves the tenant, decodes the body, and validates the
// query for a planning-shaped request — the front half shared by /plan,
// /plansql, /execute, and /executesql.
func (s *Server) resolvePlanShaped(r *http.Request, wantSQL, allowExec bool) (*Tenant, *PlanRequest, *handsfree.Query, string, *apiError) {
	tenant, apiErr := s.tenantFor(r)
	if apiErr != nil {
		return nil, nil, nil, "", apiErr
	}
	req, apiErr := decodePlanRequest(r.Body, wantSQL, allowExec)
	if apiErr != nil {
		return nil, nil, nil, "", apiErr
	}
	var q *handsfree.Query
	var label string
	if wantSQL {
		// The tenant's service resolves the text — from its statement table
		// when it has seen it before, by parsing it and checking it against
		// the catalog when not.
		resolved, err := tenant.svc.ResolveSQL(req.SQL)
		if err != nil {
			return nil, nil, nil, "", resolveError(tenant, err)
		}
		q, label = resolved, req.SQL
	} else {
		var wireErr *apiError
		q, wireErr = req.Query.toQuery()
		if wireErr != nil {
			return nil, nil, nil, "", wireErr
		}
		label = q.Name
		if label == "" {
			label = q.SQL()
		}
		if err := tenant.svc.CheckCatalog(q); err != nil {
			return nil, nil, nil, "", resolveError(tenant, err)
		}
	}
	return tenant, req, q, label, nil
}

// planError maps a Plan/Execute error onto the wire: deadline → 504, client
// cancel → 499, anything else → 422 with the given code.
func (s *Server) planError(w http.ResponseWriter, err error, deadline time.Duration, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, &apiError{
			status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			message: fmt.Sprintf("planning exceeded the %s deadline", deadline),
		})
	case errors.Is(err, context.Canceled):
		// The client went away mid-plan; nobody reads this response, but
		// count it and answer coherently for proxies that still do.
		s.clientCancels.Add(1)
		writeError(w, &apiError{status: 499, code: "canceled", message: "client closed the request"})
	default:
		writeError(w, &apiError{status: http.StatusUnprocessableEntity, code: code, message: err.Error()})
	}
}

// handlePlan serves POST /plan (structured IR) and POST /plansql (SQL text):
// resolve the tenant, decode, pass admission, then run the tenant's
// safeguarded Plan under the per-request deadline.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, wantSQL bool) {
	s.requests.Add(1)
	tenant, req, q, label, apiErr := s.resolvePlanShaped(r, wantSQL, false)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}

	release, queueWait, apiErr := s.adm.admit(r.Context())
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	defer release()

	deadline := s.timeoutFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	start := time.Now()
	res, err := tenant.svc.Plan(ctx, q)
	planTime := time.Since(start)
	if err != nil {
		s.planError(w, err, deadline, "plan_error")
		return
	}
	resp := PlanResponse{
		Tenant:        tenant.name,
		Query:         label,
		Source:        res.Source.String(),
		Cost:          res.Cost,
		ExpertCost:    res.ExpertCost,
		PolicyVersion: res.PolicyVersion,
		Phase:         tenant.svc.Phase().String(),
		QueueMs:       float64(queueWait) / float64(time.Millisecond),
		PlanMs:        float64(planTime) / float64(time.Millisecond),
	}
	if !math.IsNaN(res.LearnedCost) {
		lc := res.LearnedCost
		resp.LearnedCost = &lc
	}
	if req.Explain {
		resp.Plan = handsfree.ExplainPlan(res.Plan)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleExecute serves POST /execute (structured IR) and POST /executesql
// (SQL text): the same safeguarded serving decision as /plan, but the served
// plan is then run on the tenant's engine and its observed latency returned —
// and recorded, so every call feeds the tenant's latency guard and drift
// detector. The per-request deadline covers planning and execution together.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request, wantSQL bool) {
	s.requests.Add(1)
	tenant, req, q, label, apiErr := s.resolvePlanShaped(r, wantSQL, true)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}

	release, queueWait, apiErr := s.adm.admit(r.Context())
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	defer release()

	deadline := s.timeoutFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	start := time.Now()
	var res handsfree.ExecResult
	var err error
	if req.Mode == "approx" {
		res, err = tenant.svc.ExecuteApprox(ctx, q, req.MaxError)
	} else {
		res, err = tenant.svc.Execute(ctx, q)
	}
	total := time.Since(start)
	if err != nil {
		s.planError(w, err, deadline, "execute_error")
		return
	}
	resp := ExecuteResponse{
		Tenant:         tenant.name,
		Query:          label,
		Source:         res.Source.String(),
		LatencyGuarded: res.LatencyGuarded,
		Failed:         res.Failed,
		Cost:           res.Cost,
		ExpertCost:     res.ExpertCost,
		PolicyVersion:  res.PolicyVersion,
		Phase:          tenant.svc.Phase().String(),
		Fingerprint:    fmt.Sprintf("%016x", res.Fingerprint),
		LatencyMs:      res.LatencyMs,
		TimedOut:       res.TimedOut,
		Rows:           res.Rows,
		WorkUnits:      res.WorkUnits,
		QueueMs:        float64(queueWait) / float64(time.Millisecond),
		TotalMs:        float64(total) / float64(time.Millisecond),
	}
	if !math.IsNaN(res.LearnedCost) {
		lc := res.LearnedCost
		resp.LearnedCost = &lc
	}
	if !math.IsNaN(res.LatencyRatio) {
		lr := res.LatencyRatio
		resp.LatencyRatio = &lr
	}
	resp.Approx = res.Approx
	resp.ApproxFellBack = res.ApproxFellBack
	resp.SampleFraction = res.SampleFraction
	for _, est := range res.Estimates {
		resp.Estimates = append(resp.Estimates, EstimateInfo{
			Name: est.Name, Kind: est.Kind,
			Value: est.Value, Lo: est.Lo, Hi: est.Hi, RelError: est.RelError,
		})
	}
	if req.Explain {
		resp.Plan = handsfree.ExplainPlan(res.Plan)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDrift serves GET /drift: one tenant's execution feedback snapshot —
// resolved guard/drift thresholds, the loop's counters, and the history
// store behind them. Tenants share nothing here: one tenant's drift never
// shows in another's response.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	tenant, apiErr := s.tenantFor(r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	st := tenant.svc.ExecStats()
	ec := tenant.svc.ExecutionConfig()
	resp := DriftResponse{
		Tenant:         tenant.name,
		Phase:          tenant.svc.Phase().String(),
		GuardRatio:     ec.GuardRatio,
		DriftRatio:     ec.DriftRatio,
		DriftSustain:   ec.DriftSustain,
		Executions:     st.Executions,
		Failures:       st.Failures,
		TimedOut:       st.TimedOut,
		LatencyGuarded: st.LatencyGuarded,
		DriftEvents:    st.DriftEvents,
		Retrains:       st.Retrains,
		History: ExecHistoryInfo{
			Fingerprints:   st.History.Fingerprints,
			Evictions:      st.History.Evictions,
			Records:        st.History.Records,
			Learned:        st.History.Learned,
			Expert:         st.History.Expert,
			Rejected:       st.History.Rejected,
			TimedOut:       st.History.TimedOut,
			Failures:       st.History.Failures,
			LearnedHeld:    st.History.LearnedHeld,
			ExpertHeld:     st.History.ExpertHeld,
			LearnedFlushes: st.History.LearnedFlushes,
		},
		ScanMemo: ScanMemoInfo(st.ScanMemo),
	}
	if !math.IsNaN(st.DriftWorstRatio) {
		wr := st.DriftWorstRatio
		resp.WorstRatio = &wr
	}
	// The per-fingerprint view, bounded so a hot store cannot balloon the
	// response: the store orders entries most recently executed first, so
	// the cap keeps the fingerprints an operator is acting on.
	const maxDriftEntries = 256
	for _, e := range tenant.svc.DriftEntries(maxDriftEntries) {
		info := DriftEntryInfo{
			Fingerprint: fmt.Sprintf("%016x", e.Fingerprint),
			Learned:     e.LearnedN,
			Expert:      e.ExpertN,
			Streak:      e.Streak,
			LastSource:  e.LastSource,
		}
		if !math.IsNaN(e.Ratio) {
			ratio := e.Ratio
			info.Ratio = &ratio
		}
		resp.Entries = append(resp.Entries, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePhase serves GET /phase: one tenant's lifecycle state.
func (s *Server) handlePhase(w http.ResponseWriter, r *http.Request) {
	tenant, apiErr := s.tenantFor(r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	st := tenant.svc.LifecycleStats()
	resp := PhaseResponse{
		Tenant:         tenant.name,
		Phase:          st.Phase.String(),
		TrainingActive: tenant.svc.TrainingActive(),
		PolicyVersion:  st.PolicyVersion,
	}
	for _, tr := range st.Transitions {
		resp.Transitions = append(resp.Transitions, TransitionInfo{
			From: tr.From.String(), To: tr.To.String(), Reason: tr.Reason, At: tr.At,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats serves GET /stats: the admission counters plus every tenant's
// lifecycle/serving snapshot (or one tenant's with ?tenant=).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight, draining := s.inflightN, s.draining
	s.mu.Unlock()
	resp := StatsResponse{
		Server: ServerStats{
			Requests:      s.requests.Load(),
			Admitted:      s.adm.admitted.Load(),
			ShedQueueFull: s.adm.shedQueueFull.Load(),
			ShedSLO:       s.adm.shedSLO.Load(),
			Timeouts:      s.timeouts.Load(),
			ClientCancels: s.clientCancels.Load(),
			DrainRejects:  s.drainRejects.Load(),
			Inflight:      inflight,
			Queued:        s.adm.queued.Load(),
			Tenants:       s.reg.Len(),
			Draining:      draining,
		},
		Tenants: []TenantStats{},
	}
	tenants := s.reg.All()
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.reg.Get(name)
		if !ok {
			writeError(w, &apiError{status: http.StatusNotFound, code: "unknown_tenant", message: fmt.Sprintf("unknown tenant %q", name)})
			return
		}
		tenants = []*Tenant{t}
	}
	for _, t := range tenants {
		st := t.svc.LifecycleStats()
		ts := TenantStats{
			Name:          t.name,
			Phase:         st.Phase.String(),
			PolicyVersion: st.PolicyVersion,
			Plans:         st.Plans,
			LearnedServed: st.LearnedServed,
			ExpertServed:  st.ExpertServed,
			Fallbacks:     st.Fallbacks,
			CostEpisodes:  st.CostEpisodes,
			LatencyEps:    st.LatencyEpisodes,
		}
		if !math.IsInf(st.CostRatio, 0) && st.CostRatio > 0 {
			ts.CostRatio = st.CostRatio
		}
		ts.StatsMode = t.svc.StatsMode().String()
		ap := t.svc.ApproxStats()
		ts.ApproxServed = ap.Served
		ts.ApproxFallbacks = ap.Fallbacks
		ts.ApproxAudits = ap.Audits
		ts.AuditEstimates = ap.AuditEstimates
		ts.AuditCovered = ap.AuditCovered
		if !math.IsNaN(ap.AuditMeanRelError) {
			mre := ap.AuditMeanRelError
			ts.AuditMeanRelError = &mre
		}
		resp.Tenants = append(resp.Tenants, ts)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCache serves GET /cache: one tenant's plan cache counters.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	tenant, apiErr := s.tenantFor(r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	st := tenant.svc.CacheStats()
	writeJSON(w, http.StatusOK, CacheResponse{
		Tenant:    tenant.name,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Puts:      st.Puts,
		Evictions: st.Evictions,
		Size:      st.Size,
		HitRate:   st.HitRate(),

		StatementHits:   st.Statements.Hits,
		StatementMisses: st.Statements.Misses,
		StatementSize:   st.Statements.Size,
	})
}

// handleHealthz serves GET /healthz: 200 "ok" while serving, 503 "draining"
// once Shutdown begins (so load balancers rotate the instance out).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", Tenants: s.reg.Len()}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
