package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"handsfree/internal/server"
)

// runConfig is one invocation on one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// rounds is how many rounds the run makes: a smoke run one, to stay short.
func (c runConfig) rounds() int {
	if c.smoke {
		return 1
	}
	return c.w.rounds
}

// traceSample is how many requests each part of the traced pass makes.
func (c runConfig) traceSample() int {
	if c.smoke {
		return c.w.traceSample / 20
	}
	return c.w.traceSample
}

// traceReserve is how many requests at the end of a unique workload's pool
// the measured phase leaves for the traced pass's three samples, so that
// those too are fingerprints the service has never seen.
func (c runConfig) traceReserve() int {
	if c.w.unique {
		return 3 * c.traceSample()
	}
	return 0
}

// counters are the server-side and runtime counts, by name, read at one
// moment; the difference of two readings is what a measured segment moved.
type counters map[string]float64

// readCounters reads the server's counters and the runtime's. cacheSize is a
// gauge, kept apart from the counts. conserved reports the safeguard's counter
// invariant: plans == learned + expert + fallbacks.
func readCounters(t *tenant) (c counters, cacheSize float64, conserved bool, err error) {
	var st server.StatsResponse
	var ca server.CacheResponse
	var dr server.DriftResponse
	for path, v := range map[string]any{"/stats": &st, "/cache": &ca, "/drift": &dr} {
		if err := getJSON(t.client, t.ts.URL+path, v); err != nil {
			return nil, 0, false, err
		}
	}
	if len(st.Tenants) != 1 {
		return nil, 0, false, fmt.Errorf("/stats lists %d tenants, want 1", len(st.Tenants))
	}
	ten := st.Tenants[0]
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return counters{
		"plans": float64(ten.Plans), "learned": float64(ten.LearnedServed),
		"expert": float64(ten.ExpertServed), "fallbacks": float64(ten.Fallbacks),
		"shed":       float64(st.Server.ShedQueueFull + st.Server.ShedSLO),
		"timeouts":   float64(st.Server.Timeouts),
		"cache_hits": float64(ca.Hits), "cache_misses": float64(ca.Misses), "cache_evictions": float64(ca.Evictions),
		"executions": float64(dr.Executions), "history_records": float64(dr.History.Records),
		"latency_guarded": float64(dr.LatencyGuarded), "exec_timed_out": float64(dr.TimedOut),
		"mallocs": float64(mem.Mallocs), "alloc_bytes": float64(mem.TotalAlloc), "gc_pause_ns": float64(mem.PauseTotalNs),
	}, float64(ca.Size), ten.Plans == ten.LearnedServed+ten.ExpertServed+ten.Fallbacks, nil
}

// measured is the outcome of the measured phase: what the clients saw and
// what the server counted meanwhile.
type measured struct {
	load      load
	moved     counters
	cacheSize float64
	setups    []setup  // one per round that set up without error
	peakRSSMB float64  // the highest of the serving segments' high-water marks
	problems  []string // failed whole-run checks
	pacer     *pacer   // runs throughout
}

// segment drives one tenant with one loadSpec, between two counter
// readings, and checks the readings against what the clients saw. With
// ownPeak the resident-set high-water mark is the segment's own: the memory of
// whatever came before it is handed back first.
func (m *measured) segment(ctx context.Context, t *tenant, spec loadSpec, ownPeak bool) error {
	debug.FreeOSMemory() // collects, too
	if ownPeak {
		if err := resetPeakRSS(); err != nil {
			return err
		}
	}
	before, _, _, err := readCounters(t)
	if err != nil {
		return err
	}
	l := runLoad(t.client, spec)
	after, cacheSize, conserved, err := readCounters(t)
	if err != nil {
		return err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	m.peakRSSMB = max(m.peakRSSMB, peak)
	if err := verifySampled(ctx, t, spec.reqs, l); err != nil {
		return err
	}
	if !conserved {
		m.problems = append(m.problems, "/stats: plans != learned + expert + fallbacks")
	}
	// Every request that reached Service.Plan is counted once; only when no
	// request failed is that the number of 200s.
	if plans := int(after["plans"] - before["plans"]); l.failed == 0 && plans != l.ok {
		m.problems = append(m.problems, fmt.Sprintf("/stats counted %d plans, clients saw %d OK responses", plans, l.ok))
	}
	if m.moved == nil {
		m.moved = counters{}
	}
	for k := range after {
		m.moved[k] += after[k] - before[k]
	}
	m.cacheSize = cacheSize
	for i := range l.slices {
		l.slices[i].Pace = m.pacer.pace(l.slices[i].from, l.slices[i].to)
	}
	m.load.merge(l)
	return nil
}

// rounds is the measured phase: cfg.seconds in cfg.rounds() equal rounds.
// Each round first sets up from scratch, timed, and then serves the
// workload's requests, closed loop, until the round's time is up. The tenant
// served is the first round's throughout, so caches, histories and a unique
// workload's request sequence run on across the rounds; the later set-ups are
// there because a run must set up at several moments, or the seconds it
// started in decide setup_s and train_episodes_per_s. It returns the tenant
// and its requests.
func (m *measured) rounds(ctx context.Context, cfg runConfig) (*tenant, []request, error) {
	m.pacer = startPacer()
	defer m.pacer.close()
	var t *tenant
	var spec loadSpec
	roundLen := time.Duration(cfg.seconds / float64(cfg.rounds()) * float64(time.Second))
	start := time.Now()
	for r := 0; r < cfg.rounds(); r++ {
		m.load.attempted++ // a set-up is one operation, like a request
		s, err := setUp(ctx, cfg.w, cfg.seed, cfg.smoke, m.pacer)
		switch {
		case err == nil:
			m.setups = append(m.setups, s)
		case t == nil:
			return nil, nil, fmt.Errorf("set-up: %w", err)
		default:
			m.load.fail("set-up %d: %v", r, err)
		}
		if t == nil {
			if t, err = serve(s.svc); err != nil {
				return nil, nil, err
			}
			spec = loadSpec{
				url: t.ts.URL + cfg.w.endpoint, reqs: s.reqs, cycle: !cfg.w.unique,
				clients: clients, verifyEvery: cfg.w.verifyEvery, executes: cfg.w.executes(),
			}
			if cfg.w.warm {
				warm := spec
				warm.limit = len(s.reqs)
				if l := runLoad(t.client, warm); l.failed > 0 {
					return t, nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", l.failed, l.attempted, l.failures)
				}
			}
		}
		// A set-up that overran its round still leaves a quarter of one to serve.
		left := max(time.Until(start.Add(time.Duration(r+1)*roundLen)), roundLen/4)
		spec.seconds = left.Seconds()
		if cfg.w.unique {
			if spec.limit = len(spec.reqs) - cfg.traceReserve() - spec.first; spec.limit <= 0 {
				return t, nil, fmt.Errorf("round %d: the %d generated requests are used up", r, len(spec.reqs))
			}
		}
		sent := m.load.attempted
		if err := m.segment(ctx, t, spec, !cfg.w.aboutTraining); err != nil {
			return t, nil, err
		}
		if cfg.w.unique {
			spec.first += m.load.attempted - sent
		}
	}
	return t, spec.reqs, nil
}

// runWorkload measures and (with cfg.trace) traces one workload. The
// human-readable report goes to log; the caller prints the result line.
func runWorkload(ctx context.Context, cfg runConfig, log io.Writer) (result, error) {
	if err := checkEnv(); err != nil {
		return result{}, err
	}
	env := describeEnvironment()
	fmt.Fprintf(log, "workload %s: %s\n", cfg.w.name, cfg.w.why)
	fmt.Fprintf(log, "seed %d, %g s measured in %d rounds, %d closed-loop clients, trace %v\n", cfg.seed, cfg.seconds, cfg.rounds(), clients, cfg.trace)
	fmt.Fprintf(log, "environment: %+v\n", env)

	var out measured
	t, reqs, err := out.rounds(ctx, cfg)
	if t != nil {
		defer t.close()
	}
	if err != nil {
		return result{}, err
	}

	l := &out.load
	if l.ok == 0 {
		return result{}, fmt.Errorf("no request succeeded: %v", l.failures)
	}
	final := out.setups[0].lc.stats.CostRatio
	for _, s := range out.setups {
		if got := s.lc.stats.CostRatio; got != final {
			out.problems = append(out.problems, fmt.Sprintf("lifecycles disagree on the final cost ratio: %v and %v", final, got))
		}
	}
	// Times and rates are paced (see pace.go): each is scaled by how slow the
	// box was while it was measured, and the run reports the median.
	m := metrics{"final_cost_ratio": final, "served_cost_ratio": l.costRatio(), "peak_rss_mb": out.peakRSSMB}
	m["setup_s"] = medianOf(out.setups, func(s setup) float64 { return s.all / s.slow })
	m["setup.new_s"] = medianOf(out.setups, func(s setup) float64 { return s.newS / s.slow })
	m["setup.train_s"] = medianOf(out.setups, func(s setup) float64 { return s.trainS / s.slow })
	m["setup.generate_s"] = medianOf(out.setups, func(s setup) float64 { return s.generateS / s.slow })
	m["train_episodes_per_s"] = medianOf(out.setups, func(s setup) float64 { return s.lc.epsPS * s.slow })
	m["throughput_rps"] = medianOf(l.slices, func(s slice) float64 { return s.RPS * s.Pace })
	m["latency_p50_ms"] = medianOf(l.slices, func(s slice) float64 { return s.P50Ms / s.Pace })
	m["latency_p99_ms"] = medianOf(l.slices, func(s slice) float64 { return s.P99Ms / s.Pace })
	m["bench.pace"] = medianOf(l.slices, func(s slice) float64 { return s.Pace })
	for _, s := range l.slices {
		if s.Beyond < minBeyond && !cfg.smoke {
			return result{}, fmt.Errorf("a slice of %d samples has %d beyond its 99th percentile, want at least %d: measure for longer", s.OK, s.Beyond, minBeyond)
		}
	}
	fmt.Fprintf(log, "measured %.2f s of load: %d attempted, %d OK, %d failed; %d latency samples in %d slices; %d set-ups; pace of the box %.3f\n",
		l.wall.Seconds(), l.attempted, l.ok, l.failed, len(l.samples), len(l.slices), len(out.setups), m["bench.pace"])
	fmt.Fprintf(log, "as the clock read them: %.1f requests/s, slice p50 %.4f ms, slice p99 %.4f ms, set-up %.4f s\n",
		float64(l.ok)/l.wall.Seconds(), medianOf(l.slices, func(s slice) float64 { return s.P50Ms }),
		medianOf(l.slices, func(s slice) float64 { return s.P99Ms }), medianOf(out.setups, func(s setup) float64 { return s.all }))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out.exportCounters(m)
		lifecycleMetrics(m, out.setups)
		tr := newTracer()
		if err := tracedPass(ctx, cfg, t, reqs, m, tr); err != nil {
			return result{}, fmt.Errorf("traced pass: %w", err)
		}
		if err := writeJSONFile(cfg.outDir, cfg.w.name+".trace.json", tr.spans); err != nil {
			return result{}, err
		}
	}

	for _, f := range append(l.failures, out.problems...) {
		fmt.Fprintf(log, "FAILED %s\n", f)
	}
	exported, err := m.export(defs)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   l.failed == 0 && len(out.problems) == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics:   exported,
	}
	for _, d := range defs {
		fmt.Fprintf(log, "  %-32s %14.4f %s\n", d.name, exported[d.name].Value, d.unit)
	}
	// The record keeps what the clock read: slices and set-ups unpaced, each
	// with its pace.
	type setupRecord struct {
		Seconds float64 `json:"seconds"`
		Pace    float64 `json:"pace"`
	}
	record := struct {
		Workload    string        `json:"workload"`
		Why         string        `json:"why"`
		Seed        int64         `json:"seed"`
		Seconds     float64       `json:"seconds"`
		Rounds      int           `json:"rounds"`
		Clients     int           `json:"clients"`
		Loop        string        `json:"loop"`
		Trace       bool          `json:"trace"`
		Environment environment   `json:"environment"`
		Setups      []setupRecord `json:"setups"`
		Slices      []slice       `json:"slices"`
		Result      result        `json:"result"`
	}{cfg.w.name, cfg.w.why, cfg.seed, cfg.seconds, cfg.rounds(), clients, "closed", cfg.trace, env, nil, l.slices, res}
	for _, s := range out.setups {
		record.Setups = append(record.Setups, setupRecord{s.all, s.pace})
	}
	name := cfg.w.name + ".json"
	if cfg.trace {
		name = cfg.w.name + ".layers.json"
	}
	if err := writeJSONFile(cfg.outDir, name, record); err != nil {
		return result{}, err
	}
	return res, nil
}

// exportCounters turns the counts the measured phase moved into per-layer
// metrics.
func (m *measured) exportCounters(out metrics) {
	c := m.moved
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	requests := float64(m.load.attempted)
	out["server.shed"] = c["shed"]
	out["server.timeouts"] = c["timeouts"]
	out["plancache.hit_rate"] = share(c["cache_hits"], c["cache_hits"]+c["cache_misses"])
	out["plancache.evictions"] = c["cache_evictions"]
	out["plancache.size"] = m.cacheSize
	out["service.learned_share"] = share(c["learned"], c["plans"])
	out["service.fallback_share"] = share(c["fallbacks"], c["plans"])
	out["service.expert_share"] = share(c["expert"], c["plans"])
	// A rollout whose plan the guards then discard is wasted work.
	out["service.rollout_useful_share"] = share(c["learned"], c["learned"]+c["fallbacks"])
	out["service.latency_guarded"] = c["latency_guarded"]
	// Every history record beyond one per execution is an expert shadow probe.
	out["exechistory.probe_share"] = share(c["history_records"]-c["executions"], c["executions"])
	out["engine.timeouts"] = c["exec_timed_out"]
	out["runtime.allocs_per_req"] = share(c["mallocs"], requests)
	out["runtime.alloc_kb_per_req"] = share(c["alloc_bytes"]/1024, requests)
	out["runtime.gc_pause_ms"] = c["gc_pause_ns"] / 1e6
}

// lifecycleMetrics reports the phases of the lifecycles the run's set-ups
// trained, paced like setup_s.
func lifecycleMetrics(m metrics, setups []setup) {
	m["lifecycle.demonstration_s"] = medianOf(setups, func(s setup) float64 { return s.lc.demonstration.Seconds() / s.slow })
	m["lifecycle.cost_training_s"] = medianOf(setups, func(s setup) float64 { return s.lc.costTraining.Seconds() / s.slow })
	m["lifecycle.latency_tuning_s"] = medianOf(setups, func(s setup) float64 { return s.lc.latencyTuning.Seconds() / s.slow })
	m["lifecycle.cost_eps_per_s"] = medianOf(setups, func(s setup) float64 { return s.lc.costEpisodesPerS * s.slow })
	m["lifecycle.latency_eps_per_s"] = medianOf(setups, func(s setup) float64 { return s.lc.latencyEpisodesPerS * s.slow })
	m["paramserver.publishes"] = medianOf(setups, func(s setup) float64 { return float64(s.lc.stats.PolicyVersion) })
}
