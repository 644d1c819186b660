// Command handsfree regenerates the paper's figures and experiments, runs
// the optimizer-as-a-service lifecycle end to end, and plans single queries.
//
//	handsfree fig3a        ReJOIN convergence (Figure 3a)
//	handsfree fig3b        final plan cost per JOB query (Figure 3b)
//	handsfree fig3c        planning time vs relation count (Figure 3c)
//	handsfree naive        §4: naive full-plan-space DRL vs restricted
//	handsfree scratch      §4 footnote 2: latency-as-reward from scratch
//	handsfree lfd          §5.1: learning from demonstration
//	handsfree bootstrap    §5.2: cost-model bootstrapping
//	handsfree incremental  §5.3: incremental learning curricula
//	handsfree service      run the Service lifecycle (demonstration →
//	                       cost training → latency tuning) and serve the
//	                       workload through the safeguarded Plan path
//	handsfree serve        multi-tenant JSON-over-HTTP optimizer server
//	                       with admission control and graceful drain
//	handsfree plan         optimize one query (-sql or -named) with every
//	                       planner, then serve it through the safeguarded
//	                       decision path (-execute also runs it)
//	handsfree env          print the resolved compute and serving
//	                       configuration (engine, precision, tile sizes,
//	                       workers, address, tenants, queue, SLO)
//	handsfree all          every experiment in sequence
//
// Flags:
//
//	-quick        miniature substrate (scale 0.05, not 0.25) and budgets
//	              (minutes → seconds)
//	-scale f      database scale factor override
//	-seed n       experiment seed override
//	-timeout d    service mode: overall lifecycle deadline, and per-query
//	              planning deadline on the Plan(ctx) serving path; plan
//	              mode: deadline of each planning call
//
// Plan-mode flags:
//
//	-sql s        SQL text to optimize
//	-named s      named workload query (e.g. 1a, 8c, 22c)
//	-execute      also execute the served plan on the columnar engine
//
//	handsfree -named 8c -execute plan
//	handsfree -quick -sql "SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id AND t.production_year > 80" plan
//
// Serve-mode flags (see `handsfree env` for the resolved values):
//
//	-addr s             listen address (default :8080)
//	-tenants n          independent tenants to mount (default 1)
//	-concurrency n      concurrent planning slots (default GOMAXPROCS)
//	-queue n            admission queue depth (default 4×concurrency)
//	-slo d              queue-wait SLO before load shedding (default 500ms)
//	-request-timeout d  default per-request planning deadline (default 30s)
//	-max-timeout d      cap on client-requested timeout_ms (default 2m)
//	-drain d            graceful-drain budget on shutdown (default 30s)
//	-train              start the learning lifecycle on every tenant; it
//	                    stays resident and re-trains on observed drift
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"handsfree"
	"handsfree/internal/experiment"
	"handsfree/internal/nn"
	"handsfree/internal/server"
)

func main() {
	quick := flag.Bool("quick", false, "use the miniature substrate and budgets")
	scale := flag.Float64("scale", 0, "database scale factor override")
	seed := flag.Int64("seed", 0, "experiment seed override")
	timeout := flag.Duration("timeout", 0, "service and plan modes: per-query planning deadline, and the service lifecycle's (0 = none)")
	sql := flag.String("sql", "", "plan mode: SQL text to optimize")
	named := flag.String("named", "", "plan mode: named workload query (e.g. 1a, 8c, 22c)")
	execute := flag.Bool("execute", false, "plan mode: also execute the served plan on the columnar engine")
	addr := flag.String("addr", "", "serve mode: listen address (default :8080)")
	tenants := flag.Int("tenants", 1, "serve mode: number of independent tenants to mount")
	concurrency := flag.Int("concurrency", 0, "serve mode: concurrent planning slots (default GOMAXPROCS)")
	queueDepth := flag.Int("queue", 0, "serve mode: admission queue depth (default 4×concurrency)")
	slo := flag.Duration("slo", 0, "serve mode: queue-wait SLO before load shedding (default 500ms)")
	reqTimeout := flag.Duration("request-timeout", 0, "serve mode: default per-request planning deadline (default 30s)")
	maxTimeout := flag.Duration("max-timeout", 0, "serve mode: cap on client-requested timeout_ms (default 2m)")
	drain := flag.Duration("drain", 0, "serve mode: graceful-drain budget on shutdown (default 30s)")
	train := flag.Bool("train", false, "serve mode: start the learning lifecycle on every tenant (resident, re-trains on drift)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := strings.ToLower(flag.Arg(0))

	serveCfg := server.Config{
		Addr:           *addr,
		Concurrency:    *concurrency,
		QueueDepth:     *queueDepth,
		SLO:            *slo,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drain,
	}

	if cmd == "env" {
		printEnv(serveCfg, *tenants)
		return
	}

	// Every mode opens its substrate at one scale: -scale when given, else
	// the quick or the recorded one.
	dbScale := experiment.DefaultScale
	switch {
	case *scale > 0:
		dbScale = *scale
	case *quick:
		dbScale = experiment.QuickScale
	}

	switch cmd {
	case "service":
		runService(*quick, dbScale, *seed, *timeout)
		return
	case "serve":
		runServe(serveCfg, *tenants, *train, *quick, dbScale, *seed)
		return
	case "plan":
		runPlan(*sql, *named, *execute, dbScale, *timeout)
		return
	}

	fmt.Fprintf(os.Stderr, "building substrate (scale %.2f)…\n", dbScale)
	lab, err := experiment.NewLab(dbScale)
	if err != nil {
		fatal(err)
	}

	run := func(name string, f func() (renderer, error)) {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s…\n", name)
		res, err := f()
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
		fmt.Fprintf(os.Stderr, "%s finished in %s\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	experiments := map[string]func(){
		"fig3a": func() {
			cfg := experiment.DefaultFig3aConfig()
			if *quick {
				cfg.Episodes, cfg.QueryCount, cfg.MaxRel, cfg.Window = 3000, 10, 6, 200
			}
			applySeed(&cfg.Seed, *seed)
			run("fig3a", func() (renderer, error) { return lab.Fig3a(cfg) })
		},
		"fig3b": func() {
			cfg := experiment.DefaultFig3bConfig()
			if *quick {
				cfg.Episodes = 3000
			}
			applySeed(&cfg.Seed, *seed)
			run("fig3b", func() (renderer, error) { return lab.Fig3b(cfg) })
		},
		"fig3c": func() {
			cfg := experiment.DefaultFig3cConfig()
			if *quick {
				cfg.Repeats = 2
			}
			applySeed(&cfg.Seed, *seed)
			run("fig3c", func() (renderer, error) { return lab.Fig3c(cfg) })
		},
		"naive": func() {
			cfg := experiment.DefaultNaiveConfig()
			if *quick {
				cfg.Episodes, cfg.QueryCount, cfg.MinRel, cfg.MaxRel, cfg.EvalEvery = 4000, 8, 4, 6, 500
			}
			applySeed(&cfg.Seed, *seed)
			run("naive", func() (renderer, error) { return lab.NaiveFullSpace(cfg) })
		},
		"scratch": func() {
			cfg := experiment.DefaultScratchLatencyConfig()
			if *quick {
				cfg.Episodes, cfg.QueryCount = 120, 8
			}
			applySeed(&cfg.Seed, *seed)
			run("scratch", func() (renderer, error) { return lab.LatencyFromScratch(cfg) })
		},
		"lfd": func() {
			cfg := experiment.DefaultLfDConfig()
			if *quick {
				cfg.QueryCount, cfg.PretrainBatches, cfg.FineTuneEpisodes = 8, 1200, 250
			}
			applySeed(&cfg.Seed, *seed)
			run("lfd", func() (renderer, error) { return lab.LfDExperiment(cfg) })
		},
		"bootstrap": func() {
			cfg := experiment.DefaultBootstrapConfig()
			if *quick {
				cfg.QueryCount, cfg.Phase1Episodes, cfg.Phase2Episodes, cfg.EvalEvery = 8, 1500, 800, 200
				cfg.MinRel, cfg.MaxRel = 4, 6
			}
			applySeed(&cfg.Seed, *seed)
			run("bootstrap", func() (renderer, error) { return lab.BootstrapExperiment(cfg) })
		},
		"incremental": func() {
			cfg := experiment.DefaultCurriculumConfig()
			if *quick {
				cfg.QueryCount, cfg.EpisodesPerPhase, cfg.MaxRel = 12, 400, 5
			}
			applySeed(&cfg.Seed, *seed)
			run("incremental", func() (renderer, error) { return lab.CurriculumExperiment(cfg) })
		},
		"ablation-oracle": func() {
			cfg := experiment.DefaultAblationOracleConfig()
			if *quick {
				cfg.QueryCount = 8
			}
			applySeed(&cfg.Seed, *seed)
			run("ablation-oracle", func() (renderer, error) { return lab.AblationOracle(cfg) })
		},
		"ablation-enum": func() {
			cfg := experiment.DefaultAblationEnumeratorConfig()
			if *quick {
				cfg.Repeats = 2
			}
			applySeed(&cfg.Seed, *seed)
			run("ablation-enum", func() (renderer, error) { return lab.AblationEnumerator(cfg) })
		},
	}

	if cmd == "all" {
		for _, name := range []string{"fig3a", "fig3b", "fig3c", "naive", "scratch", "lfd", "bootstrap", "incremental", "ablation-oracle", "ablation-enum"} {
			experiments[name]()
		}
		return
	}
	f, ok := experiments[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	f()
}

// runService is the optimizer-as-a-service demo: build a Service, run the
// learning state machine in the background while serving the workload, then
// report the lifecycle transitions and serving counters. The -timeout flag
// bounds the whole lifecycle via context and each Plan call individually.
func runService(quick bool, scale float64, seed int64, timeout time.Duration) {
	if seed == 0 {
		seed = 3
	}
	lifecycleCtx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		lifecycleCtx, cancel = context.WithTimeout(lifecycleCtx, timeout)
	}
	defer cancel()
	planCtx := func() (context.Context, context.CancelFunc) {
		if timeout > 0 {
			return context.WithTimeout(context.Background(), timeout)
		}
		return context.Background(), func() {}
	}

	fmt.Fprintf(os.Stderr, "building service (scale %.2f)…\n", scale)
	svc, err := handsfree.New(
		handsfree.WithScale(scale),
		handsfree.WithWorkload(8, 4, 6, seed),
		handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}),
	)
	if err != nil {
		fatal(err)
	}

	cfg := handsfree.LifecycleConfig{Seed: seed}
	if quick {
		cfg.CostEpisodes = 96
		cfg.EvalEvery = 48
		cfg.LatencyEpisodes = 32
	}
	start := time.Now()
	if err := svc.StartTraining(lifecycleCtx, cfg); err != nil {
		fatal(err)
	}
	// Serve while training: the policy hot-swaps under these Plan calls.
	served := 0
	for svc.TrainingActive() {
		for _, q := range svc.Queries() {
			ctx, done := planCtx()
			if _, err := svc.Plan(ctx, q); err == nil {
				served++
			}
			done()
		}
	}
	if err := svc.WaitTraining(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "lifecycle stopped: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "lifecycle finished in %s (%d plans served during training)\n\n",
		time.Since(start).Round(time.Millisecond), served)

	st := svc.LifecycleStats()
	fmt.Printf("phase: %s (policy v%d)\n", st.Phase, st.PolicyVersion)
	for _, tr := range st.Transitions {
		fmt.Printf("  %s → %s: %s\n", tr.From, tr.To, tr.Reason)
	}
	fmt.Printf("demonstrations: %d, cost episodes: %d (ratio %.3f), latency episodes: %d\n",
		st.Demonstrations, st.CostEpisodes, st.CostRatio, st.LatencyEpisodes)

	fmt.Println("\nexecuting the workload through the safeguarded path:")
	for _, q := range svc.Queries() {
		ctx, done := planCtx()
		res, err := svc.Execute(ctx, q)
		done()
		if err != nil {
			fmt.Printf("  %-24s aborted: %v\n", q.Name, err)
			continue
		}
		note := ""
		switch {
		case res.Failed:
			note = " [exec-failed→expert]"
		case res.LatencyGuarded:
			note = " [latency-guard]"
		}
		fmt.Printf("  %-24s source %-8s cost %12.1f  observed %8.2f ms  (expert %12.1f, policy v%d)%s\n",
			q.Name, res.Source, res.Cost, res.LatencyMs, res.ExpertCost, res.PolicyVersion, note)
	}
	final := svc.LifecycleStats()
	fmt.Printf("\nserving counters: %d plans, %d learned, %d expert, %d fallbacks (guard ratio %.2f)\n",
		final.Plans, final.LearnedServed, final.ExpertServed, final.Fallbacks, svc.FallbackRatio())
	es := svc.ExecStats()
	fmt.Printf("execution feedback: %d executions, %d timed out, %d failures, %d latency-guarded, %d drift events, %d retrains (%d fingerprints tracked)\n",
		es.Executions, es.TimedOut, es.Failures, es.LatencyGuarded, es.DriftEvents, es.Retrains, es.History.Fingerprints)
	fmt.Printf("executor memo: %d joins and aggregations answered, %d run; %d scans answered, %d run; %d join indexes built, %d reused; %d kB held, %d evictions\n",
		es.ScanMemo.PlanHits, es.ScanMemo.PlanMisses, es.ScanMemo.ScanHits, es.ScanMemo.ScanMisses, es.ScanMemo.IndexBuilds, es.ScanMemo.IndexReuses, es.ScanMemo.Bytes>>10, es.ScanMemo.Evictions)
}

// A connection may take readHeaderTimeout to send a request's headers and
// stay idleTimeout between requests; past either the listener closes it, so
// a client that never finishes does not hold a goroutine and a connection
// for good. Neither bounds a request's body or its planning, which the
// per-request deadline does.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the listener runServe puts srv behind.
func newHTTPServer(srv *server.Server) *http.Server {
	return &http.Server{
		Addr:              srv.Config().Addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe mounts N independent tenants — each its own handsfree.Service
// with its own substrate, plan cache, and lifecycle — behind one HTTP
// listener with admission control, then serves until SIGINT/SIGTERM, at
// which point it drains gracefully: in-flight plans complete, training
// stops at an episode boundary, new requests bounce with 503.
func runServe(cfg server.Config, tenantCount int, train, quick bool, scale float64, seed int64) {
	if tenantCount < 1 {
		fatal(fmt.Errorf("-tenants must be at least 1, got %d", tenantCount))
	}
	if seed == 0 {
		seed = 3
	}

	reg := server.NewRegistry()
	services := make([]*handsfree.Service, 0, tenantCount)
	for i := 0; i < tenantCount; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		fmt.Fprintf(os.Stderr, "building %s (scale %.2f, seed %d)…\n", name, scale, seed+int64(i))
		svc, err := handsfree.New(
			handsfree.WithScale(scale),
			handsfree.WithWorkload(8, 4, 6, seed+int64(i)),
			handsfree.WithCache(handsfree.CacheConfig{Capacity: 1 << 14}),
		)
		if err != nil {
			fatal(err)
		}
		if _, err := reg.Add(name, svc); err != nil {
			fatal(err)
		}
		services = append(services, svc)
	}

	if train {
		for i, svc := range services {
			// A served tenant keeps learning: the lifecycle stays resident
			// after done and re-trains on drift; Shutdown retires it.
			lc := handsfree.LifecycleConfig{Seed: seed + int64(i), DriftRetrain: true}
			if quick {
				lc.CostEpisodes = 96
				lc.EvalEvery = 48
				lc.LatencyEpisodes = 32
			}
			if err := svc.StartTraining(context.Background(), lc); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "learning lifecycle started on %d tenant(s)\n", tenantCount)
	}

	srv := server.New(cfg, reg)
	fmt.Fprint(os.Stderr, srv.Config().Describe(tenantCount))
	httpSrv := newHTTPServer(srv)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "listening on %s\n", srv.Config().Addr)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "\n%s: draining (budget %s)…\n", sig, srv.Config().DrainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), srv.Config().DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "listener shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "drained")
	case err := <-errCh:
		fatal(err)
	}
}

// printEnv reports the configuration a run with the same flags and
// environment would resolve to, so perf numbers and deployments are
// reproducible: the kernel each engine entry point runs on this host (with
// the portable tile geometry), the tensor precision, and the serving layer's
// resolved admission/timeout settings.
func printEnv(serveCfg server.Config, tenants int) {
	mr, nr, kc := nn.BlockedTileConfig()
	d := nn.Dispatch()
	fmt.Printf("engine:    gemm=%s gemv=%s adam=%s (portable tile %dx%d, k-block %d)\n",
		d.Gemm, d.Gemv, d.Adam, mr, nr, kc)
	fmt.Printf("precision: %s\n", nn.DefaultPrecision())
	cpu := nn.DetectCPU()
	fmt.Printf("cpu features: avx2=%v fma=%v\n", cpu.AVX2, cpu.FMA)
	fmt.Print(serveCfg.Describe(tenants))
}

// renderer is anything that can print itself.
type renderer interface{ Render() string }

func applySeed(dst *int64, override int64) {
	if override != 0 {
		*dst = override
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "handsfree:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: handsfree [-quick] [-scale f] [-seed n] [-timeout d] <experiment>
       handsfree [-quick] [-scale f] [-timeout d] (-sql s | -named s) [-execute] plan

experiments:
  fig3a        ReJOIN convergence (Figure 3a)
  fig3b        final plan cost per JOB query (Figure 3b)
  fig3c        planning time vs relation count (Figure 3c)
  naive        §4 naive full-plan-space DRL vs restricted join-order DRL
  scratch      §4 footnote 2: latency-as-reward, tabula rasa
  lfd          §5.1 learning from demonstration
  bootstrap    §5.2 cost-model bootstrapping (scaled vs unscaled switch)
  incremental  §5.3 incremental learning curricula
  ablation-oracle  latency headroom vs cost-model error strength
  ablation-enum    bushy DP vs left-deep DP vs greedy vs GEQO
  service      optimizer-as-a-service lifecycle: train in the background
               (demonstration → cost → latency), hot-swap policies, serve
               the workload through the safeguarded Plan(ctx) path
               (-timeout bounds the lifecycle and each planning call)
  serve        multi-tenant JSON-over-HTTP optimizer server: POST /plan,
               POST /plansql, GET /phase /stats /cache /healthz, with
               admission control, load shedding, and graceful drain
               (-addr -tenants -concurrency -queue -slo -request-timeout
               -max-timeout -drain -train)
  plan         optimize one query with every planner (dp, greedy, geqo),
               then serve it through the safeguarded decision path
               (-sql text or -named query; -execute also runs the served
               plan and reports its observed latency; -timeout bounds each
               planning call)
  env          print the resolved compute and serving configuration
               (engine, precision, tile sizes, plus the serve-mode
               address, tenants, queue depth, SLO, timeouts)
  all          run everything
`)
}
