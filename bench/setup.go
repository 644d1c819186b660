package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"handsfree"
	"handsfree/internal/nn"
	"handsfree/internal/optimizer"
	"handsfree/internal/server"
)

// The tenant every workload runs against is the one `handsfree serve -quick`
// builds, with the 6-query workload (see README, Known hazards) and a policy
// trained by one lifecycle. Actors is 1 because that makes the published
// policy bit-for-bit repeatable, so plan-quality metrics are exact and every
// run serves the same learned/fallback mix.
const (
	tenantScale     = 0.05
	cacheCapacity   = 1 << 14
	workloadQueries = 6
	workloadMinRel  = 4
	workloadMaxRel  = 6
	workloadSeed    = 3
	lifecycleSeed   = 3
	costEpisodes    = 1536
	latencyEpisodes = 96
	// clients is the closed-loop client count: one per core of the reference
	// box. Callers of an optimizer wait for their plan, so closed loop is the
	// honest model.
	clients = 2
	// phasePoll is how often a lifecycle's phase is sampled from outside.
	phasePoll = 200 * time.Microsecond
)

// pinnedEnv are the variables that silently change what is measured.
var pinnedEnv = []string{"HANDSFREE_PRECISION", "HANDSFREE_ENGINE", "HANDSFREE_STATS", "HANDSFREE_AVX512"}

func checkEnv() error {
	for _, k := range pinnedEnv {
		if _, set := os.LookupEnv(k); set {
			return fmt.Errorf("%s is set: it changes what the benchmark measures; unset it", k)
		}
	}
	return nil
}

// environment is recorded with every run.
type environment struct {
	Engine     string `json:"engine"`
	Precision  string `json:"precision"`
	CPU        string `json:"cpu_features"`
	StatsMode  string `json:"stats_mode"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func describeEnvironment() environment {
	env := environment{
		Engine:     nn.DefaultEngine().String(),
		Precision:  nn.DefaultPrecision().String(),
		CPU:        fmt.Sprintf("%+v", nn.DetectCPU()),
		StatsMode:  handsfree.StatsAuto.Resolve().String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// procField returns the value of the first "key : value" line of a /proc
// file ("" when the file or key is missing).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// resetPeakRSS restarts the kernel's high-water mark at the current resident
// set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// lifecycle is one training lifecycle as seen from outside the service.
type lifecycle struct {
	demonstration, costTraining, latencyTuning   time.Duration
	stats                                        handsfree.LifecycleStats
	costEpisodesPerS, latencyEpisodesPerS, epsPS float64
}

func newService() (*handsfree.Service, error) {
	return handsfree.New(
		handsfree.WithScale(tenantScale),
		handsfree.WithWorkload(workloadQueries, workloadMinRel, workloadMaxRel, workloadSeed),
		handsfree.WithCache(handsfree.CacheConfig{Capacity: cacheCapacity}),
	)
}

var wantTransitions = []handsfree.LifecyclePhase{
	handsfree.PhaseIdle, handsfree.PhaseDemonstration, handsfree.PhaseCostTraining,
	handsfree.PhaseLatencyTuning, handsfree.PhaseDone,
}

// train runs one lifecycle on svc and checks it: it must pass through
// exactly idle → demonstration → cost-training → latency-tuning → done and
// publish a policy. Phase boundaries are timestamped by polling Phase.
func train(ctx context.Context, svc *handsfree.Service, actors int, smoke bool) (lifecycle, error) {
	cfg := handsfree.LifecycleConfig{Seed: lifecycleSeed, CostEpisodes: costEpisodes, LatencyEpisodes: latencyEpisodes, Actors: actors}
	if smoke {
		cfg.CostEpisodes, cfg.LatencyEpisodes = 96, 8
	}
	seen := map[handsfree.LifecyclePhase]time.Time{}
	stop, polled := make(chan struct{}), make(chan struct{})
	start := time.Now()
	if err := svc.StartTraining(ctx, cfg); err != nil {
		return lifecycle{}, err
	}
	go func() {
		defer close(polled)
		tick := time.NewTicker(phasePoll)
		defer tick.Stop()
		for {
			if p := svc.Phase(); seen[p].IsZero() {
				seen[p] = time.Now()
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := svc.WaitTraining(ctx)
	end := time.Now()
	close(stop)
	<-polled
	if err != nil {
		return lifecycle{}, fmt.Errorf("lifecycle: %w", err)
	}

	st := svc.LifecycleStats()
	if len(st.Transitions) != len(wantTransitions)-1 {
		return lifecycle{}, fmt.Errorf("lifecycle made %d transitions, want %d: %v", len(st.Transitions), len(wantTransitions)-1, st.Transitions)
	}
	for i, tr := range st.Transitions {
		if tr.From != wantTransitions[i] || tr.To != wantTransitions[i+1] {
			return lifecycle{}, fmt.Errorf("transition %d is %s → %s, want %s → %s", i, tr.From, tr.To, wantTransitions[i], wantTransitions[i+1])
		}
	}
	if st.Phase != handsfree.PhaseDone || st.PolicyVersion == 0 {
		return lifecycle{}, fmt.Errorf("lifecycle ended in phase %s with policy version %d", st.Phase, st.PolicyVersion)
	}
	cost, lat := seen[handsfree.PhaseCostTraining], seen[handsfree.PhaseLatencyTuning]
	if cost.IsZero() || lat.IsZero() {
		return lifecycle{}, fmt.Errorf("phase poll missed a phase: saw %d of them", len(seen))
	}
	lc := lifecycle{
		demonstration: cost.Sub(start),
		costTraining:  lat.Sub(cost),
		latencyTuning: end.Sub(lat),
		stats:         st,
	}
	lc.costEpisodesPerS = float64(st.CostEpisodes) / lc.costTraining.Seconds()
	lc.latencyEpisodesPerS = float64(st.LatencyEpisodes) / lc.latencyTuning.Seconds()
	lc.epsPS = float64(st.CostEpisodes+st.LatencyEpisodes) / end.Sub(start).Seconds()
	return lc, nil
}

// tenant is a trained service behind an in-process server on real loopback
// TCP, with the cache-less twin planner the correctness checks compare
// against.
type tenant struct {
	svc    *handsfree.Service
	ts     *httptest.Server
	client *http.Client
	twin   *optimizer.Planner
}

func serve(svc *handsfree.Service) (*tenant, error) {
	reg := server.NewRegistry()
	if _, err := reg.Add("bench", svc); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(server.New(server.Config{}, reg).Handler())
	client := ts.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		// Every client keeps its connection: a benchmark that re-dials
		// measures the kernel's accept path.
		tr.MaxIdleConnsPerHost = clients + 2
	}
	sys := svc.System()
	return &tenant{svc: svc, ts: ts, client: client, twin: optimizer.New(sys.DB.Catalog, sys.Cost)}, nil
}

func (t *tenant) close() { t.ts.Close() }

// setup is one set-up: build the service, train it, generate the workload's
// requests.
type setup struct {
	svc                          *handsfree.Service
	reqs                         []request
	lc                           lifecycle
	newS, trainS, generateS, all float64
	// pace of the box while it set up, and how much slower than on the calm
	// box that made the set-up: every time above, and the lifecycle's, is
	// divided by slow, every rate multiplied.
	pace, slow float64
}

// setupPaceExponent is how a set-up answers to the pace. A lifecycle with one
// actor keeps one core busy, the pacer's kernel then runs on the other, and
// the host disturbs the two separately: over 280 set-ups a lifecycle took
// 17-23 % longer where the kernel took 43-50 % longer, the square root of it
// (serving keeps both cores busy and slows as the kernel does).
const setupPaceExponent = 0.5

func setUp(ctx context.Context, w workload, seed int64, smoke bool, p *pacer) (setup, error) {
	start := time.Now()
	svc, err := newService()
	if err != nil {
		return setup{}, err
	}
	built := time.Now()
	lc, err := train(ctx, svc, 1, smoke)
	if err != nil {
		return setup{}, err
	}
	trained := time.Now()
	reqs, err := w.generate(svc, seed, smoke)
	if err != nil {
		return setup{}, err
	}
	end := time.Now()
	pace := p.pace(start, end)
	return setup{
		svc: svc, reqs: reqs, lc: lc,
		newS: built.Sub(start).Seconds(), trainS: trained.Sub(built).Seconds(),
		generateS: end.Sub(trained).Seconds(), all: end.Sub(start).Seconds(),
		pace: pace, slow: math.Pow(pace, setupPaceExponent),
	}, nil
}
