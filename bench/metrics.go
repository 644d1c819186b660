package main

import "fmt"

// metricDef names one reported figure. BENCHMARK.json carries the same list
// (TestBenchmarkJSONMatches keeps the two equal); bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression (per-layer metrics have none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"served_cost_ratio", "ratio", "lower", 0.02},
	{"train_episodes_per_s", "1/s", "higher", 0.25},
	{"final_cost_ratio", "ratio", "lower", 0.01},
}

var perLayer = []metricDef{
	{"server.overhead_us", "us", "lower", 0},
	{"server.queue_wait_us", "us", "lower", 0},
	{"server.encode_us", "us", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.timeouts", "count", "lower", 0},
	{"sqlparse.parse_us", "us", "lower", 0},
	{"plancache.fingerprint_us", "us", "lower", 0},
	{"plancache.get_ns", "ns", "lower", 0},
	{"plancache.hit_rate", "ratio", "higher", 0},
	{"plancache.evictions", "count", "lower", 0},
	{"plancache.size", "count", "lower", 0},
	{"optimizer.plan_cold_us.r4", "us", "lower", 0},
	{"optimizer.plan_cold_us.r5", "us", "lower", 0},
	{"optimizer.plan_cold_us.r6", "us", "lower", 0},
	{"optimizer.plan_cold_us.r7", "us", "lower", 0},
	{"optimizer.plan_cold_us.r8", "us", "lower", 0},
	{"optimizer.plan_cached_us", "us", "lower", 0},
	{"optimizer.complete_us", "us", "lower", 0},
	{"featurize.state_us", "us", "lower", 0},
	{"nn.infer_us", "us", "lower", 0},
	{"planspace.rollout_us", "us", "lower", 0},
	{"planspace.rollout_self_us", "us", "lower", 0},
	{"planspace.steps_per_rollout", "count", "lower", 0},
	{"service.plan_us", "us", "lower", 0},
	{"service.execute_us", "us", "lower", 0},
	{"service.learned_share", "ratio", "higher", 0},
	{"service.fallback_share", "ratio", "lower", 0},
	{"service.expert_share", "ratio", "lower", 0},
	{"service.rollout_useful_share", "ratio", "higher", 0},
	{"service.latency_guarded", "count", "lower", 0},
	{"service.expert_search_share", "ratio", "lower", 0},
	{"service.unattributed_share", "ratio", "lower", 0},
	{"exechistory.record_ns", "ns", "lower", 0},
	{"exechistory.ratio_ns", "ns", "lower", 0},
	{"exechistory.probe_share", "ratio", "lower", 0},
	{"engine.run_us", "us", "lower", 0},
	{"engine.work_units_per_exec", "count", "lower", 0},
	{"engine.timeouts", "count", "lower", 0},
	{"lifecycle.demonstration_s", "s", "lower", 0},
	{"lifecycle.cost_training_s", "s", "lower", 0},
	{"lifecycle.latency_tuning_s", "s", "lower", 0},
	{"lifecycle.cost_eps_per_s", "1/s", "higher", 0},
	{"lifecycle.latency_eps_per_s", "1/s", "higher", 0},
	{"nn.train_step_us", "us", "lower", 0},
	{"paramserver.publish_us", "us", "lower", 0},
	{"paramserver.publishes", "count", "lower", 0},
	{"rl.async.actors_scaling", "ratio", "higher", 0},
	{"setup.new_s", "s", "lower", 0},
	{"setup.train_s", "s", "lower", 0},
	{"setup.generate_s", "s", "lower", 0},
	{"runtime.allocs_per_req", "count", "lower", 0},
	{"runtime.alloc_kb_per_req", "kB", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	{"bench.pace", "ratio", "lower", 0},
}

// metricValue is one figure in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects measured values by name while a workload runs.
type metrics map[string]float64

// export keeps exactly the metrics in defs, with their units; a metric that
// was never measured is a bug in the benchmark, reported as an error.
func (m metrics) export(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
