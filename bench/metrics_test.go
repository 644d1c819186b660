package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// workloads.go are what the program reports. They must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, default -seconds %v", b.RunSeconds, float64(defaultSeconds))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, metrics.go %d + %d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, got, d)
		}
	}
}

func TestExportRefusesMissingMetric(t *testing.T) {
	m := metrics{"setup_s": 1}
	if _, err := m.export(endToEnd); err == nil {
		t.Error("export accepted a run that measured one metric of eight")
	}
	for _, d := range endToEnd {
		m[d.name] = 1
	}
	out, err := m.export(endToEnd)
	if err != nil || len(out) != len(endToEnd) || out["latency_p99_ms"].Unit != "ms" {
		t.Errorf("export = %v, %v", out, err)
	}
}
