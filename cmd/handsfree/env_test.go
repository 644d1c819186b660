package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestEnvPrintsServingConfig is the golden test for the `handsfree env`
// serving section: operators diff this output across deployments, so the
// resolved serving configuration — address, tenant count, queue depth, SLO,
// timeouts — must render exactly, with flag overrides applied.
func TestEnvPrintsServingConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary; skipped in -short mode")
	}
	bin := t.TempDir() + "/handsfree"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	out, err := exec.Command(bin,
		"-addr", ":9090",
		"-tenants", "2",
		"-concurrency", "8",
		"-queue", "32",
		"-slo", "250ms",
		"-request-timeout", "10s",
		"-max-timeout", "1m",
		"-drain", "15s",
		"env").CombinedOutput()
	if err != nil {
		t.Fatalf("handsfree env: %v\n%s", err, out)
	}
	got := string(out)
	want := `serving:
  addr:            :9090
  tenants:         2
  concurrency:     8
  queue depth:     32
  queue-wait SLO:  250ms
  default timeout: 10s
  max timeout:     1m0s
  drain timeout:   15s
`
	if !strings.Contains(got, want) {
		t.Fatalf("env output missing the golden serving section:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The compute section is still there too: one engine line naming the
	// kernel each entry point runs, and nothing that suggests a selector.
	for _, frag := range []string{"engine:    gemm=", " gemv=", " adam=", "precision: f32\n"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("env output missing %q:\n%s", frag, got)
		}
	}
	for _, frag := range []string{"_ENGINE", "AVX512", "build default", "avx512", "_PRECISION", "-precision", "kernel workers", "softmax="} {
		if strings.Contains(got, frag) {
			t.Fatalf("env output still mentions %q:\n%s", frag, got)
		}
	}
}
