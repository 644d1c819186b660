package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// interactionNotes are printed with the tables: how a faster layer should
// and should not show up end to end on this benchmark's load.
const interactionNotes = `How the metrics interact:
  - Two closed-loop clients on two cores queue nothing, so a faster layer saves at most
    its share of service.plan_us + server.overhead_us.
  - Clients and server share the cores: freed CPU raises throughput_rps before it lowers
    latency_p50_ms.
  - Fewer allocations show in latency_p99_ms (GC) before they show in latency_p50_ms.
  - plan_repeat never runs DP and plan_unique hardly reuses a plan: a gain that shows on
    the wrong one of the two is not the gain that was claimed.`

// runChild runs one workload in its own process, so that its set-up time and
// peak memory are its own, and returns the result line it printed.
func runChild(w workload, seed int64, seconds float64, trace int, smoke bool, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s printed no result line (%v): %w", w.name, runErr, err)
	}
	return res, nil
}

// runAll runs every workload, untraced then traced, repeat times over, and
// prints one table per workload. With more than one set it is the benchmark's
// self-check: it fails when two sets of the same commit disagree on an
// end-to-end metric by more than the bound the metric allows a change.
func runAll(seed int64, seconds float64, repeat int, smoke bool, outDir string) int {
	if err := checkEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	exit := 0
	// values[workload][metric] holds one value per set.
	values := map[string]map[string][]float64{}
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for trace := 0; trace <= 1; trace++ {
				res, err := runChild(w, seed, seconds, trace, smoke, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
					exit = 1
				}
				for name, v := range res.Metrics {
					values[w.name][name] = append(values[w.name][name], v.Value)
				}
			}
		}
	}

	fmt.Printf("seed %d, %g s measured per run, %d closed-loop clients, %d set(s) of runs\n", seed, seconds, clients, repeat)
	for _, w := range workloads {
		fmt.Printf("\n== %s: %s\n", w.name, w.why)
		fmt.Printf("%-32s %-6s %14s %14s %14s %8s %6s\n", "end to end", "unit", "median", "min", "max", "spread", "bound")
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			spread := (slices.Max(vs) - slices.Min(vs)) / median(vs)
			verdict := ""
			if repeat > 1 && !smoke && spread > d.bound {
				verdict = "  DISAGREE"
				exit = 1
			}
			fmt.Printf("%-32s %-6s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%%s\n",
				d.name, d.unit, median(vs), slices.Min(vs), slices.Max(vs), 100*spread, 100*d.bound, verdict)
		}
		fmt.Printf("%-32s %-6s %14s %14s %14s\n", "per layer", "unit", "median", "min", "max")
		for _, d := range perLayer {
			vs := values[w.name][d.name]
			fmt.Printf("%-32s %-6s %14.4f %14.4f %14.4f\n", d.name, d.unit, median(vs), slices.Min(vs), slices.Max(vs))
		}
	}
	fmt.Printf("\n%s\n", interactionNotes)
	return exit
}
