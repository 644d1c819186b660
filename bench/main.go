// Command bench is the benchmark every performance claim about this
// repository is measured with: four workloads against an in-process
// handsfree server, end-to-end metrics with tracing off, per-layer metrics
// from a separate traced pass. See README.md.
//
//	bash bench/run.sh --workload plan_repeat --seed 11 --seconds 28 --trace 0
//	bash bench/run.sh -repeat 2          # every workload, both passes, twice
//	bash bench/run.sh -smoke             # a sanity run of everything
//
// With -workload the last line of standard output is the result as one JSON
// object; everything meant for people goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 28

func main() {
	name := flag.String("workload", "", "run this workload alone and print its result line (default: run them all and print the tables)")
	seed := flag.Int64("seed", 11, "workload seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 adds the traced pass and reports the per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run everything this many times and check the sets agree within the bounds")
	smoke := flag.Bool("smoke", false, "a sanity run: miniature set-up, a fraction of a second per workload, no bounds")
	outDir := flag.String("out", "bench/out", "directory for run records and trace files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *smoke {
		*seconds = 0.5
	}

	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *repeat, *smoke, *outDir))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, outDir: *outDir}
	res, err := runWorkload(context.Background(), cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
