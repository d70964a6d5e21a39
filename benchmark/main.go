// Command benchmark is the repository's benchmark: six workloads over the
// public entry points of the engine, measured from outside.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload and prints, as the last line of standard output, one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Without --workload it
// runs every workload, untraced and traced, each in a fresh child process.
// "benchmark compare A B" compares two result sets, "benchmark manifest"
// prints BENCHMARK.json and "benchmark workingset" re-measures the constant
// behind spill_governed's memory limit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var workloads = []*workload{planAdhoc, analyticScan, spillGoverned, federatedJob, streamWindow, serveMixed}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds a single-workload run: the engine has hung under memory
// pressure before (see README.md, hazards), and a benchmark that never exits
// is worse than one that fails.
const runLimit = 150 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "workingset":
			os.Exit(workingSetMain(1))
		case "manifest":
			os.Stdout.Write(manifestJSON())
			return
		}
	}
	name := flag.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced pass (per-layer metrics)")
	quick := flag.Bool("quick", false, "1/50-scale inputs and windows (tests)")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace files and results.jsonl")
	flag.Parse()

	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *quick, *out))
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v; giving up\n", wl.name, runLimit)
		os.Exit(3)
	})
	scale := 1
	if *quick {
		scale = quickScale
	}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, *seed, *seconds, scale, *out)
	} else {
		res, err = runUntraced(wl, *seed, *seconds, scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runUntraced is the --trace 0 pass: the end-to-end metrics.
func runUntraced(wl *workload, seed int64, seconds float64, scale int) (*result, error) {
	p, err := prepare(wl, seed, scale)
	if err != nil {
		return nil, err
	}
	p.warmup(scale)
	w := p.measure(seconds)
	p.finish()
	return &result{Correct: p.failed == 0, Attempted: p.done, Failed: p.failed, Metrics: endToEnd(p, w)}, nil
}
