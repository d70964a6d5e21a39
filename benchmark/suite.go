package main

// The whole-suite commands: run every workload in child processes, compare
// two result sets, print the manifest.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"calcite"
)

// record is one line of results.jsonl: one child run.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Env      map[string]string `json:"env"`
	Result   result            `json:"result"`
}

// runAll runs each workload untraced and traced, each in a fresh child
// process (so heap, caches and peak_rss_mb are per workload), prints every
// metric by name with its unit and appends the results to out/results.jsonl.
func runAll(seed int64, seconds float64, quick bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	log, err := os.OpenFile(filepath.Join(out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer log.Close()

	status := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out}
			if quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s --trace %d: %v\n", wl.name, trace, err)
				status = 1
				continue
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := record{Workload: wl.name, Seed: seed, Trace: trace, Env: environment()}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s --trace %d: bad result line: %v\n", wl.name, trace, err)
				status = 1
				continue
			}
			if !rec.Result.Correct {
				status = 1
			}
			line, err := json.Marshal(rec)
			if err == nil {
				_, err = log.Write(append(line, '\n'))
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
			}
			fmt.Fprintf(tw, "%s\ttrace=%d\tcorrect=%v\tattempted=%d\tfailed=%d\n", wl.name, trace,
				rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
			for _, name := range sortedKeys(rec.Result.Metrics) {
				m := rec.Result.Metrics[name]
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", wl.name, name, m.Value, m.Unit)
			}
		}
	}
	tw.Flush()
	return status
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readResults loads the untraced records of DIR/results.jsonl, grouped by
// workload and metric.
func readResults(dir string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", dir, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric: "worse" when B's median is worse
// than A's by more than bound, "unresolved" when either side's run-to-run
// spread (interquartile range over median) exceeds the bound, else "same".
func verdict(a, b []float64, better string, bound float64) string {
	spread := func(xs []float64) float64 {
		return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
	}
	if spread(a) > bound || spread(b) > bound {
		return "unresolved"
	}
	change := ratio(median(b)-median(a), median(a))
	if better == "higher" {
		change = -change
	}
	if change > bound {
		return "worse"
	}
	return "same"
}

// compareMain prints one row per (end-to-end metric, workload): both sides'
// medians, quartiles and sample counts, the ratio with its base, the verdict.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare DIR_A DIR_B   (each holding results.jsonl from >= 3 full runs)")
		return 2
	}
	a, errA := readResults(args[0])
	b, errB := readResults(args[1])
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	return printComparison(a, b)
}

func printComparison(a, b map[string]map[string][]float64) int {
	status := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1,q3] n\tB median [q1,q3] n\tB/A\tbound\tverdict")
	side := func(xs []float64) string {
		return fmt.Sprintf("%.5g [%.5g,%.5g] %d", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			xa, xb := a[wl.name][d.name], b[wl.name][d.name]
			v := "missing"
			if len(xa) >= 3 && len(xb) >= 3 {
				v = verdict(xa, xb, d.better, d.bound)
			}
			if v != "same" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f of A\t%.0f%%\t%s\n", wl.name, d.name, d.unit,
				side(xa), side(xb), ratio(median(xb), median(xa)), 100*d.bound, v)
		}
	}
	tw.Flush()
	return status
}

// workingSetMain measures spill_governed's working set — the largest
// per-query peak reservation of its rotation on a serial instance whose budget
// never binds — and prints the quarter that sizes.go commits as
// spillQueryMemoryLimit.
func workingSetMain(seed int64) int {
	peak, err := workingSet(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark workingset:", err)
		return 1
	}
	fmt.Printf("working set %d bytes, quarter %d bytes\n", peak, peak/4)
	return 0
}

func workingSet(seed int64) (int64, error) {
	data := spillGoverned.generate(rand.New(rand.NewSource(seed)), 1)
	sys, err := buildRetail(func(c *calcite.Connection, _ *retail) {
		serialGoverned(c)
		c.SetQueryMemoryLimit(1 << 40)
	})(data)
	if err != nil {
		return 0, err
	}
	var peak int64
	for _, o := range spillGoverned.plan(data, rand.New(rand.NewSource(seed^planSeedSalt)), 1)[0] {
		if err := sys.run(0, o); err != nil {
			return 0, err
		}
		if snap := engineTrace(sys.conn, o.sql); snap != nil {
			fmt.Printf("%-9s peak %d bytes\n", o.class, snap.PeakBytes)
			peak = max(peak, snap.PeakBytes)
		}
	}
	return peak, nil
}

// manifestJSON renders BENCHMARK.json from the definitions in this package,
// so the manifest and the program cannot drift apart.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerDefs() {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}
