package main

import (
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

const (
	testSeconds = 0.4
	testSeed    = 7
)

// raceDetector is set by race_test.go when the tests are built with -race.
var raceDetector bool

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsRunAndVerify runs every workload at 1/50 scale, untraced and
// traced: every operation verifies and every metric of the manifest comes out
// with its unit.
func TestWorkloadsRunAndVerify(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			if raceDetector && wl == serveMixed {
				t.Skip("the engine's unsynchronised LastPlanner write races under concurrent clients")
			}
			res, err := runUntraced(wl, testSeed, testSeconds, quickScale)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEndDefs) {
				t.Errorf("untraced emitted %d metrics, manifest has %d", len(res.Metrics), len(endToEndDefs))
			}
			for _, d := range endToEndDefs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present=%v), want unit %s and a value above 0", d.name, m, ok, d.unit)
				}
			}

			dir := t.TempDir()
			res, err = runTraced(wl, testSeed, testSeconds, quickScale, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", res.Correct, res.Failed)
			}
			defs := perLayerDefs()
			if len(res.Metrics) != len(defs) {
				t.Errorf("traced emitted %d metrics, manifest has %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v (present=%v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			if _, err := os.Stat(dir + "/trace-" + wl.name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
			checkLayerSplit(t, wl, res.Metrics)
		})
	}
}

// checkLayerSplit asserts the counts that show each workload exercises the
// layers it was chosen for and bypasses the others.
func checkLayerSplit(t *testing.T, wl *workload, m map[string]metric) {
	t.Helper()
	zero := func(name string) {
		if m[name].Value != 0 {
			t.Errorf("%s = %v on %s, want 0", name, m[name].Value, wl.name)
		}
	}
	positive := func(name string) {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v on %s, want above 0", name, m[name].Value, wl.name)
		}
	}
	if wl == federatedJob {
		positive("adapter.rows_shipped_per_op")
		positive("adapter.requests_per_op")
	} else {
		zero("adapter.rows_shipped_per_op")
	}
	if wl == spillGoverned {
		positive("memory.spill_events_per_op")
		positive("memory.spill_slowdown")
	} else {
		zero("memory.spill_events_per_op")
	}
	switch wl {
	case planAdhoc:
		zero("core.plancache_hit_share")
		positive("plan.share_of_latency")
		positive("parser.parse_us_p50")
	case analyticScan:
		if m["core.plancache_hit_share"].Value != 1 {
			t.Errorf("core.plancache_hit_share = %v on analytic_scan, want 1", m["core.plancache_hit_share"].Value)
		}
		zero("plan.share_of_latency")
		positive("parallel.speedup_vs_serial")
	case streamWindow:
		positive("stream.windows_emitted_per_op")
		positive("stream.state_kb_peak")
	case serveMixed:
		if v := m["core.plancache_hit_share"].Value; v <= 0 || v >= 1 {
			t.Errorf("core.plancache_hit_share = %v on serve_mixed, want strictly between 0 and 1", v)
		}
		positive("core.plancache_invalidations_per_kop")
		positive("avatica.class_ms_p50.insert")
	}
}

// TestManifestMatchesDefinitions keeps BENCHMARK.json and the program in step.
func TestManifestMatchesDefinitions(t *testing.T) {
	for _, d := range perLayerDefs() {
		if !metricName.MatchString(d.name) {
			t.Errorf("per-layer metric name %q is not a valid metric name", d.name)
		}
	}
	for _, d := range endToEndDefs {
		if !metricName.MatchString(d.name) || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %q (bound %v) is not valid", d.name, d.bound)
		}
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark directory: %v", err)
	}
	if string(committed) != string(manifestJSON()) {
		t.Error("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
}

// checksumTables folds every generated row into one number.
func checksumTables(tabs []*table) uint64 {
	var sum uint64
	for _, t := range tabs {
		d := digestRows(t.rows, true)
		sum = sum*fnvPrime + d.sum + uint64(d.rows)
	}
	return sum
}

// statementTexts flattens a workload's statement lists.
func statementTexts(wl *workload, seed int64) ([]string, uint64) {
	data := wl.generate(rand.New(rand.NewSource(seed)), quickScale)
	var texts []string
	var sums uint64
	for _, list := range wl.plan(data, rand.New(rand.NewSource(seed^planSeedSalt)), quickScale) {
		for _, o := range list {
			texts = append(texts, o.sql)
			sums = sums*fnvPrime + o.want.sum + uint64(o.want.rows)
		}
	}
	return texts, sums
}

// TestGeneratorDeterministic: the same seed gives byte-identical statement
// lists and reference digests, another seed gives other literals and data.
func TestGeneratorDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, sumA := statementTexts(wl, testSeed)
		b, sumB := statementTexts(wl, testSeed)
		if !reflect.DeepEqual(a, b) || sumA != sumB {
			t.Errorf("%s: same seed gave different statements or reference digests", wl.name)
		}
		c, sumC := statementTexts(wl, testSeed+1)
		if sumA == sumC {
			t.Errorf("%s: different seeds gave the same reference digests", wl.name)
		}
		if wl != streamWindow && reflect.DeepEqual(a, c) { // the stream queries are fixed texts
			t.Errorf("%s: different seeds gave the same statement texts", wl.name)
		}
	}
	sizes := retailSizes{sales: 300, customers: 30, products: 20, stores: 5, dates: 60}
	one := checksumTables(genRetail(rand.New(rand.NewSource(1)), sizes).tables())
	if again := checksumTables(genRetail(rand.New(rand.NewSource(1)), sizes).tables()); one != again {
		t.Error("same seed gave different table data")
	}
	if other := checksumTables(genRetail(rand.New(rand.NewSource(2)), sizes).tables()); one == other {
		t.Error("different seeds gave the same table data")
	}
}

// TestCountsRepeat: the counts a later change may be judged by are exact
// functions of the seed.
func TestCountsRepeat(t *testing.T) {
	for wl, names := range map[*workload][]string{
		streamWindow:  {"stream.windows_emitted_per_op", "stream.late_dropped_per_op", "stream.state_kb_peak"},
		federatedJob:  {"adapter.rows_shipped_per_op", "adapter.requests_per_op"},
		spillGoverned: {"memory.spilled_kb_per_op", "memory.spill_events_per_op"},
	} {
		a, err := runTraced(wl, testSeed, testSeconds, quickScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTraced(wl, testSeed, testSeconds/2, quickScale, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				t.Errorf("%s %s: %v then %v", wl.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

// TestSelfTimes: a span's self time is its duration minus the part its
// children cover, with overlapping children counted once and children clipped
// to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},  // covers 30
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2: adds 20
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent: adds 10
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20},
	}
	want := map[int]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestReferenceEvaluator pins the reference on a hand-computed case, so the
// oracle itself is checked by something other than the engine.
func TestReferenceEvaluator(t *testing.T) {
	fact := newTable("f", bigint("id"), bigint("k"), bigint("v"))
	fact.rows = [][]any{{int64(1), int64(10), int64(5)}, {int64(2), int64(10), int64(7)},
		{int64(3), int64(20), int64(1)}, {int64(4), int64(30), int64(9)}}
	dim := newTable("d", bigint("k"), varchar("name"))
	dim.rows = [][]any{{int64(10), "a"}, {int64(20), "b"}}

	q := &query{from: []source{{fact, "f"}, {dim, "d"}}}
	q.joins = []join{{0, 1, 0}}
	q.where = []pred{q.cmpPred(0, "v", ">", int64(1), false)}
	q.selects, q.names = []scalar{q.colOf(1, "name")}, []string{"name"}
	q.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, q.colOf(0, "v"), "total"}}
	q.orderBy = []orderKey{{0, false}}
	if got, want := q.eval(), [][]any{{"a", int64(2), int64(12)}}; !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate: got %v, want %v", got, want)
	}
	sql, _ := q.SQL()
	if want := "SELECT d.name AS name, COUNT(*) AS n, SUM(f.v) AS total FROM f f JOIN d d ON f.k = d.k WHERE f.v > 1 GROUP BY d.name ORDER BY name"; sql != want {
		t.Errorf("SQL:\n got %s\nwant %s", sql, want)
	}

	w := &query{from: []source{{fact, "f"}}}
	w.selects, w.names = []scalar{w.colOf(0, "id")}, []string{"id"}
	w.window = &windowSpec{arg: w.colOf(0, "v"), part: w.colOf(0, "k"), order: w.colOf(0, "id"), preceding: 1, as: "s"}
	w.orderBy = []orderKey{{0, false}}
	want := [][]any{{int64(1), int64(5)}, {int64(2), int64(12)}, {int64(3), int64(1)}, {int64(4), int64(9)}}
	if got := w.eval(); !reflect.DeepEqual(got, want) {
		t.Errorf("window: got %v, want %v", got, want)
	}
}

// TestWrongResultIsCaught: a result that differs from the reference fails the
// operation, in order for ORDER BY statements and as a multiset otherwise.
func TestWrongResultIsCaught(t *testing.T) {
	rows := [][]any{{int64(1), "x"}, {int64(2), "y"}}
	swapped := [][]any{rows[1], rows[0]}
	if digestRows(rows, false) != digestRows(swapped, false) {
		t.Error("unordered digest depends on row order")
	}
	if digestRows(rows, true) == digestRows(swapped, true) {
		t.Error("ordered digest ignores row order")
	}
	if digestRows(rows, false) == digestRows([][]any{{int64(1), "x"}, {int64(2), "z"}}, false) {
		t.Error("digest ignores a changed cell")
	}
	if digestRows([][]any{{float64(3)}}, false) != digestRows([][]any{{int64(3)}}, false) {
		t.Error("digest distinguishes 3.0 from 3")
	}
	sys := &system{exec: func(int, *op) ([][]any, error) { return swapped, nil }}
	if err := sys.run(0, &op{ordered: true, want: digestRows(rows, true)}); err == nil {
		t.Error("a misordered ORDER BY result was accepted")
	}
}

// TestSegments: a window is cut at whole cycles of client 0, operations of
// every client land in the segment they ended in, the incomplete tail is left
// out, and the summary is the quartile on the side of the better values.
func TestSegments(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	w := &window{samples: make([][]sample, 2), elapsed: ms(4500), cpu: ms(9000)}
	// Client 0 completes a one-operation cycle every second, four times, and
	// burns 1, 2, 3 and 4 s of CPU in them; client 1 ends an operation in the
	// middle of each cycle and one more in the tail.
	w.marks = []mark{{0, 0}}
	for i, cpu := 1, 0; i <= 4; i++ {
		cpu += i * 1000
		w.marks = append(w.marks, mark{ms(i * 1000), ms(cpu)})
		w.samples[0] = append(w.samples[0], sample{ns: int64(ms(i * 10)), end: ms(i * 1000), ok: true})
		w.samples[1] = append(w.samples[1], sample{ns: int64(ms(i * 10)), end: ms(i*1000 - 500), ok: true})
	}
	w.samples[1] = append(w.samples[1], sample{end: ms(4400), ok: true})
	segs := w.segments()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4", len(segs))
	}
	for i, g := range segs {
		if len(g.samples) != 2 || g.seconds != 1 || g.cpuMs != float64(i+1)*1000 {
			t.Errorf("segment %d: %d operations, %v s, %v ms of CPU; want 2, 1, %d", i, len(g.samples), g.seconds, g.cpuMs, (i+1)*1000)
		}
	}
	cpu := func(g segment) float64 { return g.cpuMs }
	if lo, hi := undisturbed(segs, false, cpu), undisturbed(segs, true, cpu); lo != 1750 || hi != 3250 {
		t.Errorf("quartiles of 1000..4000 = %v and %v, want 1750 and 3250", lo, hi)
	}

	w.marks = w.marks[:1] // no cycle completed: the whole window is one segment
	if segs = w.segments(); len(segs) != 1 || len(segs[0].samples) != 9 || segs[0].seconds != 4.5 {
		t.Errorf("window without a whole cycle: %d segments", len(segs))
	}
}

// TestVerdict: compare's three outcomes.
func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99}
	for _, tc := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{104, 105, 103}, "lower", "same"},
		{[]float64{115, 116, 114}, "lower", "worse"},
		{[]float64{115, 116, 114}, "higher", "same"},
		{[]float64{85, 86, 84}, "higher", "worse"},
		{[]float64{80, 100, 130}, "lower", "unresolved"},
	} {
		if got := verdict(base, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("verdict(%v, better %s) = %s, want %s", tc.b, tc.better, got, tc.want)
		}
	}
}
