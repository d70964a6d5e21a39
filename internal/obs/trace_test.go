package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t WHERE x = 5", "select * from t where x = ?"},
		{"SELECT  *\n FROM\tt", "select * from t"},
		{"SELECT 'a''b', 42, 3.14, 1e-9 FROM t", "select ?, ?, ?, ? from t"},
		// Digits inside identifiers survive; standalone literals do not.
		{"SELECT col2 FROM t2 WHERE col2 > 10", "select col2 from t2 where col2 > ?"},
		{"select X from T", "select x from t"},
		{"SELECT 'KEEP CASE' FROM t  ", "select ? from t"},
	}
	for _, c := range cases {
		if got := NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	// Same statement shape with different constants → same fingerprint.
	a := Fingerprint("SELECT name FROM emps WHERE sal > 100")
	b := Fingerprint("select name from  emps where sal > 99999")
	if a != b {
		t.Fatalf("fingerprints differ for same shape: %s vs %s", a, b)
	}
	if c := Fingerprint("SELECT name FROM depts WHERE sal > 100"); c == a {
		t.Fatal("different tables produced the same fingerprint")
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := &QueryTrace{SQL: "SELECT 1"}
	root := tr.NewSpan(nil, "EnumerableSort", "sort=[$0]", "Sort")
	child := tr.NewSpan(root, "EnumerableTableScan", "table=[t]", "")
	root.Record(10, 2*time.Millisecond)
	root.Record(5, time.Millisecond)
	root.AddElapsed(time.Millisecond)
	child.Record(15, 0)
	tr.AttachMemStats("Sort", 1<<20, 3<<20, 3, 2)

	snap := tr.Snapshot()
	s := snap.Spans
	if s == nil || s.Name != "EnumerableSort" || len(s.Children) != 1 {
		t.Fatalf("snapshot tree wrong: %+v", s)
	}
	if s.Rows != 15 || s.Batches != 2 || s.ElapsedNs != int64(4*time.Millisecond) {
		t.Fatalf("root stats = rows %d batches %d elapsed %d", s.Rows, s.Batches, s.ElapsedNs)
	}
	if s.PeakBytes != 1<<20 || s.SpilledBytes != 3<<20 || s.SpillFiles != 3 || s.SpillEvents != 2 {
		t.Fatalf("mem stats not attached: %+v", s)
	}
	if c := s.Children[0]; c.Rows != 15 || c.Batches != 1 {
		t.Fatalf("child stats = %+v", c)
	}
}

func TestAttachMemStatsOrphanAndOrder(t *testing.T) {
	tr := &QueryTrace{}
	root := tr.NewSpan(nil, "EnumerableHashJoin", "", "HashJoin")
	tr.NewSpan(root, "EnumerableHashJoin", "", "HashJoin")
	// Two same-named attachments land on distinct spans in document order.
	tr.AttachMemStats("HashJoin", 100, 0, 0, 0)
	tr.AttachMemStats("HashJoin", 200, 0, 0, 0)
	if root.peakBytes != 100 || root.Children[0].peakBytes != 200 {
		t.Fatalf("duplicate-key attach order wrong: %d, %d", root.peakBytes, root.Children[0].peakBytes)
	}
	// No matching span → synthetic orphan under the root, nothing dropped.
	tr.AttachMemStats("Window", 300, 50, 1, 1)
	last := root.Children[len(root.Children)-1]
	if last.Name != "Window" || last.peakBytes != 300 || last.spilledBytes != 50 {
		t.Fatalf("orphan not attached under root: %+v", last)
	}
}

func TestSpanConcurrentRecord(t *testing.T) {
	// Worker partitions of a parallel operator share one span.
	tr := &QueryTrace{}
	sp := tr.NewSpan(nil, "EnumerableAggregate", "", "Aggregate")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				sp.Record(3, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if sp.Rows() != 12000 {
		t.Fatalf("rows = %d, want 12000", sp.Rows())
	}
	if got := sp.batches.Load(); got != 4000 {
		t.Fatalf("batches = %d, want 4000", got)
	}
}

func TestRenderSpans(t *testing.T) {
	s := &SpanStats{
		Name: "EnumerableSort", Rows: 42, Batches: 1, ElapsedNs: int64(1200 * time.Microsecond),
		PeakBytes: 128 << 10, SpilledBytes: 800 << 10, SpillFiles: 3, SpillEvents: 2,
		Children: []*SpanStats{{Name: "EnumerableTableScan", Rows: 42, Batches: 1}},
	}
	got := RenderSpans(s)
	want := "EnumerableSort: rows=42, batches=1, elapsed=1.2ms, peak=128.0KiB, spilled=800.0KiB, spill-files=3, spill-events=2\n" +
		"  EnumerableTableScan: rows=42, batches=1, elapsed=0s\n"
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTraceRingEviction pins ring-buffer order: adding past capacity evicts
// the oldest and Snapshot returns newest first.
func TestTraceRingEviction(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(&TraceSnapshot{ID: uint64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	got := r.Snapshot()
	want := []uint64{5, 4, 3}
	for i, tr := range got {
		if tr.ID != want[i] {
			t.Fatalf("snapshot order = %v, want newest-first %v", ids(got), want)
		}
	}
	// Nil ring and nil adds are safe.
	var nilRing *TraceRing
	nilRing.Add(&TraceSnapshot{})
	if nilRing.Len() != 0 || nilRing.Snapshot() != nil {
		t.Fatal("nil ring should be inert")
	}
	r.Add(nil)
	if r.Len() != 3 {
		t.Fatal("nil trace should not be retained")
	}
}

func ids(ts []*TraceSnapshot) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestEngineLifecycleAndSlowLog(t *testing.T) {
	e := NewEngine()
	var logBuf bytes.Buffer
	e.SetSlowQuery(time.Nanosecond, &logBuf) // everything is slow

	tr := e.Begin("SELECT sal FROM emps WHERE sal > 100")
	if tr == nil || tr.ID == 0 || tr.Fingerprint == "" {
		t.Fatalf("Begin trace incomplete: %+v", tr)
	}
	tr.PlanNs, tr.OptimizeNs, tr.ExecNs = 1e6, 2e6, 3e6
	tr.Rows = 7
	tr.PeakBytes, tr.SpilledBytes = 4096, 1024
	snap := e.End(tr)
	if snap == nil || !snap.Slow {
		t.Fatalf("snapshot not marked slow: %+v", snap)
	}
	if e.Recent.Len() != 1 || e.Slow.Len() != 1 {
		t.Fatalf("rings: recent %d slow %d, want 1/1", e.Recent.Len(), e.Slow.Len())
	}

	// The slow log line is one valid JSON object with the trace fields.
	var entry map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &entry); err != nil {
		t.Fatalf("slow log not JSON: %v (%q)", err, logBuf.String())
	}
	if entry["fingerprint"] != snap.Fingerprint || entry["rows"] != float64(7) ||
		entry["peak_bytes"] != float64(4096) || entry["spilled_bytes"] != float64(1024) {
		t.Fatalf("slow log fields wrong: %v", entry)
	}

	// Counters reflect the finished query.
	if got := e.Registry.Counter("calcite_queries_started_total", "").Value(); got != 1 {
		t.Fatalf("started = %d", got)
	}
	if got := e.Registry.Counter("calcite_queries_finished_total", "", L("status", "ok")).Value(); got != 1 {
		t.Fatalf("finished ok = %d", got)
	}
	if got := e.Registry.Counter("calcite_rows_returned_total", "").Value(); got != 7 {
		t.Fatalf("rows returned = %d", got)
	}
	if got := e.Registry.Counter("calcite_slow_queries_total", "").Value(); got != 1 {
		t.Fatalf("slow queries = %d", got)
	}

	// Raising the threshold stops slow tracking; errors count as errors.
	e.SetSlowQuery(time.Hour, nil)
	tr2 := e.Begin("SELECT broken")
	tr2.Error = "boom"
	e.End(tr2)
	if e.Slow.Len() != 1 {
		t.Fatalf("fast query landed in slow ring")
	}
	if got := e.Registry.Counter("calcite_queries_finished_total", "", L("status", "error")).Value(); got != 1 {
		t.Fatalf("finished error = %d", got)
	}

	// Nil engine is inert end to end.
	var nilEng *Engine
	if nilEng.Begin("x") != nil || nilEng.End(nil) != nil {
		t.Fatal("nil engine should return nil trace/snapshot")
	}
}

func TestEngineIDsMonotonic(t *testing.T) {
	e := NewEngine()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr := e.Begin(fmt.Sprintf("SELECT %d", i))
				mu.Lock()
				if seen[tr.ID] {
					t.Errorf("duplicate trace ID %d", tr.ID)
				}
				seen[tr.ID] = true
				mu.Unlock()
				e.End(tr)
			}
		}()
	}
	wg.Wait()
	if len(seen) != 400 {
		t.Fatalf("IDs assigned = %d, want 400", len(seen))
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	snap := (&QueryTrace{
		ID: 9, SQL: "SELECT 1", Fingerprint: "abc",
		PlanNs: 1, OptimizeNs: 2, ExecNs: 3, TotalNs: 6, Rows: 1,
	}).Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id":9`, `"fingerprint":"abc"`, `"plan_ns":1`, `"exec_ns":3`, `"rows":1`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("snapshot JSON missing %s: %s", key, raw)
		}
	}
	// Omitted optional fields stay out of the wire shape.
	for _, key := range []string{`"error"`, `"spans"`, `"slow"`} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("snapshot JSON should omit empty %s: %s", key, raw)
		}
	}
}

func TestQError(t *testing.T) {
	cases := []struct{ est, actual, want float64 }{
		{100, 100, 1},
		{100, 200, 2},
		{200, 100, 2},
		{1, 50, 50},
		{0, 50, 50},   // est floors at 1
		{100, 0, 100}, // actual floors at 1
	}
	for _, c := range cases {
		if got := QError(c.est, c.actual); got != c.want {
			t.Errorf("QError(%v, %v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
	var nilSpan *SpanStats
	if nilSpan.QError() != 0 {
		t.Fatal("nil span q-error should be 0")
	}
	if (&SpanStats{Rows: 10}).QError() != 0 {
		t.Fatal("span without estimate should report q-error 0")
	}
	if got := (&SpanStats{Rows: 10, EstRows: 40}).QError(); got != 4 {
		t.Fatalf("span q-error = %v, want 4", got)
	}
}

// TestSnapshotMaxQError: the trace-level worst q-error is the max over the
// whole span tree, and estimates stamped on live spans survive into the
// snapshot with their paths.
func TestSnapshotMaxQError(t *testing.T) {
	tr := &QueryTrace{SQL: "SELECT 1"}
	root := tr.NewSpan(nil, "EnumerableHashJoin", "", "")
	left := tr.NewSpan(root, "EnumerableTableScan", "", "")
	right := tr.NewSpan(root, "EnumerableTableScan", "", "")
	root.SetEstimate("0", 100)
	left.SetEstimate("0.0", 10)
	right.SetEstimate("0.1", 1000)
	root.Record(100, 0)  // q = 1
	left.Record(80, 0)   // q = 8 (worst)
	right.Record(500, 0) // q = 2

	snap := tr.Snapshot()
	if snap.MaxQError != 8 {
		t.Fatalf("MaxQError = %v, want 8", snap.MaxQError)
	}
	if s := snap.Spans.Children[0]; s.Path != "0.0" || s.EstRows != 10 {
		t.Fatalf("child span path/est = %q/%v", s.Path, s.EstRows)
	}
	// max_qerror rides the JSON wire shape.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"max_qerror":8`) {
		t.Fatalf("snapshot JSON missing max_qerror: %s", raw)
	}
}

// TestRenderSpansEstimates: operators carrying an estimate render est= next
// to rows=, with the drift marker once the q-error reaches DriftQError.
func TestRenderSpansEstimates(t *testing.T) {
	s := &SpanStats{
		Name: "EnumerableHashJoin", Rows: 500, EstRows: 100, Batches: 1,
		Children: []*SpanStats{
			{Name: "EnumerableTableScan", Rows: 95, EstRows: 100, Batches: 1},
			{Name: "EnumerableTableScan", Rows: 42, Batches: 1}, // no estimate
		},
	}
	got := RenderSpans(s)
	want := "EnumerableHashJoin: rows=500, est=100 [q=5.0!], batches=1, elapsed=0s\n" +
		"  EnumerableTableScan: rows=95, est=100, batches=1, elapsed=0s\n" +
		"  EnumerableTableScan: rows=42, batches=1, elapsed=0s\n"
	if got != want {
		t.Fatalf("render mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSlowLogMaxQError: slow-query log lines carry the execution's worst
// per-operator estimation error.
func TestSlowLogMaxQError(t *testing.T) {
	e := NewEngine()
	var logBuf bytes.Buffer
	e.SetSlowQuery(time.Nanosecond, &logBuf)

	tr := e.Begin("SELECT * FROM t")
	sp := tr.NewSpan(nil, "EnumerableTableScan", "", "")
	sp.SetEstimate("0", 10)
	sp.Record(250, 0) // q = 25
	e.End(tr)

	var entry map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &entry); err != nil {
		t.Fatalf("slow log not JSON: %v (%q)", err, logBuf.String())
	}
	if entry["max_qerror"] != float64(25) {
		t.Fatalf("slow log max_qerror = %v, want 25", entry["max_qerror"])
	}
}
