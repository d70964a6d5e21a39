package calcite_test

// Observability integration suite: the differential guarantee that EXPLAIN
// ANALYZE's operator-stats text and the /debug/queries JSON render from the
// same span tree, span assembly under serial and parallel execution, the
// slow-query log, and the engine-level metrics a query leaves behind.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"calcite"
	"calcite/internal/obs"
)

// obsConn builds a connection with a "shuf" table large enough that a sort
// under the given per-query budget must spill.
func obsConn(t *testing.T, rows int, queryMem int64) *calcite.Connection {
	t.Helper()
	conn := calcite.Open()
	data := make([][]any, rows)
	for i := range data {
		h := uint64(i) * 0x9e3779b97f4a7c15
		data[i] = []any{int64(i), int64(h % 97), float64(h%100000) / 100}
	}
	conn.AddTable("shuf", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "val", Type: calcite.DoubleType},
	}, data)
	if queryMem > 0 {
		conn.SetQueryMemoryLimit(queryMem)
	}
	return conn
}

// TestExplainAnalyzeMatchesDebugTrace is the differential acceptance test:
// the per-operator stats EXPLAIN ANALYZE prints must be the same numbers the
// trace ring serves as JSON — byte-identical after a JSON round trip, since
// both render from one TraceSnapshot.
func TestExplainAnalyzeMatchesDebugTrace(t *testing.T) {
	conn := obsConn(t, 4000, 16<<10)
	res, err := conn.Query("EXPLAIN ANALYZE SELECT id, val FROM shuf ORDER BY val")
	if err != nil {
		t.Fatal(err)
	}
	text := res.Plan
	if !strings.Contains(text, "--- run stats ---") {
		t.Fatalf("EXPLAIN ANALYZE missing run stats:\n%s", text)
	}
	if !strings.Contains(text, "spill-events=") {
		t.Fatalf("governed sort did not report spills:\n%s", text)
	}

	traces := conn.LastTraces(1)
	if len(traces) == 0 || traces[0].Spans == nil {
		t.Fatalf("no trace retained for the analyzed run")
	}
	snap := traces[0]
	if snap.Rows != 4000 {
		t.Fatalf("trace rows = %d, want 4000", snap.Rows)
	}

	// Round-trip the snapshot through JSON — the exact bytes /debug/queries
	// would serve — and re-render the span tree. The text section must embed
	// it verbatim: same rows, same batches, same spill counters.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded obs.TraceSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	rendered := obs.RenderSpans(decoded.Spans)
	if !strings.Contains(text, rendered) {
		t.Fatalf("EXPLAIN ANALYZE text does not embed the JSON span stats:\n--- text ---\n%s--- from JSON ---\n%s", text, rendered)
	}
	if decoded.Spilled == 0 || decoded.PeakBytes == 0 {
		t.Fatalf("trace memory counters empty: peak=%d spilled=%d", decoded.PeakBytes, decoded.Spilled)
	}
}

// findSpan walks a span tree for the first operator whose name contains sub.
func findSpan(s *obs.SpanStats, sub string) *obs.SpanStats {
	if s == nil {
		return nil
	}
	if strings.Contains(s.Name, sub) {
		return s
	}
	for _, c := range s.Children {
		if m := findSpan(c, sub); m != nil {
			return m
		}
	}
	return nil
}

// TestSpanTreeParallelism checks span assembly at parallelism 1 and 4: all
// worker partitions of an operator feed one span, so row totals match the
// serial run exactly.
func TestSpanTreeParallelism(t *testing.T) {
	const n = 5000
	for _, par := range []int{1, 4} {
		conn := obsConn(t, n, 0)
		conn.SetParallelism(par)
		res, err := conn.Query("SELECT grp, COUNT(*), SUM(val) FROM shuf GROUP BY grp")
		if err != nil {
			t.Fatalf("p=%d: %v", par, err)
		}
		traces := conn.LastTraces(1)
		if len(traces) == 0 || traces[0].Spans == nil {
			t.Fatalf("p=%d: no trace", par)
		}
		snap := traces[0]
		if snap.Parallelism != par {
			t.Errorf("p=%d: trace parallelism = %d", par, snap.Parallelism)
		}
		root := snap.Spans
		if root.Rows != int64(len(res.Rows)) {
			t.Errorf("p=%d: root span rows = %d, result rows = %d", par, root.Rows, len(res.Rows))
		}
		scan := findSpan(root, "Scan")
		if scan == nil {
			t.Fatalf("p=%d: no scan span in tree:\n%s", par, obs.RenderSpans(root))
		}
		if scan.Rows != n {
			t.Errorf("p=%d: scan span rows = %d, want %d (partitions must share one span)\n%s",
				par, scan.Rows, n, obs.RenderSpans(root))
		}
		agg := findSpan(root, "Aggregate")
		if agg == nil || agg.Rows == 0 {
			t.Errorf("p=%d: aggregate span missing or empty:\n%s", par, obs.RenderSpans(root))
		}
	}
}

func TestSlowQueryLogOverConnection(t *testing.T) {
	conn := obsConn(t, 1000, 0)
	var buf bytes.Buffer
	conn.SetSlowQueryThreshold(time.Nanosecond, &buf) // everything is slow
	if _, err := conn.Query("SELECT COUNT(*) FROM shuf WHERE val > 10"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v (%q)", err, line)
	}
	if entry["fingerprint"] == "" || entry["sql"] == "" || entry["total_ms"] == nil {
		t.Fatalf("slow log entry incomplete: %v", entry)
	}
	if conn.Obs().Slow.Len() != 1 {
		t.Fatalf("slow ring len = %d, want 1", conn.Obs().Slow.Len())
	}
	traces := conn.LastTraces(1)
	if len(traces) != 1 || !traces[0].Slow {
		t.Fatalf("recent trace not marked slow: %+v", traces)
	}

	// Disabling the threshold stops both the ring and the log.
	conn.SetSlowQueryThreshold(0, nil)
	buf.Reset()
	if _, err := conn.Query("SELECT COUNT(*) FROM shuf"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 || conn.Obs().Slow.Len() != 1 {
		t.Fatal("slow tracking survived being disabled")
	}
}

// TestQueryMetrics checks the metric families a query lifecycle writes:
// outcome counters, stage histograms, and the memory-pool series (the pool
// is always registered, even without a configured limit).
func TestQueryMetrics(t *testing.T) {
	conn := obsConn(t, 2000, 8<<10)
	if _, err := conn.Query("SELECT id FROM shuf ORDER BY val"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT bogus_column FROM shuf"); err == nil {
		t.Fatal("expected error for bogus column")
	}
	var b strings.Builder
	if err := conn.Obs().Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`calcite_queries_started_total 2`,
		`calcite_queries_finished_total{status="ok"} 1`,
		`calcite_queries_finished_total{status="error"} 1`,
		`calcite_rows_returned_total 2000`,
		`calcite_query_stage_seconds_bucket{le="+Inf",stage="exec"} 2`,
		`calcite_query_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The governed sort left spill and grant evidence in the pool series.
	for _, prefix := range []string{
		"calcite_spill_events_total ",
		"calcite_spill_bytes_total ",
		"calcite_memory_granted_bytes_total ",
	} {
		val, ok := metricValue(out, prefix)
		if !ok || val <= 0 {
			t.Errorf("pool metric %q absent or zero (got %v, present=%v)", prefix, val, ok)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// metricValue extracts the sample of an unlabeled series from exposition text.
func metricValue(exposition, prefix string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestRowOnlyRootTracing: UNION ALL, a non-equi join (serial, so that no
// gather sits above it) and VALUES at the root of a plan; each root span must
// count exactly the rows the statement returned, in at least one batch, and a
// union exactly the rows its inputs delivered.
func TestRowOnlyRootTracing(t *testing.T) {
	conn := obsConn(t, 1500, 0)
	grp := func(id int) int { return int(uint64(id) * 0x9e3779b97f4a7c15 % 97) } // as obsConn
	union, join := 300, 0
	for id := 0; id < 1500; id++ {
		if grp(id) < 50 {
			union++
		}
	}
	for a := 0; a < 40; a++ {
		for b := 0; b < 30; b++ {
			if a < grp(b) {
				join++
			}
		}
	}
	for _, c := range []struct {
		sql, root   string
		rows        int
		parallelism int // 0: the connection's default
	}{
		{"SELECT id FROM shuf WHERE grp < 50 UNION ALL SELECT grp FROM shuf WHERE id < 300", "EnumerableUnion", union, 0},
		{"SELECT * FROM (SELECT id FROM shuf WHERE id < 40) a JOIN (SELECT grp FROM shuf WHERE id < 30) b ON a.id < b.grp",
			"EnumerableHashJoin", join, 1},
		{"VALUES (1, 'a'), (2, 'b'), (3, 'c')", "EnumerableValues", 3, 0},
	} {
		conn.SetParallelism(c.parallelism)
		res, err := conn.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		traces := conn.LastTraces(1)
		if len(traces) == 0 || traces[0].Spans == nil {
			t.Fatalf("%s: no trace", c.sql)
		}
		root := traces[0].Spans
		if !strings.HasPrefix(root.Name, c.root) {
			t.Fatalf("%s: root span %s, want %s\n%s", c.sql, root.Name, c.root, obs.RenderSpans(root))
		}
		if root.Rows != int64(c.rows) || len(res.Rows) != c.rows {
			t.Errorf("%s: root span rows = %d, result rows = %d, want %d\n%s",
				c.sql, root.Rows, len(res.Rows), c.rows, obs.RenderSpans(root))
		}
		if root.Batches < 1 {
			t.Errorf("%s: root span counted %d batches\n%s", c.sql, root.Batches, obs.RenderSpans(root))
		}
		if c.root == "EnumerableUnion" {
			var in int64
			for _, ch := range root.Children {
				in += ch.Rows
			}
			if in != root.Rows {
				t.Errorf("%s: inputs delivered %d rows, union %d\n%s", c.sql, in, root.Rows, obs.RenderSpans(root))
			}
		}
	}
}

// spanShape renders a span tree's operators with their row and batch counts,
// leaving out timings and the attribute text (where "?0" and a literal differ).
func spanShape(s *obs.SpanStats, depth int, b *strings.Builder) {
	fmt.Fprintf(b, "%*s%s rows=%d batches=%d\n", 2*depth, "", s.Name, s.Rows, s.Batches)
	for _, c := range s.Children {
		spanShape(c, depth+1, b)
	}
}

// TestPreparedAndLiteralFormsExecuteAlike: a statement's `?` form and its
// literal twin execute the same operator tree over the same batches and
// return the same rows — parameters are literals before anything compiles, so
// there is no second evaluator for prepared statements to fall into.
func TestPreparedAndLiteralFormsExecuteAlike(t *testing.T) {
	conn := diffConn()
	conn.SetParallelism(1)
	run := func(sql string, params ...any) ([]string, string) {
		t.Helper()
		res, err := conn.Query(sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		traces := conn.LastTraces(1)
		if len(traces) == 0 || traces[0].Spans == nil {
			t.Fatalf("%s: no trace", sql)
		}
		var b strings.Builder
		spanShape(traces[0].Spans, 0, &b)
		return renderRows(res.Rows), b.String()
	}
	for _, c := range []struct {
		prepared string
		params   []any
		literal  string
	}{
		{"SELECT productId, discount * ? FROM sales WHERE productId < ? AND discount IS NOT NULL", []any{2.0, int64(7)},
			"SELECT productId, discount * 2.0 FROM sales WHERE productId < 7 AND discount IS NOT NULL"},
		{"SELECT id, tag FROM events WHERE tag = ?", []any{"t-0042"},
			"SELECT id, tag FROM events WHERE tag = 't-0042'"},
		{"SELECT e.id, p.name FROM events e LEFT JOIN products p ON e.fkey = p.productId AND e.id > ? WHERE e.grp = ?", []any{int64(500), int64(3)},
			"SELECT e.id, p.name FROM events e LEFT JOIN products p ON e.fkey = p.productId AND e.id > 500 WHERE e.grp = 3"},
	} {
		gotRows, gotShape := run(c.prepared, c.params...)
		wantRows, wantShape := run(c.literal)
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Errorf("%s %v\n  got  %v\n  want %v", c.prepared, c.params, gotRows, wantRows)
		}
		if gotShape != wantShape {
			t.Errorf("%s %v\nprepared:\n%sliteral:\n%s", c.prepared, c.params, gotShape, wantShape)
		}
	}
}

// TestOptimizerPhasesOnTrace: a plan-cache miss carries the optimizer's
// phase split on its own trace — the phases fit inside the optimize stage,
// and a 3-factor chain considers exactly 12 join-order candidates (2 per pair
// of factors, the cross product of the unconnected pair included, and 6
// splits of the full set), of which the bound leaves some but not all to cost
// — and EXPLAIN ANALYZE and the /debug/queries JSON show both.
func TestOptimizerPhasesOnTrace(t *testing.T) {
	conn := diffConn()
	const chain = "SELECT e.name, m.name FROM emps e JOIN depts d ON e.deptno = d.deptno JOIN emps m ON m.deptno = d.deptno"
	if _, err := conn.Query(chain); err != nil {
		t.Fatal(err)
	}
	snap := conn.LastTraces(1)[0]
	ph := snap.Phases
	if ph.JoinCandidates != 12 {
		t.Fatalf("3-factor chain: %d join-order candidates, want 12", ph.JoinCandidates)
	}
	if ph.JoinCosted <= 0 || ph.JoinCosted >= ph.JoinCandidates {
		t.Fatalf("3-factor chain: %d of %d candidates costed, want some but not all", ph.JoinCosted, ph.JoinCandidates)
	}
	if ph.RewriteNs <= 0 || ph.JoinOrderNs <= 0 || ph.PhysicalNs <= 0 ||
		ph.RewriteNs+ph.JoinOrderNs+ph.PhysicalNs > snap.OptimizeNs {
		t.Fatalf("phases %+v do not fit in optimize=%d", ph, snap.OptimizeNs)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"join_candidates":12`) ||
		!strings.Contains(string(raw), fmt.Sprintf(`"join_costed":%d`, ph.JoinCosted)) {
		t.Fatalf("/debug/queries JSON lacks the phases: %s", raw)
	}
	res, err := conn.Query("EXPLAIN ANALYZE " + chain)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`join-order=\S+ \(12 candidates, (\d+) costed\)`).FindStringSubmatch(res.Plan)
	if m == nil {
		t.Fatalf("EXPLAIN ANALYZE lacks the optimizer phases:\n%s", res.Plan)
	}
	if costed, _ := strconv.Atoi(m[1]); costed <= 0 || costed >= 12 {
		t.Fatalf("EXPLAIN ANALYZE: %d of 12 candidates costed, want some but not all", costed)
	}
}
