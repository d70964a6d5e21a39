package calcite_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"calcite"
)

// windowConn builds the window-suite fixture: device event rows with NULLs
// in both the partition and order columns, a timestamp column for RANGE
// interval frames, and binary-exact float values (quarter steps) so every
// execution mode agrees bit-for-bit.
func windowConn(n int) *calcite.Connection {
	conn := calcite.Open()
	rows := make([][]any, n)
	for i := range rows {
		var dev any
		if i%17 != 3 {
			dev = int64(i % 7)
		}
		var ts any
		if i%13 != 5 {
			// Event times stride 10 minutes with duplicates every 4th row.
			ts = int64((i / 4) * 10 * 60 * 1000)
		}
		var val any
		if i%11 != 7 {
			val = float64((i*37)%400) / 4
		}
		rows[i] = []any{dev, ts, val, fmt.Sprintf("c%d", i%3)}
	}
	conn.AddTable("events", calcite.Columns{
		{Name: "dev", Type: calcite.BigIntType},
		{Name: "ts", Type: calcite.TimestampType},
		{Name: "val", Type: calcite.DoubleType},
		{Name: "cat", Type: calcite.VarcharType},
	}, rows)
	return conn
}

// windowQueries is the differential suite of ISSUE 5: DESC order keys, NULL
// order/partition values, empty frames, timestamp RANGE frames, ranking and
// navigation functions. The window operator preserves input row order, so
// results are compared order-exact even without ORDER BY.
var windowQueries = []string{
	// Running totals (the seed's only well-tested shape).
	`SELECT dev, val, SUM(val) OVER (PARTITION BY dev ORDER BY ts) FROM events`,
	// Sliding ROWS frames, incl. one wide enough to span NULL runs.
	`SELECT dev, COUNT(val) OVER (PARTITION BY dev ORDER BY ts ROWS 5 PRECEDING) FROM events`,
	`SELECT dev, SUM(val) OVER (PARTITION BY dev ORDER BY val ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) FROM events`,
	// Empty frames: the upper bound excludes the current row.
	`SELECT val, SUM(val) OVER (ORDER BY ts, val ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) FROM events`,
	// DESC order keys with value-based RANGE offsets (regression: the seed
	// walked the lower bound the wrong way).
	`SELECT dev, val, SUM(val) OVER (PARTITION BY dev ORDER BY val DESC RANGE 25 PRECEDING) FROM events`,
	`SELECT val, MIN(val) OVER (ORDER BY val DESC ROWS 4 PRECEDING), MAX(val) OVER (ORDER BY val DESC ROWS 4 PRECEDING) FROM events`,
	// The paper's headline sliding window: RANGE INTERVAL over a rowtime.
	`SELECT dev, ts, SUM(val) OVER (PARTITION BY dev ORDER BY ts RANGE INTERVAL '1' HOUR PRECEDING) FROM events`,
	`SELECT ts, COUNT(*) OVER (ORDER BY ts DESC RANGE INTERVAL '30' MINUTE PRECEDING) FROM events`,
	// Ranking and navigation.
	`SELECT dev, val, ROW_NUMBER() OVER (PARTITION BY dev ORDER BY val DESC, ts) FROM events`,
	`SELECT cat, val, RANK() OVER (PARTITION BY cat ORDER BY val), DENSE_RANK() OVER (PARTITION BY cat ORDER BY val) FROM events`,
	`SELECT dev, val, LAG(val) OVER (PARTITION BY dev ORDER BY ts), LEAD(val, 2, -1) OVER (PARTITION BY dev ORDER BY ts) FROM events`,
	// Several groups in one select, and a window over a filtered subtree.
	`SELECT dev, SUM(val) OVER (PARTITION BY dev ORDER BY ts), AVG(val) OVER (PARTITION BY cat ORDER BY val ROWS 3 PRECEDING), ROW_NUMBER() OVER (ORDER BY ts, val) FROM events`,
	`SELECT dev, COUNT(*) OVER (PARTITION BY dev ORDER BY ts ROWS 10 PRECEDING) FROM events WHERE val > 20`,
	// No PARTITION BY: one global partition (parallel falls back to serial).
	`SELECT val, SUM(val) OVER (ORDER BY val ROWS 7 PRECEDING) FROM events`,
}

// TestWindowDifferential runs the window suite through every execution mode
// — tiny batches, parallelism 1/4, and a quarter-budget governed run — and
// requires results identical to the serial engine, order included, whose
// answers must be the ones testdata/results.golden pins.
func TestWindowDifferential(t *testing.T) {
	base := windowConn(260)
	base.SetParallelism(1)
	variants := []struct {
		name string
		conn *calcite.Connection
	}{
		{"batchSize=3", func() *calcite.Connection { c := windowConn(260); c.SetParallelism(1); c.SetBatchSize(3); return c }()},
		{"parallel=4", func() *calcite.Connection { c := windowConn(260); c.SetParallelism(4); return c }()},
		{"parallel=4,batchSize=3", func() *calcite.Connection {
			c := windowConn(260)
			c.SetParallelism(4)
			c.SetBatchSize(3)
			return c
		}()},
		{"governed=32KB", func() *calcite.Connection {
			c := windowConn(260)
			c.SetParallelism(1)
			c.SetMemoryLimit(32 << 10)
			return c
		}()},
		{"governed=32KB,parallel=4", func() *calcite.Connection {
			c := windowConn(260)
			c.SetParallelism(4)
			c.SetMemoryLimit(32 << 10)
			return c
		}()},
	}
	golden := readResultsGolden(t)
	for _, s := range goldenCorpora()[1].statements { // windowQueries
		checkGoldenBlock(t, golden, s, goldenBlock(s, base.Query), false)
		want, err := base.Query(s.sql)
		if err != nil {
			t.Fatalf("%s\n  baseline: %v", s.sql, err)
		}
		wantRows := renderRows(want.Rows)
		for _, v := range variants {
			got, err := v.conn.Query(s.sql)
			if err != nil {
				t.Errorf("%s\n  %s: %v", s.sql, v.name, err)
				continue
			}
			if !reflect.DeepEqual(renderRows(got.Rows), wantRows) {
				t.Errorf("%s\n  %s differs from serial baseline", s.sql, v.name)
			}
		}
	}
}

// TestWindowRangeDescRegression pins the DESC RANGE fix with hand-computed
// frames: ordered descending, "N PRECEDING" reaches toward LARGER values.
func TestWindowRangeDescRegression(t *testing.T) {
	conn := calcite.Open()
	conn.AddTable("t", calcite.Columns{{Name: "v", Type: calcite.BigIntType}}, [][]any{
		{int64(16)}, {int64(8)}, {int64(4)}, {int64(2)}, {int64(1)},
	})
	r, err := conn.Query(`SELECT v, SUM(v) OVER (ORDER BY v DESC RANGE 3 PRECEDING) AS s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	// v=16 -> [16,19] = 16; 8 -> [8,11] = 8; 4 -> [4,7] = 4;
	// 2 -> [2,5] = 4+2; 1 -> [1,4] = 4+2+1.
	want := map[int64]int64{16: 16, 8: 8, 4: 4, 2: 6, 1: 7}
	for _, row := range r.Rows {
		v, s := row[0].(int64), row[1].(int64)
		if s != want[v] {
			t.Errorf("v=%d: sum=%d want %d", v, s, want[v])
		}
	}
}

// TestWindowTimestampRangeRegression pins the temporal RANGE fix: the seed's
// numeric-only lower-bound scan silently framed from the partition start.
func TestWindowTimestampRangeRegression(t *testing.T) {
	conn := calcite.Open()
	hour := int64(3600 * 1000)
	conn.AddTable("t", calcite.Columns{
		{Name: "ts", Type: calcite.TimestampType},
		{Name: "v", Type: calcite.BigIntType},
	}, [][]any{
		{int64(0), int64(1)},
		{hour / 2, int64(2)},
		{3 * hour / 2, int64(4)},
		{2 * hour, int64(8)},
	})
	r, err := conn.Query(`SELECT v, SUM(v) OVER (ORDER BY ts RANGE INTERVAL '1' HOUR PRECEDING) AS s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 6, 12} // each frame reaches back exactly one hour
	for i, row := range r.Rows {
		if got := row[1].(int64); got != want[i] {
			t.Errorf("row %d: sum=%v want %d", i, row[1], want[i])
		}
	}
	// An order key that is neither numeric nor temporal must fail cleanly
	// instead of producing partition-start frames.
	conn.AddTable("s", calcite.Columns{{Name: "name", Type: calcite.VarcharType}},
		[][]any{{"a"}, {"b"}})
	if _, err := conn.Query(`SELECT COUNT(*) OVER (ORDER BY name RANGE 1 PRECEDING) FROM s`); err == nil ||
		!strings.Contains(err.Error(), "RANGE frame") {
		t.Errorf("expected clean RANGE-key error, got %v", err)
	}
}

// TestWindowGoverned runs a window whose materialized input far exceeds the
// query budget: results must match the ungoverned run exactly, the spill
// must be visible in EXPLAIN ANALYZE, and with spilling disabled the same
// query must fail with the budget error instead of wrong results.
func TestWindowGoverned(t *testing.T) {
	sql := `SELECT dev, SUM(val) OVER (PARTITION BY dev ORDER BY ts ROWS 100 PRECEDING) AS s FROM events`
	free := windowConn(5000)
	free.SetParallelism(1)
	want, err := free.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	governed := windowConn(5000)
	governed.SetParallelism(1)
	governed.SetMemoryLimit(64 << 10) // ~quarter of the materialized rows
	got, err := governed.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(renderRows(got.Rows), renderRows(want.Rows)) {
		t.Error("governed window differs from unlimited run")
	}
	plan, err := governed.Query("EXPLAIN ANALYZE " + sql)
	if err != nil {
		t.Fatal(err)
	}
	text := renderPlan(plan.Rows)
	if !strings.Contains(text, "EnumerableWindow: rows=") ||
		!strings.Contains(text, "peak=") || !strings.Contains(text, "spill") {
		t.Errorf("EXPLAIN ANALYZE should show window spill counters:\n%s", text)
	}
	strict := windowConn(5000)
	strict.SetParallelism(1)
	strict.SetMemoryLimit(64 << 10)
	strict.EnableSpill(false)
	if _, err := strict.Query(sql); err == nil || !strings.Contains(err.Error(), "memory budget exceeded") {
		t.Errorf("spill-disabled window should fail with the budget error, got %v", err)
	}
}

func renderPlan(rows [][]any) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintln(&b, r[0])
	}
	return b.String()
}
