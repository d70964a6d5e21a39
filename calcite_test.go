package calcite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/adapter/csvfile"
	"calcite/internal/adapter/streamtab"
	"calcite/internal/builder"
	"calcite/internal/types"
)

// TestFigure1Lifecycle (E1): one query through every architecture component
// of Figure 1 via the public API.
func TestFigure1Lifecycle(t *testing.T) {
	conn := calcite.Open()
	conn.AddTable("emps", calcite.Columns{
		{Name: "empid", Type: calcite.BigIntType},
		{Name: "deptno", Type: calcite.BigIntType},
		{Name: "sal", Type: calcite.DoubleType},
	}, [][]any{
		{int64(1), int64(10), 100.0},
		{int64(2), int64(20), 200.0},
	})
	logical, optimized, err := conn.Plan("SELECT deptno, SUM(sal) AS s FROM emps WHERE sal > 50 GROUP BY deptno")
	if err != nil {
		t.Fatal(err)
	}
	if logical == nil || optimized == nil {
		t.Fatal("missing plans")
	}
	res, err := conn.Query("SELECT deptno, SUM(sal) AS s FROM emps WHERE sal > 50 GROUP BY deptno ORDER BY deptno")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	// EXPLAIN shows the plan that runs: at parallelism 1, the serial scan.
	conn.SetParallelism(1)
	plan, err := conn.Explain("SELECT * FROM emps")
	if err != nil || !strings.Contains(plan, "EnumerableTableScan") {
		t.Fatalf("explain: %v %q", err, plan)
	}
}

// TestTable1EmbeddingModes (E5): the component matrix — each embedding mode
// actually runs through the components Table 1 lists.
func TestTable1EmbeddingModes(t *testing.T) {
	// Mode: full stack (parser + validator + algebra + enumerable).
	conn := calcite.Open()
	conn.AddTable("t", calcite.Columns{{Name: "x", Type: calcite.BigIntType}},
		[][]any{{int64(1)}, {int64(2)}})
	if _, err := conn.Query("SELECT x FROM t WHERE x > 1"); err != nil {
		t.Fatalf("full stack: %v", err)
	}

	// Mode: own parser, algebra only (RelBuilder).
	node, err := conn.Builder().Scan("t").
		Aggregate(builder.GroupKey(), builder.Count(false, "c")).Build()
	if err != nil {
		t.Fatalf("builder: %v", err)
	}
	res, err := conn.ExecutePlan(node)
	if err != nil {
		t.Fatalf("builder exec: %v", err)
	}
	if v, _ := types.AsInt(res.Rows[0][0]); v != 2 {
		t.Fatalf("builder count: %v", res.Rows)
	}

	// Mode: remote driver (Avatica server + client).
	addr, stop, err := conn.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer stop()
	client := calcite.Dial(addr)
	resp, err := client.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	if v, _ := types.AsInt(resp.Rows[0][0]); v != 2 {
		t.Fatalf("remote count: %v", resp.Rows)
	}

	// Mode: heuristic planner embedding.
	conn.UseHeuristicPlanner()
	if _, err := conn.Query("SELECT x FROM t"); err != nil {
		t.Fatalf("hep mode: %v", err)
	}
	conn.UseCostBasedPlanner(true, 0.05)
	if _, err := conn.Query("SELECT x FROM t"); err != nil {
		t.Fatalf("heuristic fixpoint mode: %v", err)
	}
}

// TestCSVQuickstartAdapter loads CSVs from disk (Figure 3's model → schema
// factory → schema flow).
func TestCSVQuickstartAdapter(t *testing.T) {
	dir := t.TempDir()
	csv := "id:int,name,score:double\n1,alice,9.5\n2,bob,7.25\n3,cara,\n"
	if err := os.WriteFile(filepath.Join(dir, "people.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	adapter, err := csvfile.Load("csv", dir)
	if err != nil {
		t.Fatal(err)
	}
	conn := calcite.Open()
	conn.RegisterAdapter(adapter)
	res, err := conn.Query("SELECT name FROM csv.people WHERE score > 8")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "alice" {
		t.Fatalf("rows: %v", res.Rows)
	}
	// NULL cell parsed as NULL.
	res, err = conn.Query("SELECT COUNT(*) FROM csv.people WHERE score IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := types.AsInt(res.Rows[0][0]); v != 1 {
		t.Fatalf("null count: %v", res.Rows)
	}
}

// TestStreamingPaperQueries (E11): the §7.2 example queries.
func TestStreamingPaperQueries(t *testing.T) {
	hour := int64(3600 * 1000)
	orders := streamtab.NewTable("orders", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "productId", Type: types.BigInt},
		types.Field{Name: "units", Type: types.BigInt},
	), 0)
	for i := int64(0); i < 6; i++ {
		if err := orders.Append([]any{i * hour / 2, i % 2, 20 * (i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	orders.SetWatermark(hour)

	conn := calcite.Open()
	sa := streamtab.New("s")
	sa.AddTable(orders)
	conn.RegisterAdapter(sa)

	// History vs stream.
	hist, err := conn.Query("SELECT COUNT(*) FROM s.orders")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := types.AsInt(hist.Rows[0][0]); v != 3 {
		t.Fatalf("history: %v", hist.Rows)
	}
	strm, err := conn.Query("SELECT STREAM rowtime, productId, units FROM s.orders WHERE units > 25")
	if err != nil {
		t.Fatal(err)
	}
	if len(strm.Rows) != 5 {
		t.Fatalf("stream rows: %v", strm.Rows)
	}

	// Tumbling window with TUMBLE_END.
	res, err := conn.Query(`SELECT STREAM TUMBLE_END(rowtime, INTERVAL '1' HOUR) AS wend,
		COUNT(*) AS c FROM s.orders GROUP BY TUMBLE(rowtime, INTERVAL '1' HOUR)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("windows: %v", res.Rows)
	}
	if end, _ := types.AsInt(res.Rows[0][0]); end != hour {
		t.Fatalf("first window end: %v", res.Rows[0])
	}

	// Monotonicity validation: non-monotonic streaming GROUP BY rejected.
	if _, err := conn.Query("SELECT STREAM productId, COUNT(*) FROM s.orders GROUP BY productId"); err == nil {
		t.Error("expected monotonicity validation error (§7.2)")
	}
	// Non-stream table with STREAM rejected.
	conn.AddTable("plain", calcite.Columns{{Name: "x", Type: calcite.BigIntType}}, nil)
	if _, err := conn.Query("SELECT STREAM x FROM plain"); err == nil {
		t.Error("expected error for STREAM over non-stream table")
	}
	// Out-of-order events rejected at the source.
	if err := orders.Append([]any{int64(0), int64(1), int64(1)}); err == nil {
		t.Error("expected out-of-order append error")
	}
}

// TestGeoAmsterdam (E12): the §7.3 query.
func TestGeoAmsterdam(t *testing.T) {
	conn := calcite.Open()
	conn.AddTable("country", calcite.Columns{
		{Name: "name", Type: calcite.VarcharType},
		{Name: "boundary", Type: calcite.VarcharType},
	}, [][]any{
		{"Netherlands", "POLYGON ((3.3 50.7, 7.2 50.7, 7.2 53.6, 3.3 53.6, 3.3 50.7))"},
		{"Belgium", "POLYGON ((2.5 49.5, 6.4 49.5, 6.4 51.5, 2.5 51.5, 2.5 49.5))"},
	})
	res, err := conn.Query(`SELECT name FROM (
		SELECT name,
		       ST_GeomFromText('POLYGON ((4.82 52.43, 4.97 52.43, 4.97 52.33, 4.82 52.33, 4.82 52.43))') AS "Amsterdam",
		       ST_GeomFromText(boundary) AS "Country"
		FROM country
	) t WHERE ST_Contains("Country", "Amsterdam")`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "Netherlands" {
		t.Fatalf("rows: %v", res.Rows)
	}
}

// TestBuilderPigExample (E13): §3's expression-builder program.
func TestBuilderPigExample(t *testing.T) {
	conn := calcite.Open()
	conn.AddTable("employee_data", calcite.Columns{
		{Name: "deptno", Type: calcite.BigIntType},
		{Name: "sal", Type: calcite.DoubleType},
	}, [][]any{
		{int64(10), 1000.0}, {int64(10), 2000.0}, {int64(20), 1500.0},
	})
	node, err := conn.Builder().
		Scan("employee_data").
		Aggregate(builder.GroupKey("deptno"),
			builder.Count(false, "c"),
			builder.Sum(false, "s", "sal")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.ExecutePlan(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for _, row := range res.Rows {
		if d, _ := types.AsInt(row[0]); d == 10 {
			if c, _ := types.AsInt(row[1]); c != 2 {
				t.Errorf("dept 10 count: %v", row)
			}
			if s, _ := types.AsFloat(row[2]); s != 3000 {
				t.Errorf("dept 10 sum: %v", row)
			}
		}
	}
	// Builder error handling.
	if _, err := conn.Builder().Scan("nope").Build(); err == nil {
		t.Error("unknown table should fail at Build")
	}
	if _, err := conn.Builder().Filter(nil).Build(); err == nil {
		t.Error("filter without input should fail")
	}
}
