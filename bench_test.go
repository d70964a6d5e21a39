// Benchmarks regenerating the performance shape of every experiment in
// DESIGN.md (the paper has no absolute performance tables; these benches
// measure the effects the paper claims qualitatively — pushdown wins,
// metadata caching matters, heuristic fix points trade plan quality for
// planning time, materialized views accelerate aggregates).
package calcite_test

import (
	"fmt"
	"testing"
	"time"

	"calcite"
	"calcite/internal/adapter/splunk"
	"calcite/internal/adapter/sqldb"
	"calcite/internal/adapter/streamtab"
	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/meta"
	"calcite/internal/parallel"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rel2sql"
	"calcite/internal/rex"
	"calcite/internal/rules"
	"calcite/internal/schema"
	"calcite/internal/stream"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// --- shared fixtures ---

func benchTables(nSales, nProducts int) (*schema.MemTable, *schema.MemTable) {
	sales := make([][]any, nSales)
	for i := range sales {
		var discount any
		if i%3 == 0 {
			discount = float64(i%10) / 100
		}
		sales[i] = []any{int64(i % nProducts), discount}
	}
	products := make([][]any, nProducts)
	for i := range products {
		products[i] = []any{int64(i), fmt.Sprintf("product-%d", i)}
	}
	st := schema.NewMemTable("sales", types.Row(
		types.Field{Name: "productId", Type: types.BigInt},
		types.Field{Name: "discount", Type: types.Double.WithNullable(true)},
	), sales)
	pt := schema.NewMemTable("products", types.Row(
		types.Field{Name: "productId", Type: types.BigInt},
		types.Field{Name: "name", Type: types.Varchar},
	), products)
	pt.SetStats(schema.Statistics{RowCount: float64(nProducts), UniqueColumns: [][]int{{0}}})
	return st, pt
}

func figure4Conn(nSales, nProducts int) *calcite.Connection {
	conn := calcite.Open()
	st, pt := benchTables(nSales, nProducts)
	conn.Framework.Catalog.AddTable(st)
	conn.Framework.Catalog.AddTable(pt)
	return conn
}

const figure4SQL = `
	SELECT products.name, COUNT(*)
	FROM sales JOIN products USING (productId)
	WHERE sales.discount IS NOT NULL
	GROUP BY products.name
	ORDER BY COUNT(*) DESC`

// BenchmarkFig4_FilterIntoJoin measures the Figure 4 query with the full
// rule set (filter pushed below the join).
func BenchmarkFig4_FilterIntoJoin(b *testing.B) {
	conn := figure4Conn(20000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(figure4SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Rules_NoFilterPushdown is the A1 ablation: the same
// query with the logical rewrite phase disabled, so the join processes
// every sales row (the paper: pushing the filter "can significantly reduce
// query execution time").
func BenchmarkAblation_Rules_NoFilterPushdown(b *testing.B) {
	conn := figure4Conn(20000, 50)
	conn.Framework.DisableLogicalPhase = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(figure4SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 / A4: Figure 2 federation, pushdown vs no pushdown ---

func fig2Bench(withRules bool, nOrders int) (*calcite.Connection, error) {
	mysql := sqldb.NewServer("mysql")
	// Simulated wire: a real federation pays per request and per row moved;
	// without this, in-process backends make bulk transfer artificially free.
	mysql.Network = sqldb.NetworkCost{PerRequest: 50 * time.Microsecond, PerRow: 10 * time.Microsecond}
	products := make([][]any, 100)
	for i := range products {
		products[i] = []any{int64(i), fmt.Sprintf("p%d", i)}
	}
	mysql.CreateTable("products", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "name", Type: types.Varchar},
	), products)
	engine := splunk.NewEngine()
	engine.Network = splunk.NetworkCost{PerRequest: 50 * time.Microsecond, PerRow: 10 * time.Microsecond}
	events := make([][]any, nOrders)
	for i := range events {
		events[i] = []any{int64(i), int64(i % 100), int64(i % 60)}
	}
	engine.AddIndex(&splunk.Index{
		Name: "orders",
		Fields: []types.Field{
			{Name: "rowtime", Type: types.Timestamp},
			{Name: "product_id", Type: types.BigInt},
			{Name: "units", Type: types.BigInt},
		},
		Events: events,
	})
	engine.SetLookup(func(tbl, key string, value any) ([]string, [][]any, error) {
		rows, err := mysql.Lookup(tbl, key, value)
		return []string{"id", "name"}, rows, err
	})
	conn := calcite.Open()
	jdbc, err := sqldb.New("mysql", mysql, rel2sql.MySQL)
	if err != nil {
		return nil, err
	}
	conn.RegisterAdapter(jdbc)
	sa := splunk.New("splunk", engine)
	if withRules {
		conn.RegisterAdapter(sa)
	} else {
		conn.Framework.Catalog.AddSchema(sa.AdapterSchema())
		conn.Framework.PhysicalRules = append(conn.Framework.PhysicalRules, sa.Rules()[0])
		conn.Framework.Converters = append(conn.Framework.Converters, sa.Converters()...)
	}
	return conn, nil
}

const fig2SQL = `SELECT p.name, o.units
	FROM splunk.orders o JOIN mysql.products p ON o.product_id = p.id
	WHERE o.units > 55`

// BenchmarkFig2_Pushdown: filter + join pushed into the Splunk engine.
func BenchmarkFig2_Pushdown(b *testing.B) {
	conn, err := fig2Bench(true, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(fig2SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_NoPushdown: everything shipped to the enumerable engine.
func BenchmarkFig2_NoPushdown(b *testing.B) {
	conn, err := fig2Bench(false, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(fig2SQL); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: planner engines over join-reordering workloads ---

// chainJoinPlan builds a left-deep chain of n joins with poor initial order
// (largest table first).
func chainJoinPlan(n int) rel.Node {
	sizes := []float64{100000, 10000, 1000, 100, 10, 5}
	var node rel.Node
	for i := 0; i <= n; i++ {
		t := schema.NewMemTable(fmt.Sprintf("t%d", i), types.Row(
			types.Field{Name: fmt.Sprintf("k%d", i), Type: types.BigInt},
			types.Field{Name: fmt.Sprintf("v%d", i), Type: types.Varchar},
		), nil)
		t.SetStats(schema.Statistics{RowCount: sizes[i%len(sizes)]})
		scan := rel.NewTableScan(trait.Logical, t, []string{t.Name()})
		if node == nil {
			node = scan
			continue
		}
		leftWidth := rel.FieldCount(node)
		cond := rex.Eq(
			rex.NewInputRef(leftWidth-2, types.BigInt),
			rex.NewInputRef(leftWidth, types.BigInt),
		)
		node = rel.NewJoin(rel.InnerJoin, node, scan, cond)
	}
	return node
}

func benchPlanner(b *testing.B, mode plan.FixPointMode, delta float64, joins int) {
	logical := chainJoinPlan(joins)
	allRules := append(exec.Rules(), rules.JoinReorderRules()...)
	allRules = append(allRules, rules.DefaultLogicalRules()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp := plan.NewVolcanoPlanner(allRules...)
		vp.Mode = mode
		vp.Delta = delta
		vp.Meta = meta.NewQuery(exec.MetadataProvider())
		if _, err := vp.Optimize(logical, trait.Enumerable); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(vp.ExpressionCount()), "exprs")
			b.ReportMetric(float64(vp.Fired), "rule-firings")
		}
	}
}

// BenchmarkPlanner_VolcanoExhaustive_3Joins explores the space exhaustively.
func BenchmarkPlanner_VolcanoExhaustive_3Joins(b *testing.B) {
	benchPlanner(b, plan.Exhaustive, 0, 3)
}

// BenchmarkPlanner_VolcanoHeuristic_3Joins stops when cost improvement
// drops below δ (the paper's heuristic fix point).
func BenchmarkPlanner_VolcanoHeuristic_3Joins(b *testing.B) {
	benchPlanner(b, plan.Heuristic, 0.05, 3)
}

// BenchmarkPlanner_VolcanoExhaustive_4Joins scales the search space up
// (the exhaustive space grows super-exponentially; 5 joins takes ~26 s per
// plan on this engine, so the suite stops at 4).
func BenchmarkPlanner_VolcanoExhaustive_4Joins(b *testing.B) {
	benchPlanner(b, plan.Exhaustive, 0, 4)
}

// BenchmarkPlanner_VolcanoHeuristic_5Joins: the δ fix point keeps large
// spaces tractable.
func BenchmarkPlanner_VolcanoHeuristic_5Joins(b *testing.B) {
	benchPlanner(b, plan.Heuristic, 0.05, 5)
}

// BenchmarkPlanner_Hep_5Joins is the A2 ablation: rule-driven planning with
// no cost model (fast, but keeps the initial join order).
func BenchmarkPlanner_Hep_5Joins(b *testing.B) {
	logical := chainJoinPlan(5)
	allRules := exec.Rules()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hp := plan.NewHepPlanner(allRules...)
		_ = hp.Optimize(logical)
	}
}

// --- E8: metadata cache ---

func benchMetadata(b *testing.B, cached bool) {
	logical := chainJoinPlan(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := meta.NewQuery()
		q.CacheEnabled = cached
		// The workload of §6's example: "multiple types of metadata such as
		// cardinality, average row size, and selectivity ... all these
		// computations rely on the cardinality of their inputs". Rules query
		// the same nodes repeatedly over a planning session.
		for pass := 0; pass < 20; pass++ {
			rel.Walk(logical, func(n rel.Node) bool {
				q.RowCount(n)
				q.AverageRowSize(n)
				q.CumulativeCost(n)
				return true
			})
		}
		if i == 0 {
			b.ReportMetric(float64(q.Calls), "provider-calls")
		}
	}
}

// BenchmarkMetadata_CacheOn measures metadata with the memo cache (§6: the
// cache "yields significant performance improvements").
func BenchmarkMetadata_CacheOn(b *testing.B) { benchMetadata(b, true) }

// BenchmarkMetadata_CacheOff is the A3 ablation.
func BenchmarkMetadata_CacheOff(b *testing.B) { benchMetadata(b, false) }

// --- E9: materialized views ---

func matViewConn(b *testing.B, withView bool) *calcite.Connection {
	conn := calcite.Open()
	rows := make([][]any, 50000)
	regions := []string{"EU", "US", "APAC", "LATAM"}
	for i := range rows {
		rows[i] = []any{regions[i%4], float64(i % 500)}
	}
	conn.AddTable("sales", calcite.Columns{
		{Name: "region", Type: calcite.VarcharType},
		{Name: "revenue", Type: calcite.DoubleType},
	}, rows)
	if withView {
		if _, err := conn.Exec(`CREATE MATERIALIZED VIEW rev AS
			SELECT region, SUM(revenue) AS total FROM sales GROUP BY region`); err != nil {
			b.Fatal(err)
		}
	}
	return conn
}

const matViewSQL = "SELECT region, SUM(revenue) AS total FROM sales GROUP BY region"

// BenchmarkMatView_Rewrite answers the aggregate from the materialization.
func BenchmarkMatView_Rewrite(b *testing.B) {
	conn := matViewConn(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(matViewSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatView_BaseTables computes it from scratch.
func BenchmarkMatView_BaseTables(b *testing.B) {
	conn := matViewConn(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(matViewSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6/E14: adapter pushdown translation throughput ---

// BenchmarkTable2_AdapterPushdown plans (not executes) the four Table 2
// pushdown queries, measuring optimizer + translator cost per backend.
func BenchmarkTable2_AdapterPushdown(b *testing.B) {
	conn, err := fig2Bench(true, 100)
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		"SELECT name FROM mysql.products WHERE id > 10",
		"SELECT units FROM splunk.orders WHERE units > 55",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, _, err := conn.Plan(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- end-to-end SQL throughput over the enumerable engine ---

func BenchmarkSQL_FilterProject(b *testing.B) {
	conn := figure4Conn(10000, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query("SELECT productId FROM sales WHERE discount IS NOT NULL"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQL_HashJoin(b *testing.B) {
	conn := figure4Conn(10000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query("SELECT COUNT(*) FROM sales JOIN products USING (productId)"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQL_WindowAggregate(b *testing.B) {
	conn := figure4Conn(5000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(`SELECT productId,
			COUNT(*) OVER (PARTITION BY productId ORDER BY productId ROWS 10 PRECEDING) AS c
			FROM sales`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- morsel-driven parallel execution scaling ---

// vecConn builds a 3-column table of nRows rows (ints, nullable floats, short
// strings).
func vecConn(nRows int) *calcite.Connection {
	conn := calcite.Open()
	rows := make([][]any, nRows)
	for i := range rows {
		var score any
		if i%5 != 0 {
			score = float64(i%1000) / 4
		}
		rows[i] = []any{int64(i), score, fmt.Sprintf("n%03d", i%500)}
	}
	conn.AddTable("big", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "score", Type: calcite.DoubleType},
		{Name: "name", Type: calcite.VarcharType},
	}, rows)
	return conn
}

// benchSerialVsParallel plans sql once, then measures pure execution of the
// same physical plan at 1, 2, 4 and 8 workers (sub-benches "P1".."P8"). P1
// is the untouched serial plan; the others run the parallel rewrite
// (morsels, exchanges, partitioned operators) over a shared worker pool.
// Scaling is only visible on a multi-core runner: at GOMAXPROCS=1 the
// parallel variants measure pure orchestration overhead.
func benchSerialVsParallel(b *testing.B, conn *calcite.Connection, sql string, wantRows int) {
	_, optimized, err := conn.Plan(sql)
	if err != nil {
		b.Fatal(err)
	}
	pool := conn.Framework.WorkerPool()
	for _, p := range []int{1, 2, 4, 8} {
		plan := optimized
		if p > 1 {
			plan = parallel.Parallelize(optimized, pool, p)
		}
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := exec.Execute(exec.NewContext(), plan)
				if err != nil {
					b.Fatal(err)
				}
				if wantRows >= 0 && len(rows) != wantRows {
					b.Fatalf("got %d rows, want %d", len(rows), wantRows)
				}
			}
		})
	}
}

// BenchmarkExec_SerialVsParallel_Filter: selective predicate over 400k rows,
// no pipeline breaker — pure scan/filter scaling.
func BenchmarkExec_SerialVsParallel_Filter(b *testing.B) {
	conn := vecConn(400000)
	benchSerialVsParallel(b, conn,
		"SELECT id FROM big WHERE id > 300000 AND score IS NOT NULL", -1)
}

// BenchmarkExec_SerialVsParallel_HashJoin: 200k-row probe side against a
// 100-row build side (partitioned build + probe).
func BenchmarkExec_SerialVsParallel_HashJoin(b *testing.B) {
	conn := figure4Conn(200000, 100)
	benchSerialVsParallel(b, conn,
		"SELECT products.name FROM sales JOIN products USING (productId)", 200000)
}

// BenchmarkExec_SerialVsParallel_Aggregate: grouped aggregate over 400k rows
// (thread-local pre-aggregation + hash exchange + final merge).
func BenchmarkExec_SerialVsParallel_Aggregate(b *testing.B) {
	conn := figure4Conn(400000, 50)
	benchSerialVsParallel(b, conn,
		"SELECT productId, COUNT(*), SUM(discount) FROM sales GROUP BY productId", 50)
}

// --- parse/plan micro benches (framework overhead) ---

func BenchmarkParseOnly(b *testing.B) {
	conn := figure4Conn(10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Framework.ParseAndConvert(figure4SQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOnly(b *testing.B) {
	conn := figure4Conn(10, 5)
	logical, err := conn.Framework.ParseAndConvert(figure4SQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Framework.Optimize(logical); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sanity: pushdown benches agree on results (guards the comparison) ---

func TestBenchFixturesAgree(t *testing.T) {
	withPD, err := fig2Bench(true, 500)
	if err != nil {
		t.Fatal(err)
	}
	withoutPD, err := fig2Bench(false, 500)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := withPD.Query(fig2SQL)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := withoutPD.Query(fig2SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("pushdown %d rows vs no-pushdown %d rows", len(r1.Rows), len(r2.Rows))
	}
	_ = core.VolcanoCostBased
}

// --- E9: histogram-driven join ordering (ANALYZE) ---

// joinOrderConn builds a skewed 5-way star schema: the fact table's fk2
// values concentrate on the low end of d2's key space, so the filter on d2
// keeps half the fact rows while looking like a 0.5-selectivity guess on an
// unanalyzed catalog — and the filter on d3 keeps 2% of the fact rows while
// looking identical to the optimizer until histograms say otherwise.
func joinOrderConn(factRows int) *calcite.Connection {
	conn := calcite.Open()
	conn.SetParallelism(1)
	fact := make([][]any, factRows)
	for i := range fact {
		fact[i] = []any{
			int64(i % 50),         // fk1 → d1 (50 rows)
			int64((i * i) % 2000), // fk2 → d2, quadratic residues skew low keys
			int64(i % 2000),       // fk3 → d3
			int64(i % 400),        // fk4 → d4
			float64(i % 97),
		}
	}
	conn.AddTable("sales", calcite.Columns{
		{Name: "fk1", Type: calcite.BigIntType},
		{Name: "fk2", Type: calcite.BigIntType},
		{Name: "fk3", Type: calcite.BigIntType},
		{Name: "fk4", Type: calcite.BigIntType},
		{Name: "amt", Type: calcite.DoubleType},
	}, fact)
	dim := func(name string, n int, suffix string) {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{int64(i), int64(i)}
		}
		conn.AddTable(name, calcite.Columns{
			{Name: "k" + suffix, Type: calcite.BigIntType},
			{Name: "v" + suffix, Type: calcite.BigIntType},
		}, rows)
	}
	dim("d1", 50, "1")
	dim("d2", 2000, "2")
	dim("d3", 2000, "3")
	dim("d4", 400, "4")
	return conn
}

const joinOrderSQL = `SELECT SUM(f.amt) AS total FROM sales f
	JOIN d1 ON f.fk1 = d1.k1
	JOIN d2 ON f.fk2 = d2.k2
	JOIN d3 ON f.fk3 = d3.k3
	JOIN d4 ON f.fk4 = d4.k4
	WHERE d2.v2 < 1000 AND d3.v3 < 40`

// BenchmarkOptimize_JoinOrder measures plan quality, not planner speed: each
// iteration plans AND executes the 5-way star join. The unanalyzed variant
// orders dimensions by the textbook constants; the analyzed variant orders
// them by histogram/NDV estimates, probing the fact table through the most
// selective dimensions first.
func BenchmarkOptimize_JoinOrder(b *testing.B) {
	for _, analyzed := range []bool{false, true} {
		b.Run(fmt.Sprintf("analyzed=%v", analyzed), func(b *testing.B) {
			conn := joinOrderConn(60000)
			if analyzed {
				for _, tab := range []string{"sales", "d1", "d2", "d3", "d4"} {
					if _, err := conn.Exec("ANALYZE TABLE " + tab); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := conn.Query(joinOrderSQL)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != 1 {
					b.Fatalf("rows: %v", res.Rows)
				}
			}
		})
	}
}

// --- memory governance: spill vs in-memory throughput ---

// benchSpillVsInMemory plans sql once and measures execution at three
// budgets: unlimited (nothing tracked), tracked-unlimited (the governance
// accounting overhead in isolation), and a budget of roughly a quarter of
// the query's working set (the spill path: external sort runs, Grace join
// partitions, flushed aggregation states hit the disk every iteration).
func benchSpillVsInMemory(b *testing.B, mk func() *calcite.Connection, sql string, quarterBudget int64, wantRows int) {
	cases := []struct {
		name   string
		budget int64
	}{
		{"Unlimited", 0},
		{"QuarterBudget", quarterBudget},
	}
	for _, c := range cases {
		conn := mk()
		conn.SetParallelism(1)
		if c.budget > 0 {
			conn.SetMemoryLimit(c.budget)
		}
		_, optimized, err := conn.Plan(sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := conn.Framework.ExecutePhysical(optimized)
				if err != nil {
					b.Fatal(err)
				}
				if wantRows >= 0 && len(rows) != wantRows {
					b.Fatalf("got %d rows, want %d", len(rows), wantRows)
				}
			}
		})
	}
}

// --- window execution: serial vs parallel ---

// windowBenchConn is the window fixture: 100k time-series rows in 8
// partitions, so a 1000-row sliding frame genuinely slides.
func windowBenchConn() *calcite.Connection {
	conn := calcite.Open()
	rows := make([][]any, 100000)
	for i := range rows {
		rows[i] = []any{int64(i % 8), int64(i), float64(i%1000) / 4}
	}
	conn.AddTable("wseries", calcite.Columns{
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "seq", Type: calcite.BigIntType},
		{Name: "score", Type: calcite.DoubleType},
	}, rows)
	return conn
}

const windowBenchSQL = `SELECT grp, SUM(score) OVER (PARTITION BY grp ORDER BY seq ROWS 1000 PRECEDING) AS s FROM wseries`

func benchWindow(b *testing.B, parallelism int) {
	conn := windowBenchConn()
	conn.SetParallelism(parallelism)
	_, optimized, err := conn.Plan(windowBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := conn.Framework.ExecutePhysical(optimized)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 100000 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkExec_Window_Incremental is the serial path: retractable
// accumulators slide each frame in O(1) amortized.
func BenchmarkExec_Window_Incremental(b *testing.B) { benchWindow(b, 1) }

// BenchmarkExec_Window_Parallel adds partition-parallel execution across 4
// workers on top of the incremental path.
func BenchmarkExec_Window_Parallel(b *testing.B) { benchWindow(b, 4) }

// spillBenchConn is a 100k-row single-table fixture (~8MB working set as
// materialized rows).
func spillBenchConn() *calcite.Connection {
	conn := calcite.Open()
	rows := make([][]any, 100000)
	for i := range rows {
		rows[i] = []any{int64(i), int64((i * 7919) % 100000), float64(i%1000) / 4, int64(i % 500)}
	}
	conn.AddTable("big", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "shuffled", Type: calcite.BigIntType},
		{Name: "score", Type: calcite.DoubleType},
		{Name: "grp", Type: calcite.BigIntType},
	}, rows)
	return conn
}

// BenchmarkExec_SpillVsInMemory_Sort: full 100k-row sort; the quarter
// budget forces several external runs plus the k-way merge from disk.
func BenchmarkExec_SpillVsInMemory_Sort(b *testing.B) {
	benchSpillVsInMemory(b, spillBenchConn,
		"SELECT shuffled, id FROM big ORDER BY shuffled", 2<<20, 100000)
}

// BenchmarkExec_SpillVsInMemory_HashJoin: self-join with a 100k-row build
// side; the quarter budget forces Grace partitioning of both sides.
func BenchmarkExec_SpillVsInMemory_HashJoin(b *testing.B) {
	benchSpillVsInMemory(b, spillBenchConn,
		"SELECT a.id FROM big a JOIN big b ON a.id = b.shuffled", 4<<20, 100000)
}

// BenchmarkExec_SpillVsInMemory_Aggregate: 100k rows into 500 groups with
// value-retaining aggregates; the quarter budget flushes accumulator states
// to partitions and re-merges them.
func BenchmarkExec_SpillVsInMemory_Aggregate(b *testing.B) {
	benchSpillVsInMemory(b, spillBenchConn,
		"SELECT grp, COUNT(*), SUM(score), MIN(shuffled), MAX(shuffled) FROM big GROUP BY grp", 64<<10, 500)
}

// --- streaming: incremental window maintenance vs per-window recompute ---

// streamBenchConn is the continuous-query fixture: a 100k-event stream in
// 8 keys with ~200ms mean spacing behind a stream table, so an 16s/1s HOP
// keeps 16 panes of standing state per key and each event overlaps 16
// windows.
func streamBenchConn(b *testing.B) (*calcite.Connection, *streamtab.Table) {
	b.Helper()
	tb := streamtab.NewTable("events", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	), 0)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(mod int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33) % mod
	}
	ts := int64(0)
	for i := 0; i < 100000; i++ {
		ts += next(400)
		if err := tb.Append([]any{ts, next(8), next(1000)}); err != nil {
			b.Fatal(err)
		}
	}
	conn := calcite.Open()
	sa := streamtab.New("s")
	sa.AddTable(tb)
	conn.RegisterAdapter(sa)
	return conn, tb
}

const streamBenchSQL = `SELECT STREAM HOP_START(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND) AS ws, HOP_END(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY HOP(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND), k`

// BenchmarkExec_Stream_IncrementalVsRecompute contrasts the continuous
// HOP query on the vectorized incremental path (one pane accumulation per
// event, windows assembled by merging pane states at emission) against the
// row-mode oracle, which re-materializes every event into each of the 16
// windows it overlaps and recomputes each window's aggregates from
// scratch — the §7.2 "re-executing the query per window" strawman.
func BenchmarkExec_Stream_IncrementalVsRecompute(b *testing.B) {
	conn, tb := streamBenchConn(b)
	conn.SetParallelism(1)
	_, optimized, err := conn.Plan(streamBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	first, err := conn.Framework.ExecutePhysical(optimized)
	if err != nil {
		b.Fatal(err)
	}
	wantRows := len(first)
	if wantRows == 0 {
		b.Fatal("stream query emitted no windows")
	}
	b.Run("Incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := conn.Framework.ExecutePhysical(optimized)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != wantRows {
				b.Fatalf("got %d windows, want %d", len(rows), wantRows)
			}
		}
	})
	b.Run("Recompute", func(b *testing.B) {
		cur, err := tb.StreamScan()
		if err != nil {
			b.Fatal(err)
		}
		events, err := stream.EventsFromCursor(cur, 0)
		if err != nil {
			b.Fatal(err)
		}
		calls := []rex.AggCall{
			rex.NewAggCall(rex.AggCount, nil, false, "c"),
			rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wins, err := stream.Hop(events, 1000, 16000, []int{1}, calls)
			if err != nil {
				b.Fatal(err)
			}
			if len(wins) != wantRows {
				b.Fatalf("oracle got %d windows, incremental emitted %d", len(wins), wantRows)
			}
		}
	})
}

// BenchmarkExec_Stream_Parallel runs the same continuous HOP query with the
// stream hash-exchanged across 4 workers on the group keys, each worker
// maintaining the panes of its key range, merged back into deterministic
// emission order.
func BenchmarkExec_Stream_Parallel(b *testing.B) {
	conn, _ := streamBenchConn(b)
	conn.SetParallelism(4)
	_, optimized, err := conn.Plan(streamBenchSQL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wantRows int
	for i := 0; i < b.N; i++ {
		rows, err := conn.Framework.ExecutePhysical(optimized)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			wantRows = len(rows)
			if wantRows == 0 {
				b.Fatal("stream query emitted no windows")
			}
		} else if len(rows) != wantRows {
			b.Fatalf("got %d windows, want %d", len(rows), wantRows)
		}
	}
}
