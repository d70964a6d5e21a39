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
	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rel2sql"
	"calcite/internal/rex"
	"calcite/internal/rules"
	"calcite/internal/schema"
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
// query with no logical rewrite rules, so the join processes every sales row
// (the paper: pushing the filter "can significantly reduce query execution
// time").
func BenchmarkAblation_Rules_NoFilterPushdown(b *testing.B) {
	conn := figure4Conn(20000, 50)
	conn.Framework.LogicalRules = nil
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
