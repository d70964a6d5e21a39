// The parallel plan golden file: the operator trees the diff, star and
// snowflake corpora run at parallelism 4, pinned byte for byte in
// testdata/parallel.golden. Each tree carries operators and attributes only
// (no rows=/cost= estimates, which plans.golden pins at parallelism 1), so
// the file changes exactly when the parallel rewrite places a morsel scan,
// an exchange or a parallel operator differently.
//
// Regenerate with: go test -run TestParallelPlanGolden -update .
package calcite_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/obs"
)

// goldenParallelism is the worker count the parallel golden file is taken at.
const goldenParallelism = 4

// estimates matches the rows=/cost= annotation EXPLAIN appends to a line.
var estimates = regexp.MustCompile(`: rows=.*`)

// parallelTree renders the operator tree sql runs at goldenParallelism: its
// plain EXPLAIN, without the estimates.
func parallelTree(conn *calcite.Connection, sql string) string {
	plan, err := conn.Explain(sql)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return estimates.ReplaceAllString(plan, "")
}

func TestParallelPlanGolden(t *testing.T) {
	var b strings.Builder
	record := func(conn *calcite.Connection, label, sql string) {
		fmt.Fprintf(&b, "== %s: %s\n%s", label, strings.Join(strings.Fields(sql), " "), parallelTree(conn, sql))
	}

	diff := diffConn()
	diff.SetParallelism(goldenParallelism)
	for i, q := range diffQueries {
		record(diff, fmt.Sprintf("diff/%d", i), q.sql)
	}

	star := starConn(8000)
	star.SetParallelism(goldenParallelism)
	for _, phase := range []string{"unanalyzed", "analyzed"} {
		if phase == "analyzed" {
			analyzeStar(t, star)
		}
		for i, sql := range differentialQueries {
			record(star, fmt.Sprintf("star/%s/%d", phase, i), sql)
		}
	}

	snow := snowflakeConn(t)
	snow.SetParallelism(goldenParallelism)
	for i, sql := range snowflakeStatements(rand.New(rand.NewSource(23)), 200) {
		record(snow, fmt.Sprintf("snowflake/%d", i), sql)
	}
	for i, sql := range wideJoinStatements {
		record(snow, fmt.Sprintf("wide/%d", i), sql)
	}

	// Scans of one morsel run serial; the multi-morsel tables (the 3 000-row
	// sales, the 2 000-row events, the star fact) keep every parallel
	// operator under the golden file's watch.
	for _, op := range []string{"MorselScan", "GatherExchange", "ParallelHashJoin", "ParallelPartialAggregate", "ParallelFinalAggregate"} {
		if !strings.Contains(b.String(), op+"(") {
			t.Errorf("no golden tree holds a %s", op)
		}
	}
	checkGolden(t, "testdata/parallel.golden", b.String())
}

// TestExplainAnalyzeRunsExplainedTree: at parallelism 4, the span tree
// EXPLAIN ANALYZE executes is the tree plain EXPLAIN shows, operator for
// operator, so morsel scans and exchanges are listed exactly where they run.
func TestExplainAnalyzeRunsExplainedTree(t *testing.T) {
	conn := diffConn()
	conn.SetParallelism(goldenParallelism)
	gathers := 0
	for i, q := range diffQueries {
		plan, err := conn.Explain(q.sql)
		if err != nil {
			t.Fatalf("diff/%d: %v", i, err)
		}
		// A statement that fails at run time (the corpus has some) still
		// leaves its trace.
		_, _ = conn.Query("EXPLAIN ANALYZE "+q.sql, q.params...)
		var spans []string
		var walk func(s *obs.SpanStats, depth int)
		walk = func(s *obs.SpanStats, depth int) {
			line := strings.Repeat("  ", depth) + s.Name + "("
			if s.Attrs != "" {
				line += s.Attrs + ", "
			}
			spans = append(spans, line+"convention=")
			for _, c := range s.Children {
				walk(c, depth+1)
			}
		}
		walk(conn.LastTraces(1)[0].Spans, 0)
		lines := strings.Split(strings.TrimRight(plan, "\n"), "\n")
		same := len(lines) == len(spans)
		for k := 0; same && k < len(lines); k++ {
			same = strings.HasPrefix(lines[k], spans[k])
		}
		if !same {
			t.Fatalf("diff/%d: EXPLAIN ANALYZE ran\n%s\nEXPLAIN shows\n%s", i, strings.Join(spans, "\n"), plan)
		}
		gathers += strings.Count(plan, "GatherExchange")
	}
	if gathers == 0 {
		t.Fatal("no corpus plan gathers at parallelism 4")
	}
}

// TestParallelizeSmallTablesUntilTheyGrow: at parallelism 4, a plan_adhoc-
// shaped join and GROUP BY over tables of at most 100 rows, one morsel each,
// runs the serial plan, with no exchange in plain EXPLAIN. Once INSERTs grow
// the fact table past twice its rows and past one morsel, its statistics
// turn over, its cached plans are evicted and the same statement re-prepares
// with a MorselScan.
func TestParallelizeSmallTablesUntilTheyGrow(t *testing.T) {
	fact := make([][]any, 100)
	for i := range fact {
		fact[i] = []any{int64(i), int64(i % 40), int64(i % 10)}
	}
	dim := make([][]any, 40)
	for i := range dim {
		dim[i] = []any{int64(i), fmt.Sprintf("seg-%d", i%4)}
	}
	conn := calcite.Open()
	conn.SetParallelism(goldenParallelism)
	conn.AddTable("sales", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "cust_id", Type: calcite.BigIntType},
		{Name: "qty", Type: calcite.BigIntType},
	}, fact)
	conn.AddTable("customers", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "segment", Type: calcite.VarcharType},
	}, dim)
	const sql = `SELECT c.segment, SUM(s.qty) AS q FROM sales s JOIN customers c ON s.cust_id = c.id
		WHERE s.qty > 2 GROUP BY c.segment ORDER BY c.segment`
	run := func() (plan string, cached bool) {
		t.Helper()
		if _, err := conn.Query(sql); err != nil {
			t.Fatal(err)
		}
		tr := conn.LastTraces(1)[0]
		return obs.RenderSpans(tr.Spans), tr.Cached
	}

	if plan := parallelTree(conn, sql); strings.Contains(plan, "Exchange") || strings.Contains(plan, "Morsel") || strings.Contains(plan, "Parallel") {
		t.Fatalf("one-morsel tables: want the serial plan, EXPLAIN shows\n%s", plan)
	}
	run()
	if plan, cached := run(); !cached || strings.Contains(plan, "Exchange") {
		t.Fatalf("want the cached serial plan (cached=%v):\n%s", cached, plan)
	}

	var values []string
	for i := 100; i < 1100; i++ {
		values = append(values, fmt.Sprintf("(%d, %d, %d)", i, i%40, i%10))
	}
	if _, err := conn.Exec("INSERT INTO sales VALUES " + strings.Join(values, ", ")); err != nil {
		t.Fatal(err)
	}
	plan, cached := run()
	if cached || !strings.Contains(plan, "MorselScan") {
		t.Fatalf("after growing sales to 1 100 rows: want a re-prepared plan over a MorselScan (cached=%v):\n%s", cached, plan)
	}
	if plan := parallelTree(conn, sql); !strings.Contains(plan, "MorselScan(table=[sales]") {
		t.Fatalf("EXPLAIN after the growth shows no MorselScan:\n%s", plan)
	}
}
