// Statistics / join-ordering acceptance tests: ANALYZE TABLE end-to-end, the
// EXPLAIN shape of an analyzed 5-way star-schema join (fact table kept on
// the probe side, most selective dimension joined first), and a differential
// suite asserting identical results before/after ANALYZE and across
// parallelism settings.
package calcite_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/rel"
)

// starConn builds a star schema: a sales fact table with four foreign keys
// into dimensions of very different sizes (d1: 50, d2: 2000, d3: 2000,
// d4: 400 rows). Dimension attribute v<i> equals the key, so WHERE clauses
// on them have precisely known selectivities once analyzed. A slice of fact
// rows carries NULL fk3 values to exercise null statistics.
func starConn(factRows int) *calcite.Connection {
	conn := calcite.Open()
	fact := make([][]any, factRows)
	for i := range fact {
		var fk3 any = int64(i % 2000)
		if i%100 == 99 {
			fk3 = nil
		}
		fact[i] = []any{int64(i % 50), int64(i % 2000), fk3, int64(i % 400), float64(i % 97)}
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

func analyzeStar(t testing.TB, conn *calcite.Connection) {
	t.Helper()
	for _, tab := range []string{"sales", "d1", "d2", "d3", "d4"} {
		if _, err := conn.Exec("ANALYZE TABLE " + tab); err != nil {
			t.Fatalf("ANALYZE %s: %v", tab, err)
		}
	}
}

const starQuery = `SELECT SUM(f.amt) AS total FROM sales f
	JOIN d1 ON f.fk1 = d1.k1
	JOIN d2 ON f.fk2 = d2.k2
	JOIN d3 ON f.fk3 = d3.k3
	JOIN d4 ON f.fk4 = d4.k4
	WHERE d2.v2 < 500 AND d3.v3 < 1000`

func subtreeHasTable(n rel.Node, table string) bool {
	found := false
	rel.Walk(n, func(m rel.Node) bool {
		if strings.Contains(m.Attrs(), "table=["+table+"]") {
			found = true
		}
		return !found
	})
	return found
}

// TestAnalyzeStarJoinShape is the acceptance test for histogram-driven join
// ordering: after ANALYZE, the 5-way star join must keep the fact table on
// the probe (left, streamed) side of every hash join — it is probed through
// the whole chain and never hashed into a build table — and the first
// (deepest) join must pair it with the most selective dimension (d2, whose
// filter keeps 25%).
func TestAnalyzeStarJoinShape(t *testing.T) {
	conn := starConn(20000)

	_, before, err := conn.Plan(starQuery)
	if err != nil {
		t.Fatal(err)
	}

	analyzeStar(t, conn)
	_, after, err := conn.Plan(starQuery)
	if err != nil {
		t.Fatal(err)
	}

	if rel.Digest(before) == rel.Digest(after) {
		t.Error("ANALYZE did not change the join plan")
	}

	var joins []rel.Node
	rel.Walk(after, func(n rel.Node) bool {
		if len(n.Inputs()) == 2 && strings.Contains(n.Op(), "Join") {
			joins = append(joins, n)
		}
		return true
	})
	if len(joins) != 4 {
		t.Fatalf("want 4 joins, got %d:\n%s", len(joins), rel.Explain(after))
	}
	for _, j := range joins {
		if subtreeHasTable(j.Inputs()[1], "sales") {
			t.Fatalf("fact table on the build side of %s:\n%s", j.Op(), rel.Explain(after))
		}
	}
	// The deepest join streams the fact scan directly; its build side must
	// be the most selective dimension.
	deepest := joins[len(joins)-1]
	if !subtreeHasTable(deepest.Inputs()[0], "sales") {
		t.Fatalf("fact table is not the deepest probe input:\n%s", rel.Explain(after))
	}
	if !subtreeHasTable(deepest.Inputs()[1], "d2") {
		t.Errorf("most selective dimension (d2) not joined first:\n%s", rel.Explain(after))
	}
}

// TestAnalyzeStatement: ANALYZE reports the scanned row count, EXPLAIN
// carries estimates, and inserts keep the row count live, keeping the column
// statistics until the table has doubled since they were collected.
func TestAnalyzeStatement(t *testing.T) {
	conn := starConn(1000)
	res, err := conn.Exec("ANALYZE TABLE d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != int64(50) {
		t.Fatalf("ANALYZE result = %v", res.Rows)
	}
	if _, err := conn.Exec("ANALYZE TABLE nope"); err == nil {
		t.Fatal("ANALYZE of a missing table must fail")
	}

	plan, err := conn.Explain("SELECT * FROM d1 WHERE v1 < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "rows=") || !strings.Contains(plan, "cost=") {
		t.Fatalf("EXPLAIN lacks estimates:\n%s", plan)
	}
	// The histogram puts the filter at ~10 rows (vs. 25 for the 0.5
	// fallback): the filter line must carry the sharpened estimate.
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "Filter") && !strings.Contains(line, "rows=10") {
			t.Errorf("filter estimate not histogram-driven: %s", line)
		}
	}

	// An insert advances the row count and keeps the column statistics: they
	// describe a table that has grown by one row.
	if _, err := conn.Exec("INSERT INTO d1 VALUES (50, 50)"); err != nil {
		t.Fatal(err)
	}
	tab, ok := conn.Framework.Catalog.Table("d1")
	if !ok {
		t.Fatal("d1 missing")
	}
	st := tab.Stats()
	if st.RowCount != 51 {
		t.Errorf("row count after insert = %v, want 51", st.RowCount)
	}
	if st.Columns == nil || !st.Analyzed {
		t.Error("one insert dropped the collected column statistics")
	}
	// Once the table has doubled since ANALYZE they are dropped.
	for i := 51; i < 100; i++ {
		if _, err := conn.Exec("INSERT INTO d1 VALUES (?, ?)", int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st = tab.Stats()
	if st.RowCount != 100 {
		t.Errorf("row count after doubling = %v, want 100", st.RowCount)
	}
	if st.Columns != nil || st.Analyzed {
		t.Error("column statistics survived the table doubling")
	}
}

// TestMaterializedViewSurvivesAnalyze: a join-containing materialized view
// must keep matching after ANALYZE changes the cost-based join order — the
// view's canonical plan is re-normalized with current statistics on every
// planning session.
func TestMaterializedViewSurvivesAnalyze(t *testing.T) {
	conn := starConn(4000)
	mvSQL := `CREATE MATERIALIZED VIEW mv3 AS
		SELECT d1.v1, SUM(f.amt) AS total FROM sales f
		JOIN d1 ON f.fk1 = d1.k1
		JOIN d2 ON f.fk2 = d2.k2
		JOIN d3 ON f.fk3 = d3.k3
		GROUP BY d1.v1`
	if _, err := conn.Exec(mvSQL); err != nil {
		t.Fatal(err)
	}
	query := `SELECT d1.v1, SUM(f.amt) AS total FROM sales f
		JOIN d1 ON f.fk1 = d1.k1
		JOIN d2 ON f.fk2 = d2.k2
		JOIN d3 ON f.fk3 = d3.k3
		GROUP BY d1.v1`
	plan, err := conn.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "mv3") {
		t.Fatalf("query not answered from the view before ANALYZE:\n%s", plan)
	}
	analyzeStar(t, conn)
	plan, err = conn.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "mv3") || strings.Contains(plan, "table=[sales]") {
		t.Fatalf("materialized view stopped matching after ANALYZE:\n%s", plan)
	}
}

// differentialQueries are ≥4-way join queries executed before/after ANALYZE
// and at parallelism 1/4; results must agree.
var differentialQueries = []string{
	starQuery,
	`SELECT d1.v1, COUNT(*) AS n, SUM(f.amt) AS total FROM sales f
		JOIN d1 ON f.fk1 = d1.k1
		JOIN d2 ON f.fk2 = d2.k2
		JOIN d4 ON f.fk4 = d4.k4
		WHERE d2.v2 < 100 AND d4.v4 <> 3
		GROUP BY d1.v1 ORDER BY d1.v1`,
	`SELECT f.fk2, d3.v3 FROM sales f
		JOIN d1 ON f.fk1 = d1.k1
		JOIN d2 ON f.fk2 = d2.k2
		JOIN d3 ON f.fk3 = d3.k3
		WHERE d1.v1 = 7 AND d3.v3 >= 1990 ORDER BY f.fk2, d3.v3`,
	`SELECT COUNT(*) AS n FROM sales f
		JOIN d1 ON f.fk1 = d1.k1
		JOIN d2 ON f.fk2 = d2.k2
		JOIN d3 ON f.fk3 = d3.k3
		JOIN d4 ON f.fk4 = d4.k4
		WHERE d2.v2 < 50 OR d2.v2 > 1950`,
}

func runRows(t *testing.T, conn *calcite.Connection, sql string) []string {
	t.Helper()
	res, err := conn.Query(sql)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, sql)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestAnalyzeDifferential: for every query, (a) analyzed and unanalyzed
// plans return the same multiset of rows, and (b) parallel execution at 4
// workers reproduces the serial row order exactly, analyzed or not.
func TestAnalyzeDifferential(t *testing.T) {
	const factRows = 8000
	plain := starConn(factRows)
	plain.SetParallelism(1)
	analyzed := starConn(factRows)
	analyzed.SetParallelism(1)
	analyzeStar(t, analyzed)

	for qi, sql := range differentialQueries {
		serialPlain := runRows(t, plain, sql)
		serialAnalyzed := runRows(t, analyzed, sql)

		sortedPlain := append([]string(nil), serialPlain...)
		sortedAnalyzed := append([]string(nil), serialAnalyzed...)
		sort.Strings(sortedPlain)
		sort.Strings(sortedAnalyzed)
		if strings.Join(sortedPlain, "\n") != strings.Join(sortedAnalyzed, "\n") {
			t.Errorf("query %d: analyzed results differ from unanalyzed\nplain:    %v\nanalyzed: %v",
				qi, sortedPlain, sortedAnalyzed)
		}

		for _, conn := range []*calcite.Connection{plain, analyzed} {
			serial := runRows(t, conn, sql)
			conn.SetParallelism(4)
			par := runRows(t, conn, sql)
			conn.SetParallelism(1)
			if strings.Join(serial, "\n") != strings.Join(par, "\n") {
				t.Errorf("query %d: parallel(4) row order differs from serial", qi)
			}
		}
	}
}
