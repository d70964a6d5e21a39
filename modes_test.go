package calcite_test

import (
	"fmt"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/mv"
	"calcite/internal/obs"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// diffTable is one table of the differential-test catalog.
type diffTable struct {
	name string
	cols calcite.Columns
	rows [][]any
}

// diffTables returns the differential-test catalog: the tables used by the
// SQL suite in calcite_test.go (emps/depts style data) plus the bench
// fixture's sales/products shape, with NULLs, strings, floats and duplicate
// keys.
func diffTables() []diffTable {
	sales := make([][]any, 3000)
	for i := range sales {
		var discount any
		if i%3 == 0 {
			discount = float64(i%10) / 100
		}
		sales[i] = []any{int64(i % 50), discount}
	}
	products := make([][]any, 50)
	for i := range products {
		products[i] = []any{int64(i), fmt.Sprintf("product-%d", i)}
	}
	// events: near-unique string tags (one group per row, almost), a DOUBLE
	// column of integral values (folds onto BIGINT join/group keys) and a
	// low-cardinality group column.
	events := make([][]any, 2000)
	for i := range events {
		events[i] = []any{int64(i), fmt.Sprintf("t-%04d", i%1900), float64(i % 50), int64(i % 7)}
	}
	// mixed: a DOUBLE column whose second half holds int64 values and NULLs
	// beside the float64s, so the column is VecAny — built that way by
	// AddTable, demoted by an INSERT in the append suites — and orders int
	// against float.
	mixed := make([][]any, 600)
	for i := range mixed {
		var v any = float64(i%40) / 2
		if i >= 300 && i%3 == 0 {
			v = int64(i % 20)
		} else if i >= 300 && i%3 == 2 {
			v = nil
		}
		mixed[i] = []any{int64(i), v, fmt.Sprintf("m%02d", i%17)}
	}
	return []diffTable{
		{"mixed", calcite.Columns{
			{Name: "k", Type: calcite.BigIntType},
			{Name: "v", Type: calcite.DoubleType},
			{Name: "s", Type: calcite.VarcharType},
		}, mixed},
		{"emps", calcite.Columns{
			{Name: "empid", Type: calcite.BigIntType},
			{Name: "deptno", Type: calcite.BigIntType},
			{Name: "name", Type: calcite.VarcharType},
			{Name: "sal", Type: calcite.DoubleType},
		}, [][]any{
			{int64(1), int64(10), "Bill", 100.0},
			{int64(2), int64(20), "Eric", 200.0},
			{int64(3), int64(10), "Sebastian", 150.0},
			{int64(4), int64(30), "Hongze", nil},
			{int64(5), nil, "Nomad", 50.0},
		}},
		{"depts", calcite.Columns{
			{Name: "deptno", Type: calcite.BigIntType},
			{Name: "dname", Type: calcite.VarcharType},
		}, [][]any{
			{int64(10), "Eng"},
			{int64(20), "Sales"},
			{int64(40), "Empty"},
		}},
		{"sales", calcite.Columns{
			{Name: "productId", Type: calcite.BigIntType},
			{Name: "discount", Type: calcite.DoubleType},
		}, sales},
		{"products", calcite.Columns{
			{Name: "productId", Type: calcite.BigIntType},
			{Name: "name", Type: calcite.VarcharType},
		}, products},
		{"events", calcite.Columns{
			{Name: "id", Type: calcite.BigIntType},
			{Name: "tag", Type: calcite.VarcharType},
			{Name: "fkey", Type: calcite.DoubleType},
			{Name: "grp", Type: calcite.BigIntType},
		}, events},
	}
}

// diffConn builds a connection over the differential-test catalog.
func diffConn() *calcite.Connection {
	conn := calcite.Open()
	for _, tb := range diffTables() {
		conn.AddTable(tb.name, tb.cols, tb.rows)
	}
	diffViews(conn)
	return conn
}

// diffViews materializes a view over emps and a lattice tile over sales, so
// the corpus answers two of its statements by substitution. In the append
// suites the INSERTs that follow leave both stale, and from then on those
// statements must read the base tables, cached plans included.
func diffViews(conn *calcite.Connection) {
	if _, err := conn.Exec("CREATE MATERIALIZED VIEW emp_sal AS SELECT deptno, SUM(sal) AS s FROM emps GROUP BY deptno"); err != nil {
		panic(err)
	}
	fact, _ := conn.Framework.Catalog.Table("sales")
	count := []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")}
	tile, err := mv.BuildTile(fact.(schema.ScannableTable), []string{"sales"}, []int{0}, count, "sales_by_product")
	if err != nil {
		panic(err)
	}
	conn.RegisterLattice(&mv.Lattice{Name: "sales", Fact: fact, FactName: []string{"sales"}, Tiles: []*mv.Tile{tile}})
}

// diffQueries is the differential corpus: every engine configuration must
// return the answers testdata/results.golden pins for it (TestResultsGolden).
// It covers every enumerable operator (scan, filter, project, hash join with
// and without equi keys, aggregate, sort/limit, window, set ops, values).
var diffQueries = []struct {
	sql    string
	params []any
	// spillUnordered marks an input whose aggregate state can exceed the CI
	// low-memory budget (whether it does depends on how the workers' grants
	// interleave): a spilled aggregate emits partition by partition, so the
	// order-exact parallel suites compare it as a multiset when it spilled.
	spillUnordered bool
	// wantErr marks an input every mode must reject.
	wantErr bool
}{
	{sql: "SELECT * FROM emps"},
	{sql: "SELECT name FROM emps WHERE empid = 1"},
	{sql: "SELECT deptno, SUM(sal) AS s FROM emps WHERE sal > 50 GROUP BY deptno ORDER BY deptno"},
	{sql: "SELECT empid + 10, sal * 2, UPPER(name) FROM emps WHERE sal IS NOT NULL"},
	{sql: "SELECT name FROM emps WHERE name LIKE '%i%' ORDER BY name"},
	{sql: "SELECT name, CASE WHEN sal >= 150 THEN 'high' WHEN sal IS NULL THEN 'unknown' ELSE 'low' END FROM emps"},
	{sql: "SELECT COALESCE(sal, 0), CAST(empid AS VARCHAR) FROM emps"},
	{sql: "SELECT empid FROM emps WHERE deptno IN (10, 30)"},
	{sql: "SELECT empid FROM emps WHERE sal BETWEEN 75 AND 175"},
	{sql: "SELECT e.name, d.dname FROM emps e JOIN depts d ON e.deptno = d.deptno ORDER BY e.name"},
	{sql: "SELECT e.name, d.dname FROM emps e LEFT JOIN depts d ON e.deptno = d.deptno ORDER BY e.name"},
	{sql: "SELECT e.name, d.dname FROM emps e RIGHT JOIN depts d ON e.deptno = d.deptno"},
	{sql: "SELECT e.name, d.dname FROM emps e FULL JOIN depts d ON e.deptno = d.deptno"},
	{sql: "SELECT COUNT(*), COUNT(sal), AVG(sal), MIN(name), MAX(sal) FROM emps"},
	{sql: "SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno HAVING COUNT(*) > 1"},
	{sql: "SELECT DISTINCT deptno FROM emps WHERE deptno IS NOT NULL ORDER BY deptno"},
	{sql: "SELECT name FROM emps ORDER BY sal DESC LIMIT 2 OFFSET 1"},
	{sql: "SELECT empid FROM emps WHERE deptno = 10 UNION SELECT deptno FROM depts"},
	{sql: "SELECT deptno FROM emps INTERSECT SELECT deptno FROM depts"},
	{sql: "SELECT deptno FROM depts EXCEPT SELECT deptno FROM emps"},
	{sql: "SELECT dname FROM (SELECT deptno, dname FROM depts WHERE deptno < 30) t WHERE t.deptno > 5"},
	{sql: "SELECT products.name, COUNT(*) FROM sales JOIN products USING (productId) WHERE sales.discount IS NOT NULL GROUP BY products.name ORDER BY COUNT(*) DESC, products.name"},
	{sql: "SELECT productId, COUNT(*) OVER (PARTITION BY productId ORDER BY productId ROWS 10 PRECEDING) AS c FROM sales WHERE productId < 5"},
	{sql: "SELECT productId, COUNT(discount) OVER (PARTITION BY productId ORDER BY discount DESC ROWS BETWEEN 3 PRECEDING AND 1 PRECEDING) AS c FROM sales WHERE productId < 6"},
	{sql: "SELECT productId, ROW_NUMBER() OVER (PARTITION BY productId ORDER BY discount DESC) AS rn, LAG(discount) OVER (PARTITION BY productId ORDER BY discount DESC) AS lg FROM sales WHERE productId < 4"},
	// Blocking operators at scale — the inputs the one-engine-per-operator
	// kernels must agree on across serial/parallel (group and join output
	// order included), tiny batches and unlimited/spilling: near one group per row,
	// value-retaining aggregates (every COLLECT element of a group is equal,
	// so the multiset order caveat does not apply), a global aggregate over
	// empty input, composite and int/float-folding join keys, and an outer
	// join with a residual.
	{sql: "SELECT tag, SUM(id), COUNT(*) FROM events GROUP BY tag", spillUnordered: true},
	{sql: "SELECT grp, COUNT(DISTINCT fkey), COUNT(DISTINCT tag) FROM events GROUP BY grp", spillUnordered: true},
	{sql: "SELECT productId, COLLECT(productId) FROM sales GROUP BY productId", spillUnordered: true},
	{sql: "SELECT COUNT(*), SUM(id), MIN(tag), COUNT(DISTINCT grp) FROM events WHERE id < 0"},
	{sql: "SELECT a.id, b.id FROM events a JOIN events b ON a.grp = b.grp AND a.fkey = b.fkey WHERE a.id < 40 AND b.id < 400"},
	{sql: "SELECT e.id, p.name FROM events e JOIN products p ON e.fkey = p.productId WHERE e.id < 300"},
	{sql: "SELECT s.productId, s.discount, p.name FROM sales s LEFT JOIN products p ON s.productId = p.productId AND s.discount > 0.05 WHERE s.productId < 20"},
	{sql: "SELECT empid, name FROM emps WHERE sal > ? ORDER BY empid", params: []any{120.0}},
	{sql: "SELECT name FROM emps WHERE empid = ? AND deptno = ?", params: []any{int64(3), int64(10)}},
	// Parameters are literals by the time anything compiles: every shape a
	// literal can take, bound per execution — projections, a hash-join
	// residual, NULL, int/float crossings that are not integral, a string,
	// and one placeholder reaching two sites of a merged expression.
	{sql: "SELECT ? + empid, sal * ?, ? FROM emps", params: []any{int64(10), 2.0, "k"}},
	{sql: "SELECT name, CASE WHEN sal > ? THEN 'high' WHEN sal IS NULL THEN ? ELSE 'low' END FROM emps", params: []any{120.0, "unknown"}},
	{sql: "SELECT s.productId, s.discount, p.name FROM sales s LEFT JOIN products p ON s.productId = p.productId AND s.discount > ? WHERE s.productId < ?", params: []any{0.05, int64(20)}},
	{sql: "SELECT name FROM emps WHERE deptno = ?", params: []any{nil}},
	{sql: "SELECT empid, empid < ? FROM emps WHERE empid < ?", params: []any{2.5, 2.5}},
	{sql: "SELECT empid FROM emps WHERE sal >= ? AND ? < sal", params: []any{int64(150), int64(100)}},
	{sql: "SELECT empid FROM emps WHERE name = ?", params: []any{"Eric"}},
	{sql: "SELECT a + a FROM (SELECT empid + ? AS a FROM emps) t WHERE a > ?", params: []any{int64(5), int64(7)}},
	{sql: "SELECT productId FROM sales WHERE ? BETWEEN productId AND discount * 1000", params: []any{int64(40)}},
	// The shapes that reach the columnar sort kernel: mixed directions over
	// NULLs, a VARCHAR key, a float key with integral ties, empty and
	// past-the-end limits, a key column that is VecAny (int against float,
	// NULLs), top-N over it; and the window pipeline's: two groups with
	// different partitions, no PARTITION BY, RANK over ties, a RANGE frame.
	{sql: "SELECT empid, deptno, sal FROM emps ORDER BY deptno DESC, sal, empid"},
	{sql: "SELECT tag, id FROM events ORDER BY tag DESC, id"},
	{sql: "SELECT id, fkey, grp FROM events ORDER BY fkey DESC, grp, id DESC"},
	{sql: "SELECT name FROM emps ORDER BY name LIMIT 0"},
	{sql: "SELECT name FROM emps ORDER BY name LIMIT 5 OFFSET 100"},
	{sql: "SELECT k, v FROM mixed ORDER BY v DESC, k"},
	{sql: "SELECT k, v, s FROM mixed ORDER BY v, s DESC, k LIMIT 40 OFFSET 7"},
	{sql: "SELECT id, SUM(fkey) OVER (PARTITION BY grp ORDER BY id ROWS 2 PRECEDING) AS a, COUNT(*) OVER (PARTITION BY tag ORDER BY id) AS b FROM events WHERE id < 500"},
	{sql: "SELECT id, SUM(id) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM events WHERE id < 300"},
	{sql: "SELECT id, grp, RANK() OVER (PARTITION BY grp ORDER BY fkey) AS r, DENSE_RANK() OVER (PARTITION BY grp ORDER BY fkey) AS d FROM events WHERE id < 400"},
	{sql: "SELECT id, SUM(fkey) OVER (PARTITION BY grp ORDER BY fkey RANGE BETWEEN 2 PRECEDING AND CURRENT ROW) AS s FROM events WHERE id < 400"},
	{sql: "SELECT k, MAX(v) OVER (PARTITION BY s ORDER BY k ROWS 3 PRECEDING) AS m FROM mixed"},
	// The shapes that cross column kinds now that a batch is vectors only:
	// nested arithmetic over NULLs with int/float mixing (kernel feeding
	// kernel) and a division by zero behind a sub-expression, which must fail
	// in every mode; arithmetic, IN, a join and a GROUP BY on the VecAny
	// column; zero-column batches; a typed and a VecAny branch under one
	// UNION ALL.
	{sql: "SELECT empid, (empid * sal) + 1.5, (empid + 2) * (deptno - 2) FROM emps"},
	{sql: "SELECT sal / (deptno - 10) FROM emps", wantErr: true},
	{sql: "SELECT k, v + 1, v * k FROM mixed"},
	{sql: "SELECT k FROM mixed WHERE v IN (1, 2.5, 3)"},
	{sql: "SELECT m.k, e.id FROM mixed m JOIN events e ON m.v = e.fkey WHERE m.k < 340 AND e.id < 60"},
	{sql: "SELECT v, COUNT(*), SUM(k) FROM mixed GROUP BY v"},
	{sql: "SELECT 1 FROM emps"},
	{sql: "SELECT COUNT(*) FROM (SELECT 1 AS one FROM mixed) t"},
	{sql: "SELECT sal FROM emps UNION ALL SELECT v FROM mixed WHERE k < 320"},
	// Answered from the materialized view and the lattice tile diffViews
	// declares, until an INSERT into emps or sales leaves them stale.
	{sql: "SELECT deptno, SUM(sal) AS s FROM emps GROUP BY deptno ORDER BY deptno"},
	{sql: "SELECT productId, COUNT(*) AS c FROM sales GROUP BY productId ORDER BY productId"},
	// Found by the generated-statement oracle: an aggregate's output columns
	// took the plan's field names, so these came back as (deptno, SUM, COUNT)
	// and the aliases were lost wherever the final projection was an identity.
	{sql: "SELECT deptno AS d, SUM(sal) AS total, COUNT(*) FROM emps GROUP BY deptno"},
	// Found by the generator over the wire: the server tagged a column with
	// the Go type of its first value, so a DOUBLE column whose first value
	// is a BIGINT came back with every later fraction truncated (0.5 as 0).
	{sql: "SELECT k, v FROM mixed WHERE k >= 300 ORDER BY k"},
	// Set ops, joins without equi keys and VALUES. Set ops: the ALL variants
	// with duplicates and NULLs on both sides, an int meeting its integral
	// float, empty sides. Joins without equi keys: a `<` condition of every
	// outer kind whose 500-row build side exceeds the 32 KB budgets, a cross
	// join, and an equi-join with a one-row side. VALUES with
	// expressions, NULLs and more rows than a 3-row batch.
	{sql: "SELECT deptno FROM emps INTERSECT ALL SELECT deptno FROM emps WHERE empid <> 3"},
	{sql: "SELECT deptno FROM emps EXCEPT ALL SELECT deptno FROM emps WHERE empid IN (1, 5)"},
	{sql: "SELECT v FROM mixed WHERE k BETWEEN 300 AND 345 INTERSECT ALL SELECT v FROM mixed WHERE k BETWEEN 320 AND 420"},
	{sql: "SELECT v FROM mixed WHERE k BETWEEN 300 AND 420 EXCEPT ALL SELECT v FROM mixed WHERE k BETWEEN 330 AND 360"},
	{sql: "SELECT sal FROM emps INTERSECT SELECT v * 50 FROM mixed WHERE k IN (302, 303, 306, 312, 315)"},
	{sql: "SELECT v FROM mixed WHERE k IN (300, 302, 303, 306, 309) EXCEPT SELECT sal / 50 FROM emps"},
	{sql: "SELECT deptno FROM depts EXCEPT SELECT deptno FROM emps WHERE empid < 0"},
	{sql: "SELECT deptno FROM emps WHERE empid < 0 UNION SELECT deptno FROM depts"},
	{sql: "SELECT deptno FROM depts INTERSECT ALL SELECT deptno FROM emps WHERE empid < 0"},
	{sql: "SELECT a.id, b.id, b.tag FROM (SELECT id FROM events WHERE id < 12) a JOIN (SELECT id, tag, grp FROM events WHERE id < 500) b ON b.id < a.id"},
	{sql: "SELECT a.id, b.id, b.tag FROM (SELECT id FROM events WHERE id < 12) a LEFT JOIN (SELECT id, tag, grp FROM events WHERE id < 500) b ON b.id < a.id"},
	{sql: "SELECT b.grp, COUNT(*), COUNT(a.id), SUM(a.id), SUM(b.id), MAX(b.tag) FROM (SELECT id FROM events WHERE id < 12) a RIGHT JOIN (SELECT id, tag, grp FROM events WHERE id < 500) b ON b.id < a.id GROUP BY b.grp"},
	{sql: "SELECT b.grp, COUNT(*), COUNT(a.id), SUM(a.id), SUM(b.id), MAX(b.tag) FROM (SELECT id FROM events WHERE id < 12) a FULL JOIN (SELECT id, tag, grp FROM events WHERE id < 500) b ON b.id < a.id GROUP BY b.grp"},
	{sql: "SELECT e.name, d.dname FROM emps e CROSS JOIN depts d"},
	{sql: "SELECT e.name, d.dname FROM emps e JOIN depts d ON e.deptno = d.deptno WHERE e.empid = 2"},
	{sql: "VALUES (1, 'a', 1.5), (2 + 3, NULL, 2.0), (3, 'c', NULL), (4 * 2, 'd', 4.5), (5, UPPER('e'), -1.0)"},
	{sql: "VALUES (?, 'p'), (? + 1, NULL), (3, 'r'), (4, 's')", params: []any{int64(7), int64(7)}},
	// One input per logical rule that no other statement exercises: each
	// plans differently when its rule alone is left out of the rule set.
	// Filter/aggregate and filter/set-op transposes, union merge, limit over
	// sort, sort removal, the empty-input prunes, and constant reduction in a
	// join condition and a projection.
	{sql: "SELECT * FROM (SELECT deptno, COUNT(*) AS c FROM emps GROUP BY deptno) t WHERE deptno = 10"},
	{sql: "SELECT * FROM (SELECT deptno FROM emps UNION ALL SELECT deptno FROM depts) t WHERE deptno = 10"},
	{sql: "SELECT deptno FROM emps UNION ALL SELECT deptno FROM depts UNION ALL SELECT empid FROM emps"},
	{sql: "SELECT * FROM (SELECT * FROM emps ORDER BY empid) t LIMIT 3"},
	{sql: "SELECT * FROM (SELECT * FROM emps ORDER BY empid) t ORDER BY empid"},
	{sql: "SELECT name FROM emps WHERE 1 = 0"},
	{sql: "SELECT * FROM (SELECT * FROM emps WHERE 1 = 0) t WHERE sal > 5"},
	{sql: "SELECT name, sal FROM emps WHERE 1 = 0 ORDER BY sal"},
	{sql: "SELECT deptno, COUNT(*) FROM emps WHERE 1 = 0 GROUP BY deptno"},
	{sql: "SELECT deptno FROM emps WHERE 1 = 0 UNION ALL SELECT deptno FROM depts"},
	{sql: "SELECT e.name FROM emps e JOIN (SELECT * FROM depts WHERE 1 = 0) d ON e.deptno = d.deptno"},
	{sql: "SELECT e.name FROM emps e JOIN depts d ON e.deptno = d.deptno AND 1 = 1"},
	{sql: "SELECT sal + (1 + 2) FROM emps"},
}

// TestParallelModesAgree runs the SQL suite at parallelism 1, 4 and 8 and
// requires rows identical to the serial engine IN THE SAME ORDER — the
// parallel engine's determinism contract (Seq-ordered gathers, first-seen
// group ordering, stable sorts over a gather). The suite contains no
// COLLECT calls and only binary-exact float aggregations, so the documented
// value-level caveats do not apply here.
func TestParallelModesAgree(t *testing.T) {
	serial := diffConn()
	serial.SetParallelism(1)
	// Serial baselines computed once; each parallelism level compares
	// against the cached rows.
	type baseline struct {
		rows    []string
		err     error
		spilled bool
	}
	baselines := make([]baseline, len(diffQueries))
	for i, q := range diffQueries {
		sr, serr := serial.Query(q.sql, q.params...)
		if serr != nil {
			baselines[i] = baseline{err: serr}
			continue
		}
		baselines[i] = baseline{rows: renderRows(sr.Rows), spilled: spilled(serial)}
	}
	for _, p := range []int{1, 4, 8} {
		par := diffConn()
		par.SetParallelism(p)
		for i, q := range diffQueries {
			pr, perr := par.Query(q.sql, q.params...)
			if (perr == nil) != (baselines[i].err == nil) {
				t.Errorf("p=%d %s\n  parallel err=%v serial err=%v", p, q.sql, perr, baselines[i].err)
				continue
			}
			if perr != nil {
				continue
			}
			a, b := renderRows(pr.Rows), baselines[i].rows
			if q.spillUnordered && (spilled(par) || baselines[i].spilled) {
				a, b = sortedCopy(a), sortedCopy(b)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("p=%d %s\n  parallel: %v\n  serial:   %v", p, q.sql, a, b)
			}
		}
	}
}

// TestParallelSmallBatches crosses parallelism 4 with the batchSize=3
// boundary case: every operator sees many tiny morsels, shaking out
// batch-boundary and morsel-ordering bugs at once. Rows must match the
// serial engine at the same batch size exactly, order included.
func TestParallelSmallBatches(t *testing.T) {
	par := diffConn()
	par.SetParallelism(4)
	par.SetBatchSize(3)
	ref := diffConn()
	ref.SetParallelism(1)
	ref.SetBatchSize(3)
	for _, q := range diffQueries {
		pr, perr := par.Query(q.sql, q.params...)
		rr, rerr := ref.Query(q.sql, q.params...)
		if (perr == nil) != (rerr == nil) {
			t.Errorf("%s\n  parallel err=%v serial err=%v", q.sql, perr, rerr)
			continue
		}
		if perr != nil {
			continue
		}
		a, b := renderRows(pr.Rows), renderRows(rr.Rows)
		if q.spillUnordered && (spilled(par) || spilled(ref)) {
			sort.Strings(a)
			sort.Strings(b)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s (parallel=4, batchSize=3)\n  parallel: %v\n  serial:   %v", q.sql, a, b)
		}
	}
}

// TestParallelizedPlansGatherOnly pins the exchange map of the engine: at
// parallelism 4 every statement of the diff corpus runs over gathers only —
// sorts and final aggregates finish once above a GatherExchange — so no
// executed plan holds another exchange or a per-worker sort. Every statement
// of the stream corpus, keyed or not, runs the serial stream aggregate over
// its serial stream scan: no exchange and no Parallel* operator.
func TestParallelizedPlansGatherOnly(t *testing.T) {
	exchange := regexp.MustCompile(`\w*Exchange`)
	check := func(sql, plan string) {
		t.Helper()
		for _, op := range exchange.FindAllString(plan, -1) {
			if op != "GatherExchange" {
				t.Errorf("%s\n  parallel plan holds %s:\n%s", sql, op, plan)
			}
		}
		if strings.Contains(plan, "ParallelSort") {
			t.Errorf("%s\n  parallel plan holds ParallelSort:\n%s", sql, plan)
		}
	}
	conn := diffConn()
	conn.SetParallelism(4)
	partials := 0
	for _, q := range diffQueries {
		if _, err := conn.Query(q.sql, q.params...); err != nil {
			continue
		}
		plan := obs.RenderSpans(conn.LastTraces(1)[0].Spans)
		check(q.sql, plan)
		partials += strings.Count(plan, "ParallelPartialAggregate")
	}
	if partials == 0 {
		t.Fatal("no statement ran a parallel aggregate: the corpus did not run in parallel")
	}

	conn, _ = streamFixture(t, genStreamEvents(200, 3), 0)
	conn.SetParallelism(4)
	for _, w := range streamWindows {
		for _, sh := range streamShapes {
			sql := w.sql(sh, 2)
			if _, err := conn.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			plan := obs.RenderSpans(conn.LastTraces(1)[0].Spans)
			if strings.Contains(plan, "Exchange") || strings.Contains(plan, "Parallel") ||
				!strings.Contains(plan, "EnumerableStreamAggregate") {
				t.Errorf("%s/%s: want the serial stream aggregate with no exchange and no parallel operator:\n%s", w.kind, sh.name, plan)
			}
		}
	}
}

// spilled reports whether the connection's most recent query wrote spill
// files.
func spilled(c *calcite.Connection) bool {
	tr := c.LastTraces(1)
	return len(tr) > 0 && tr[0].Spilled > 0
}

func sortedCopy(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}
