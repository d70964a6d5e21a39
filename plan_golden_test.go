// The plan golden files: the optimizer's chosen plans, estimates and costs for
// three query corpora, pinned byte for byte in testdata/plans.golden, and the
// federated corpus with the query text each backend received, pinned in
// testdata/federated.golden. Every plan is captured with the feedback loop on,
// after the statement has run twice, so the corrections keyed by operator
// shape (feedback.NodeKey) and the learned join selectivities take part in the
// plans the files record. A change to planning machinery that must not change
// plans — digests, metadata cache keys, feedback keys, the adapters' pushdown
// contract — leaves these files unchanged.
//
// Regenerate with: go test -run TestPlanGolden -update .
package calcite_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"calcite"
)

var updateGolden = flag.Bool("update", false, "rewrite the plan golden files in testdata")

// goldenRecorder runs statements on one connection and appends their plans.
type goldenRecorder struct {
	b    strings.Builder
	conn *calcite.Connection
	// logs, when set, returns each backend's request log by backend name:
	// record then runs the statement once more and appends the requests
	// that execution sent, sorted per backend.
	logs func() map[string][]string
}

// record runs sql twice (errors are part of some corpora and are ignored:
// the plan is what is pinned) and then appends the EXPLAIN text the next
// execution would plan against.
func (r *goldenRecorder) record(label, sql string, params ...any) {
	for i := 0; i < 2; i++ {
		_, _ = r.conn.Query(sql, params...)
	}
	plan, err := r.conn.Explain(sql)
	if err != nil {
		plan = "error: " + err.Error() + "\n"
	}
	fmt.Fprintf(&r.b, "== %s: %s\n%s", label, strings.Join(strings.Fields(sql), " "), plan)
	if r.logs == nil {
		return
	}
	before := r.logs()
	_, _ = r.conn.Query(sql, params...)
	after := r.logs()
	for _, name := range sortedKeys(after) {
		sent := append([]string(nil), after[name][len(before[name]):]...)
		sort.Strings(sent)
		for _, q := range sent {
			fmt.Fprintf(&r.b, "-> %s: %s\n", name, q)
		}
	}
}

func TestPlanGolden(t *testing.T) {
	var out strings.Builder

	diff := &goldenRecorder{conn: diffConn()}
	diff.conn.SetParallelism(1)
	for i, q := range diffQueries {
		diff.record(fmt.Sprintf("diff/%d", i), q.sql, q.params...)
	}
	out.WriteString(diff.b.String())

	star := &goldenRecorder{conn: starConn(8000)}
	star.conn.SetParallelism(1)
	for _, phase := range []string{"unanalyzed", "analyzed"} {
		if phase == "analyzed" {
			analyzeStar(t, star.conn)
		}
		for i, sql := range differentialQueries {
			star.record(fmt.Sprintf("star/%s/%d", phase, i), sql)
		}
	}
	out.WriteString(star.b.String())

	snow := &goldenRecorder{conn: snowflakeConn(t)}
	snow.conn.SetParallelism(1)
	for i, sql := range snowflakeStatements(rand.New(rand.NewSource(23)), 200) {
		snow.record(fmt.Sprintf("snowflake/%d", i), sql)
	}
	for i, sql := range wideJoinStatements {
		snow.record(fmt.Sprintf("wide/%d", i), sql)
	}
	out.WriteString(snow.b.String())

	checkGolden(t, "testdata/plans.golden", out.String())
}

// TestPlanGoldenFederated pins the federated corpus: each statement's plan on
// the four backend adapters and the query text each backend received.
func TestPlanGoldenFederated(t *testing.T) {
	conn := newFedData().federated(t)
	fed := &goldenRecorder{conn: conn.Connection, logs: conn.logs}
	for i, s := range fedCorpus {
		label := fmt.Sprintf("fed/%d", i)
		if len(s.params) > 0 {
			label += fmt.Sprintf(" %v", s.params)
		}
		fed.record(label, s.sql, s.params...)
	}
	checkGolden(t, "testdata/federated.golden", fed.b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// snowflakeTable is one table of the golden snowflake schema: a fact table,
// four dimensions and two sub-dimensions, each key an int64 row ordinal.
type snowflakeTable struct {
	name string
	cols []string // all BIGINT; "id" first
	rows int
	// ref maps a foreign-key column to the table it references.
	ref map[string]string
	// preds are the non-key columns predicates draw on, with their domain
	// [0, dom).
	preds map[string]int64
}

var snowflakeSchema = []snowflakeTable{
	{name: "fact", cols: []string{"id", "cust", "prod", "store", "day", "qty", "amt"}, rows: 600,
		ref:   map[string]string{"cust": "cust", "prod": "prod", "store": "store", "day": "day"},
		preds: map[string]int64{"qty": 10, "amt": 200}},
	{name: "cust", cols: []string{"id", "region", "age", "seg"}, rows: 80,
		ref: map[string]string{"region": "region"}, preds: map[string]int64{"age": 60, "seg": 5}},
	{name: "prod", cols: []string{"id", "cat", "price"}, rows: 120,
		ref: map[string]string{"cat": "cat"}, preds: map[string]int64{"price": 300}},
	{name: "store", cols: []string{"id", "region", "sqft"}, rows: 25,
		ref: map[string]string{"region": "region"}, preds: map[string]int64{"sqft": 90}},
	{name: "day", cols: []string{"id", "month", "dow"}, rows: 90, preds: map[string]int64{"month": 12, "dow": 7}},
	{name: "region", cols: []string{"id", "zone"}, rows: 8, preds: map[string]int64{"zone": 4}},
	{name: "cat", cols: []string{"id", "dept"}, rows: 15, preds: map[string]int64{"dept": 6}},
}

func snowflakeByName(name string) snowflakeTable {
	for _, t := range snowflakeSchema {
		if t.name == name {
			return t
		}
	}
	panic("no snowflake table " + name)
}

// snowflakeConn loads the schema with deterministic rows and analyzes two of
// the dimensions, so the corpus plans over both collected statistics and the
// textbook defaults.
func snowflakeConn(t *testing.T) *calcite.Connection {
	t.Helper()
	conn := calcite.Open()
	for _, tb := range snowflakeSchema {
		cols := make(calcite.Columns, len(tb.cols))
		for i, c := range tb.cols {
			cols[i] = calcite.Column{Name: c, Type: calcite.BigIntType}
		}
		rows := make([][]any, tb.rows)
		for r := range rows {
			row := make([]any, len(tb.cols))
			row[0] = int64(r)
			for i, c := range tb.cols[1:] {
				if parent, ok := tb.ref[c]; ok {
					row[i+1] = int64((r*7 + i) % snowflakeByName(parent).rows)
				} else {
					row[i+1] = int64((r*13 + i*5) % int(tb.preds[c]))
				}
			}
			rows[r] = row
		}
		conn.AddTable(tb.name, cols, rows)
	}
	for _, name := range []string{"cust", "store"} {
		if _, err := conn.Exec("ANALYZE TABLE " + name); err != nil {
			t.Fatalf("ANALYZE %s: %v", name, err)
		}
	}
	return conn
}

// snowflakeStatements draws n distinct statements: a 2–6-way join grown from
// the fact table along foreign keys, 1–4 predicates on the joined tables'
// non-key columns, and one of three heads (global aggregate, GROUP BY with
// ORDER BY, ORDER BY with LIMIT).
func snowflakeStatements(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		type joined struct{ table, alias string }
		from := []joined{{"fact", "t0"}}
		var joins []string
		used := map[string]bool{} // alias.fk already joined
		for want := 1 + rng.Intn(5); len(from) <= want; {
			type edge struct{ child, fk, target string }
			var open []edge
			for _, j := range from {
				tb := snowflakeByName(j.table)
				for _, c := range tb.cols {
					if target, ok := tb.ref[c]; ok && !used[j.alias+"."+c] {
						open = append(open, edge{j.alias, c, target})
					}
				}
			}
			if len(open) == 0 {
				break
			}
			e := open[rng.Intn(len(open))]
			used[e.child+"."+e.fk] = true
			alias := fmt.Sprintf("t%d", len(from))
			joins = append(joins, fmt.Sprintf("JOIN %s %s ON %s.%s = %s.id", e.target, alias, e.child, e.fk, alias))
			from = append(from, joined{e.target, alias})
		}

		var preds []string
		for k := 1 + rng.Intn(4); k > 0; k-- {
			j := from[rng.Intn(len(from))]
			tb := snowflakeByName(j.table)
			var cols []string
			for _, c := range tb.cols {
				if _, ok := tb.preds[c]; ok {
					cols = append(cols, c)
				}
			}
			c := cols[rng.Intn(len(cols))]
			dom := tb.preds[c]
			ref := j.alias + "." + c
			switch rng.Intn(4) {
			case 0:
				lo := rng.Int63n(dom)
				preds = append(preds, fmt.Sprintf("%s BETWEEN %d AND %d", ref, lo, lo+rng.Int63n(dom-lo)+1))
			case 1:
				preds = append(preds, fmt.Sprintf("%s IN (%d, %d)", ref, rng.Int63n(dom), rng.Int63n(dom)))
			default:
				op := []string{"<", "<=", ">", ">=", "=", "<>"}[rng.Intn(6)]
				preds = append(preds, fmt.Sprintf("%s %s %d", ref, op, rng.Int63n(dom)))
			}
		}

		last := from[len(from)-1]
		lastCol := snowflakeByName(last.table).cols[1]
		var head, tail string
		switch rng.Intn(3) {
		case 0:
			head = "SELECT COUNT(*) AS n, SUM(t0.qty) AS q"
		case 1:
			head = fmt.Sprintf("SELECT %s.%s AS g, COUNT(*) AS n, MAX(t0.amt) AS m", last.alias, lastCol)
			tail = fmt.Sprintf(" GROUP BY %s.%s ORDER BY g", last.alias, lastCol)
		default:
			head = fmt.Sprintf("SELECT t0.id, t0.amt, %s.%s AS x", last.alias, lastCol)
			tail = fmt.Sprintf(" ORDER BY t0.amt DESC, t0.id LIMIT %d", 3+rng.Intn(20))
		}
		sql := head + " FROM fact t0 " + strings.Join(joins, " ") + " WHERE " + strings.Join(preds, " AND ") + tail
		if !seen[sql] {
			seen[sql] = true
			out = append(out, sql)
		}
	}
	return out
}

// wideJoinStatements are the joins the generated snowflake corpus does not
// reach: 7 to 10 factors (exact dynamic programming up to its factor limit)
// and 11 and 12 factors (the greedy builder). Among their factors are filtered
// ones that return a single row, so candidate costs tie, and components with
// no join condition between them, which only a cross product can combine.
var wideJoinStatements = []string{
	// 7 factors: the whole snowflake, two dimensions filtered to one row.
	"SELECT COUNT(*) AS n, SUM(t0.qty) AS q FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id " +
		"WHERE t5.id = 3 AND t6.id = 4 AND t4.month < 6",
	// 8 factors: both regions, tied one-row filters on each.
	"SELECT t3.sqft AS g, COUNT(*) AS n, MAX(t0.amt) AS m FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN region t7 ON t3.region = t7.id " +
		"WHERE t5.id = 2 AND t7.id = 2 AND t4.dow = 1 GROUP BY t3.sqft ORDER BY g",
	// 9 factors: a one-row day joined to nothing, so only a cross product
	// brings it in.
	"SELECT COUNT(*) AS n, SUM(t0.qty) AS q FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN region t7 ON t3.region = t7.id " +
		"JOIN day t8 ON t8.id = 5 WHERE t6.dept = 2 AND t1.age > 30",
	// 10 factors: a self-join of the fact table by key, and two one-row
	// dimensions whose costs tie.
	"SELECT t0.id, t0.amt, t9.seg AS x FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN fact t7 ON t7.id = t0.id " +
		"JOIN store t8 ON t7.store = t8.id JOIN cust t9 ON t7.cust = t9.id " +
		"WHERE t5.id = 1 AND t6.id = 1 AND t8.sqft < 40 ORDER BY t0.amt DESC, t0.id LIMIT 7",
	// 10 factors in two components, {fact, dimensions} and {region, cat},
	// with no condition between them: the last join is a cross product.
	"SELECT COUNT(*) AS n, SUM(t0.qty) AS q FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN region t7 ON t3.region = t7.id " +
		"JOIN region t8 ON t8.zone = 1 JOIN cat t9 ON t9.dept = t8.id WHERE t4.month = 2 AND t0.qty < 5",
	// 11 factors: greedy, with a one-row cross-product factor.
	"SELECT t4.month AS g, COUNT(*) AS n, MAX(t0.amt) AS m FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN region t7 ON t3.region = t7.id " +
		"JOIN fact t8 ON t8.id = t0.id JOIN prod t9 ON t8.prod = t9.id JOIN region t10 ON t10.id = 6 " +
		"WHERE t5.id = 4 AND t7.id = 4 AND t9.price < 150 GROUP BY t4.month ORDER BY g",
	// 12 factors: greedy over two components joined by a cross product.
	"SELECT COUNT(*) AS n, SUM(t0.qty) AS q FROM fact t0 JOIN cust t1 ON t0.cust = t1.id " +
		"JOIN prod t2 ON t0.prod = t2.id JOIN store t3 ON t0.store = t3.id JOIN day t4 ON t0.day = t4.id " +
		"JOIN region t5 ON t1.region = t5.id JOIN cat t6 ON t2.cat = t6.id JOIN region t7 ON t3.region = t7.id " +
		"JOIN fact t8 ON t8.id = t0.id JOIN cust t9 ON t8.cust = t9.id " +
		"JOIN region t10 ON t10.zone = 2 JOIN cat t11 ON t11.dept = t10.id WHERE t6.id = 3 AND t9.seg = 1",
}
