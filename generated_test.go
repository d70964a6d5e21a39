package calcite_test

// The generated-statement suite: statements drawn by the seeded generator of
// oracle_test.go run in every engine configuration and must return what the
// oracle computed for them, and the fuzz target that draws statements from
// arbitrary seeds. The generator shares no code with the engine, so these
// are the reference for every execution path.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"calcite"
)

// oracleStatements is how many generated statements each configuration runs.
const oracleStatements = 240

// oracleCatalog is the differential catalog as the oracle sees it.
func oracleCatalog() []*oTable {
	var out []*oTable
	for _, tb := range diffTables() {
		t := &oTable{name: tb.name, rows: tb.rows}
		for _, c := range tb.cols {
			t.cols = append(t.cols, c.Name)
			switch c.Type {
			case calcite.BigIntType:
				t.kinds = append(t.kinds, oInt)
			case calcite.DoubleType:
				t.kinds = append(t.kinds, oDouble)
			default:
				t.kinds = append(t.kinds, oString)
			}
		}
		out = append(out, t)
	}
	return out
}

// oCase is a generated statement with the oracle's answer.
type oCase struct {
	q    *oQuery
	want [][]any
}

func oracleCases(seed int64, n int) []oCase {
	g := newOGen(seed, oracleCatalog())
	out := make([]oCase, n)
	for i := range out {
		out[i].q, out[i].want = g.next()
	}
	return out
}

// appendBuiltConn loads the first half of every differential table up front
// and appends the rest by single-row prepared INSERTs after the views are
// declared, so the tables are read through in-place appends and the views
// are stale.
func appendBuiltConn(t testing.TB) *calcite.Connection {
	conn := calcite.Open()
	tables := diffTables()
	for _, tb := range tables {
		conn.AddTable(tb.name, tb.cols, tb.rows[:len(tb.rows)/2])
	}
	diffViews(conn)
	for _, tb := range tables {
		marks := strings.TrimSuffix(strings.Repeat("?, ", len(tb.cols)), ", ")
		insert := fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.name, marks)
		for _, row := range tb.rows[len(tb.rows)/2:] {
			if _, err := conn.Exec(insert, row...); err != nil {
				t.Fatalf("%s %v: %v", insert, row, err)
			}
		}
	}
	return conn
}

// oracleConfig is one engine configuration the generated statements run in.
type oracleConfig struct {
	name     string
	open     func(t testing.TB) queryFunc
	prepared bool // run the "?" form with bind values
}

func configured(configure func(*calcite.Connection)) func(testing.TB) queryFunc {
	return func(testing.TB) queryFunc {
		conn := diffConn()
		configure(conn)
		return conn.Query
	}
}

var oracleConfigs = []oracleConfig{
	{name: "serial", open: configured(func(c *calcite.Connection) { c.SetParallelism(1) })},
	{name: "parallel4", open: configured(func(c *calcite.Connection) { c.SetParallelism(4) })},
	{name: "batch3", open: configured(func(c *calcite.Connection) { c.SetParallelism(1); c.SetBatchSize(3) })},
	{name: "mem64k", open: configured(func(c *calcite.Connection) { c.SetMemoryLimit(64 << 10) })},
	{name: "prepared", open: configured(func(c *calcite.Connection) { c.SetParallelism(1) }), prepared: true},
	{name: "wire", open: func(t testing.TB) queryFunc { return wireQuery(t, diffConn()) }},
	{name: "appended", open: func(t testing.TB) queryFunc { return appendBuiltConn(t).Query }},
}

// TestGeneratedQueriesMatchOracle runs a fixed seed's statements in every
// configuration against the oracle's answers.
func TestGeneratedQueriesMatchOracle(t *testing.T) {
	cases := oracleCases(1, oracleStatements)
	shapes := map[string]int{}
	for _, c := range cases {
		for _, s := range c.q.shapes() {
			shapes[s]++
		}
	}
	var names []string
	for s := range shapes {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		t.Logf("%4d statements: %s", shapes[s], s)
	}
	for _, cfg := range oracleConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			query := cfg.open(t)
			for i, c := range cases {
				checkOracle(t, fmt.Sprintf("seed 1, statement %d", i), query, c, cfg.prepared)
			}
		})
	}
}

// checkOracle runs one generated statement and compares the engine's answer
// with the oracle's.
func checkOracle(t testing.TB, label string, query queryFunc, c oCase, prepared bool) {
	t.Helper()
	sql, params := c.q.SQL(prepared)
	res, err := query(sql, params...)
	if err != nil {
		t.Errorf("%s: %s %v\n  error: %v", label, sql, params, err)
		return
	}
	if !reflect.DeepEqual(res.Columns, c.q.names()) {
		t.Errorf("%s: %s %v\n  columns %v, want %v", label, sql, params, res.Columns, c.q.names())
	}
	if d := oMatch(c.q.ordered(), res.Rows, c.want); d != "" {
		t.Errorf("%s: %s %v\n  %s", label, sql, params, d)
	}
}

var fuzzConns struct {
	once            sync.Once
	cat             []*oTable
	serial, spilled *calcite.Connection
}

// FuzzGeneratedQueries draws one statement per seed and runs its literal form
// serially and its prepared form at parallelism 4 under a 64 KB budget.
func FuzzGeneratedQueries(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzConns.once.Do(func() {
			fuzzConns.cat = oracleCatalog()
			fuzzConns.serial = diffConn()
			fuzzConns.serial.SetParallelism(1)
			fuzzConns.spilled = diffConn()
			fuzzConns.spilled.SetParallelism(4)
			fuzzConns.spilled.SetMemoryLimit(64 << 10)
		})
		q, want := newOGen(seed, fuzzConns.cat).next()
		c := oCase{q, want}
		label := fmt.Sprintf("seed %d", seed)
		checkOracle(t, label, fuzzConns.serial.Query, c, false)
		checkOracle(t, label, fuzzConns.spilled.Query, c, true)
	})
}
