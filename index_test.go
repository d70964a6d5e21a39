package calcite_test

// The index access path: an equality filter on an indexed column plans as
// EnumerableIndexScan once ANALYZE has chosen the column, and must return
// exactly what the scan and filter it replaces return. The oracle is the same
// catalog left un-ANALYZEd, which has no index and plans the scan.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"calcite"
	"calcite/internal/obs"
)

var keyCols = calcite.Columns{
	{Name: "id", Type: calcite.BigIntType},
	{Name: "code", Type: calcite.VarcharType},
	{Name: "near", Type: calcite.DoubleType},
	{Name: "grp", Type: calcite.BigIntType},
}

// keyRows: id and code are keys, near is a near-key (NDV 950 of 1000, so
// 0..49 appear twice) and grp is no key at all.
func keyRows() [][]any {
	rows := make([][]any, 1000)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("c-%04d", i), float64(i % 950), int64(i % 7)}
	}
	return rows
}

// keysConn builds the catalog, ANALYZEd or not. appended loads half the rows
// up front and INSERTs the rest after ANALYZE. Either way the table then
// gets a row whose id is NULL and, once a lookup has built the id index, a
// row whose id is a Go int, which demotes the column to VecAny.
func keysConn(t *testing.T, analyze, appended bool) *calcite.Connection {
	t.Helper()
	rows := keyRows()
	initial := rows
	if appended {
		initial = rows[:len(rows)/2]
	}
	conn := calcite.Open()
	tb := conn.AddTable("keys", keyCols, append([][]any(nil), initial...))
	must := func(sql string, params ...any) {
		t.Helper()
		if _, err := conn.Query(sql, params...); err != nil {
			t.Fatalf("%s %v: %v", sql, params, err)
		}
	}
	if analyze {
		must("ANALYZE TABLE keys")
	}
	for _, r := range rows[len(initial):] {
		must("INSERT INTO keys VALUES (?, ?, ?, ?)", r...)
	}
	must("INSERT INTO keys VALUES (?, ?, ?, ?)", nil, "c-null", 2000.0, int64(1))
	must("SELECT code FROM keys WHERE id = 1")
	if err := tb.Insert([][]any{{1001, "c-1001", 1001.0, int64(0)}}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// indexInputs are the index-eligible statements, each literal and prepared.
var indexInputs = []struct {
	sql    string
	params []any
}{
	{sql: "SELECT * FROM keys WHERE id = 17"},
	{sql: "SELECT * FROM keys WHERE id = ?", params: []any{int64(17)}},
	{sql: "SELECT code FROM keys WHERE id = 5000"},
	{sql: "SELECT code FROM keys WHERE id = ?", params: []any{int64(5000)}},
	{sql: "SELECT code FROM keys WHERE id = 17 AND grp = 3"},
	{sql: "SELECT code FROM keys WHERE id = ? AND grp = ?", params: []any{int64(17), int64(3)}},
	{sql: "SELECT code FROM keys WHERE id = ? AND grp = ?", params: []any{int64(17), int64(4)}},
	{sql: "SELECT code FROM keys WHERE id = ?", params: []any{nil}},
	{sql: "SELECT code FROM keys WHERE id = 2.0"},
	{sql: "SELECT code FROM keys WHERE id = ?", params: []any{2.0}},
	{sql: "SELECT code FROM keys WHERE id = 2.5"},
	{sql: "SELECT code FROM keys WHERE id = ?", params: []any{2.5}},
	{sql: "SELECT id, grp FROM keys WHERE code = 'c-0042'"},
	{sql: "SELECT id, grp FROM keys WHERE code = ?", params: []any{"c-0042"}},
	{sql: "SELECT code FROM keys WHERE id = 1001"},
	{sql: "SELECT code FROM keys WHERE id = ?", params: []any{int64(1001)}},
	{sql: "SELECT id, code FROM keys WHERE near = 3"},
	{sql: "SELECT id, code FROM keys WHERE near = ?", params: []any{int64(3)}},
}

// TestIndexScanMatchesScan: every input plans as an index lookup on the
// ANALYZEd catalog and as a scan on its twin, and both return the same rows
// in the same order: serial, parallel, under a 64 KB budget, over the wire
// and on a table built by appends.
func TestIndexScanMatchesScan(t *testing.T) {
	for _, cfg := range []struct {
		name      string
		configure func(*calcite.Connection)
		appended  bool
		wire      bool
	}{
		{name: "serial", configure: func(c *calcite.Connection) { c.SetParallelism(1) }},
		{name: "parallel4", configure: func(c *calcite.Connection) { c.SetParallelism(4) }},
		{name: "mem64k", configure: func(c *calcite.Connection) { c.SetMemoryLimit(64 << 10) }},
		{name: "wire", configure: func(*calcite.Connection) {}, wire: true},
		{name: "appended", configure: func(*calcite.Connection) {}, appended: true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			runners := make([]queryFunc, 2)
			for i, analyze := range []bool{true, false} {
				conn := keysConn(t, analyze, cfg.appended)
				cfg.configure(conn)
				for _, in := range indexInputs {
					plan, err := conn.Explain(in.sql)
					if err != nil {
						t.Fatal(err)
					}
					if strings.Contains(plan, "EnumerableIndexScan") != analyze {
						t.Errorf("analyzed=%v: %s\n%s", analyze, in.sql, plan)
					}
				}
				runners[i] = conn.Query
				if cfg.wire {
					runners[i] = wireQuery(t, conn)
				}
			}
			for round := 0; round < 2; round++ { // the second round hits the plan cache
				for _, in := range indexInputs {
					got, err := runners[0](in.sql, in.params...)
					if err != nil {
						t.Fatalf("%s %v: %v", in.sql, in.params, err)
					}
					want, err := runners[1](in.sql, in.params...)
					if err != nil {
						t.Fatalf("%s %v: %v", in.sql, in.params, err)
					}
					if !reflect.DeepEqual(renderRows(got.Rows), renderRows(want.Rows)) {
						t.Errorf("%s %v\n  index: %v\n  scan:  %v", in.sql, in.params, got.Rows, want.Rows)
					}
				}
			}
		})
	}
}

// scannedRows sums the rows the leaf operators of a trace produced.
func scannedRows(s *obs.SpanStats) int64 {
	if len(s.Children) == 0 {
		return s.Rows
	}
	var n int64
	for _, c := range s.Children {
		n += scannedRows(c)
	}
	return n
}

// TestIndexScanWorkIsConstant: a prepared point lookup reads one row however
// large the table is.
func TestIndexScanWorkIsConstant(t *testing.T) {
	for _, n := range []int{1000, 20000, 80000} {
		conn := calcite.Open()
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{int64(i), int64(i % 13)}
		}
		conn.AddTable("t", calcite.Columns{{Name: "id", Type: calcite.BigIntType}, {Name: "v", Type: calcite.BigIntType}}, rows)
		if _, err := conn.Exec("ANALYZE TABLE t"); err != nil {
			t.Fatal(err)
		}
		for _, key := range []int64{int64(n / 2), int64(n - 1)} {
			res, err := conn.Query("SELECT id, v FROM t WHERE id = ?", key)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != key {
				t.Fatalf("n=%d: lookup of %d returned %v", n, key, res.Rows)
			}
			tr := conn.LastTraces(1)[0]
			if got := scannedRows(tr.Spans); got != 1 {
				t.Errorf("n=%d key=%d (cached=%v): %d rows scanned, want 1", n, key, tr.Cached, got)
			}
		}
	}
}

// TestIndexLookupConcurrentInserts: prepared lookups race single-row INSERTs.
// A lookup of the hot key sees at least the rows acknowledged before it
// started and no more than were appended by the time it finished, each once
// and in append order; afterwards every acknowledged row is found.
func TestIndexLookupConcurrentInserts(t *testing.T) {
	const base, writers, perWriter, readers, hot = 1000, 2, 100, 2, int64(-1)
	conn := calcite.Open()
	rows := make([][]any, base)
	for i := range rows {
		rows[i] = []any{int64(i), int64(0)}
	}
	conn.AddTable("t", calcite.Columns{{Name: "k", Type: calcite.BigIntType}, {Name: "seq", Type: calcite.BigIntType}}, rows)
	if _, err := conn.Exec("ANALYZE TABLE t"); err != nil {
		t.Fatal(err)
	}
	if plan, _ := conn.Explain("SELECT seq FROM t WHERE k = ?"); !strings.Contains(plan, "EnumerableIndexScan") {
		t.Fatalf("no index lookup:\n%s", plan)
	}
	// hotAcked counts the hot rows whose INSERT returned, hotStarted those
	// whose INSERT was issued.
	var hotAcked, hotStarted atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Alternate a new unique key with another row of the hot key.
				k, seq := int64(base+w*perWriter+i), int64(w*perWriter+i)
				if i%2 == 1 {
					k = hot
					hotStarted.Add(1)
				}
				if _, err := conn.Query("INSERT INTO t VALUES (?, ?)", k, seq); err != nil {
					errs <- err
					return
				}
				if k == hot {
					hotAcked.Add(1)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				before := hotAcked.Load()
				res, err := conn.Query("SELECT seq FROM t WHERE k = ?", hot)
				if err != nil {
					errs <- err
					return
				}
				after := hotStarted.Load()
				if n := int64(len(res.Rows)); n < before || n > after {
					errs <- fmt.Errorf("hot key returned %d rows with %d acknowledged before and %d issued after", n, before, after)
					return
				}
				last := map[int64]int64{} // per writer, the last seq seen
				for _, row := range res.Rows {
					seq := row[0].(int64)
					w := seq / perWriter
					if prev, ok := last[w]; ok && seq <= prev {
						errs <- fmt.Errorf("hot key rows out of append order: %v", res.Rows)
						return
					}
					last[w] = seq
				}
				k := int64(rng.Intn(base))
				if res, err = conn.Query("SELECT seq FROM t WHERE k = ?", k); err != nil || len(res.Rows) != 1 {
					errs <- fmt.Errorf("lookup of %d: %v, %v", k, res, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i += 2 {
			k := int64(base + w*perWriter + i)
			res, err := conn.Query("SELECT seq FROM t WHERE k = ?", k)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != int64(w*perWriter+i) {
				t.Fatalf("acknowledged key %d: %v, %v", k, res, err)
			}
		}
	}
	res, err := conn.Query("SELECT seq FROM t WHERE k = ?", hot)
	if err != nil || int64(len(res.Rows)) != writers*perWriter/2 {
		t.Fatalf("hot key after the writes: %v, %v", res, err)
	}
}
