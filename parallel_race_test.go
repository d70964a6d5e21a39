package calcite_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"calcite"
)

// TestParallelScanWithConcurrentInserts races four scanning connections
// (parallelism 1 and 4, batch size 3 and default) over one MemTable against a
// writer appending rows to it. It exists for `go test -race`: scans pin the
// table's columns at a length while inserts append past it in place. Which
// length a query sees is inherently racy; that it sees exactly one — row i
// holds id i, so COUNT(*) = n must come with SUM(id) = n(n-1)/2 — between
// the table's length before and after it is not.
func TestParallelScanWithConcurrentInserts(t *testing.T) {
	const initial = 2000
	rows := make([][]any, initial)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("r%d", i)}
	}
	cols := calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "name", Type: calcite.VarcharType},
	}
	tbl := calcite.Open().AddTable("hot", cols, rows)

	// Each query asks the writer for a burst of single-row inserts first, so
	// the appends overlap the scans and the table grows by a bounded 10 000
	// rows (several reallocations of every column).
	grow := make(chan struct{})
	var writer, scanners sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		n := initial
		for range grow {
			for end := n + 100; n < end; n++ {
				if err := tbl.Insert([][]any{{int64(n), fmt.Sprintf("r%d", n)}}); err != nil {
					t.Error(err)
				}
			}
		}
	}()

	for _, cfg := range []struct{ parallelism, batchSize int }{{1, 0}, {1, 3}, {4, 0}, {4, 3}} {
		conn := calcite.Open()
		conn.Framework.Catalog.AddTable(tbl)
		conn.SetParallelism(cfg.parallelism)
		conn.SetBatchSize(cfg.batchSize)
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for i := 0; i < 25; i++ {
				grow <- struct{}{}
				lo := int64(tbl.Stats().RowCount)
				res, err := conn.Query("SELECT COUNT(*), SUM(id) FROM hot WHERE id >= 0")
				hi := int64(tbl.Stats().RowCount)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				count, sum := res.Rows[0][0].(int64), res.Rows[0][1].(int64)
				if count < lo || count > hi {
					t.Errorf("query %d: saw %d rows, outside [%d, %d]", i, count, lo, hi)
				}
				if sum != count*(count-1)/2 {
					t.Errorf("query %d: COUNT(*) = %d but SUM(id) = %d: not a prefix of the inserts", i, count, sum)
				}
			}
		}()
	}
	scanners.Wait()
	close(grow)
	writer.Wait()
	if got := tbl.Stats().RowCount; got != initial+10000 {
		t.Errorf("table ended at %v rows, want %d", got, initial+10000)
	}
}

// TestConcurrentBindingsShareOneCachedPlan executes a single cached prepared
// statement from eight goroutines, each with its own bindings. Parameters are
// substituted per execution on a copy of each expression (filter, projection
// and hash-join residual here), so under `go test -race` the shared plan must
// stay untouched: every goroutine gets the rows of its own literal twin, and
// every execution after the first is a plan-cache hit.
func TestConcurrentBindingsShareOneCachedPlan(t *testing.T) {
	const (
		prepared = "SELECT e.id, p.name, e.id + ? FROM events e LEFT JOIN products p ON e.fkey = p.productId AND e.id > ? WHERE e.grp = ? ORDER BY e.id"
		literal  = "SELECT e.id, p.name, e.id + %d FROM events e LEFT JOIN products p ON e.fkey = p.productId AND e.id > %d WHERE e.grp = %d ORDER BY e.id"
		workers  = 8
		rounds   = 10
	)
	ref := diffConn()
	params := make([][]any, workers)
	want := make([][]string, workers)
	for g := range params {
		add, lo, grp := int64(1000*g), int64(200*g), int64(g%7)
		params[g] = []any{add, lo, grp}
		res, err := ref.Query(fmt.Sprintf(literal, add, lo, grp))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = renderRows(res.Rows)
	}

	conn := diffConn()
	// Drift-driven re-planning (bounded, TestReplanCap) would add misses that
	// are not this test's subject.
	conn.EnableFeedback(false)
	if _, err := conn.Query(prepared, params[0]...); err != nil {
		t.Fatal(err)
	}
	before := conn.Framework.PlanCache().Counters()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := conn.Query(prepared, params[g]...)
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				if got := renderRows(res.Rows); !reflect.DeepEqual(got, want[g]) {
					t.Errorf("worker %d saw another binding's rows:\n  got  %v\n  want %v", g, got, want[g])
					return
				}
			}
		}()
	}
	wg.Wait()
	after := conn.Framework.PlanCache().Counters()
	if after.Misses != before.Misses || after.Hits-before.Hits != workers*rounds {
		t.Errorf("plan cache before %+v, after %+v: want %d hits and no new miss", before, after, workers*rounds)
	}
}

// TestConcurrentAdHocStatementsPublishLastPlanner runs distinct statements —
// each a plan-cache miss that plans and publishes Framework.LastPlanner — from
// four goroutines; the writes used to race. Each is a 3-way join, so the
// sessions' digest and feedback-key memos run beside harvests into the one
// bounded feedback store.
func TestConcurrentAdHocStatementsPublishLastPlanner(t *testing.T) {
	conn := diffConn()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sql := fmt.Sprintf("SELECT e.name FROM emps e JOIN depts d ON e.deptno = d.deptno "+
					"JOIN emps m ON m.deptno = d.deptno WHERE e.empid > %d", 10*g+i)
				if _, err := conn.Query(sql); err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if conn.Framework.LastPlanner == nil {
		t.Error("no planner published")
	}
}
