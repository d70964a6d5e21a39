package calcite_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"calcite"
)

// TestParallelScanWithConcurrentInserts races morsel workers scanning a
// MemTable against a writer appending rows. It exists for `go test -race`:
// the table's columnar-snapshot cache must serve concurrent readers while
// inserts invalidate it, without data races. Result contents are inherently
// racy (a query sees some prefix of the inserts); the invariants checked are
// "no error" and "at least the initial rows, in multiples of full inserts".
func TestParallelScanWithConcurrentInserts(t *testing.T) {
	conn := calcite.Open()
	conn.SetParallelism(4)
	const initial = 5000
	rows := make([][]any, initial)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("r%d", i)}
	}
	tbl := conn.AddTable("hot", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "name", Type: calcite.VarcharType},
	}, rows)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := initial
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tbl.Insert([][]any{{int64(n), fmt.Sprintf("r%d", n)}}); err != nil {
				t.Error(err)
				return
			}
			n++
		}
	}()

	for i := 0; i < 25; i++ {
		res, err := conn.Query("SELECT COUNT(*), MAX(id) FROM hot WHERE id >= 0")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		count := res.Rows[0][0].(int64)
		if count < initial {
			t.Fatalf("query %d: saw %d rows, want >= %d", i, count, initial)
		}
	}
	close(stop)
	wg.Wait()
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
// four goroutines; the writes used to race.
func TestConcurrentAdHocStatementsPublishLastPlanner(t *testing.T) {
	conn := diffConn()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sql := fmt.Sprintf("SELECT name FROM emps WHERE empid > %d", 10*g+i)
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
