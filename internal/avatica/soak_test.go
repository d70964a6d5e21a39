package avatica_test

// Concurrency soak for the serving tier (run under -race in CI): 32
// goroutines hammer a live server with mixed prepare/execute/fetch/close
// traffic, then the test checks nothing survives that shouldn't — the
// statement table is empty, no cursor memory is retained, and the goroutine
// count returns to its pre-server baseline after Shutdown.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"calcite"
	"calcite/internal/avatica"
)

func TestServingSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	conn := calcite.Open()
	// Pin the budget: 32 workers each retain a 500-row cursor mid-iteration,
	// which the CI low-memory matrix's tiny CALCITE_MEM_LIMIT default would
	// (correctly) refuse. Budget-denial behavior has its own tests; this one
	// is about leaks under churn.
	conn.SetMemoryLimit(64 << 20)
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 13), fmt.Sprintf("n-%03d", i)}
	}
	conn.AddTable("soak", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "name", Type: calcite.VarcharType},
	}, rows)
	const (
		workers    = 32
		iterations = 15
	)
	srv := avatica.NewServer(conn.Framework)
	// Admission has its own tests; here every worker must get a turn, and on
	// two cores the default queue (a multiple of the slot count) is shorter
	// than the worker count.
	srv.MaxQueue = workers
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := avatica.NewClient(addr)
			client.Tenant = fmt.Sprintf("tenant-%d", w%4)
			defer client.HTTP.CloseIdleConnections()
			fail := func(op string, err error) {
				errs <- fmt.Errorf("worker %d %s: %w", w, op, err)
			}
			for i := 0; i < iterations; i++ {
				switch i % 3 {
				case 0: // prepare → execute with params → close
					id, err := client.Prepare("SELECT id, name FROM soak WHERE grp = ? ORDER BY id")
					if err != nil {
						fail("prepare", err)
						return
					}
					resp, err := client.Execute(id, int64((w+i)%13))
					if err != nil {
						fail("execute", err)
						return
					}
					if len(resp.Rows) == 0 {
						fail("execute", fmt.Errorf("no rows"))
						return
					}
					if err := client.Close(id); err != nil {
						fail("close", err)
						return
					}
				case 1: // paginated direct SQL → drain → close implicit stmt
					resp, err := client.Do(avatica.ExecuteRequest{
						SQL:       "SELECT id, grp, name FROM soak ORDER BY name",
						FetchSize: 64,
					})
					if err != nil {
						fail("paginated execute", err)
						return
					}
					n := len(resp.Rows)
					id := resp.StatementID
					for resp.More {
						if resp, err = client.Fetch(id, 64); err != nil {
							fail("fetch", err)
							return
						}
						n += len(resp.Rows)
					}
					if n != 500 {
						fail("fetch", fmt.Errorf("reassembled %d rows, want 500", n))
						return
					}
					if err := client.Close(id); err != nil {
						fail("close cursor stmt", err)
						return
					}
				case 2: // plain aggregation (plan-cache hit stream)
					resp, err := client.Query("SELECT grp, COUNT(*) FROM soak GROUP BY grp")
					if err != nil {
						fail("query", err)
						return
					}
					if len(resp.Rows) != 13 {
						fail("query", fmt.Errorf("groups = %d, want 13", len(resp.Rows)))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Everything explicit was closed: the live-statement gauge is back to 0
	// and no cursor memory is retained.
	if got := srv.StatementCount(); got != 0 {
		t.Fatalf("statements live after soak: %d, want 0", got)
	}
	if got := srv.CursorBytes(); got != 0 {
		t.Fatalf("cursor bytes after soak: %d, want 0", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Goroutine-leak canary: after shutdown the count should settle back to
	// the baseline (plus slack for runtime/netpoll helpers that linger).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizers and idle-connection teardown
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, now, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
