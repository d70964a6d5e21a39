package avatica_test

// Concurrency soak for the serving tier (run under -race in CI): 32
// goroutines in four tenants, each on its own carved memory pool, hammer a
// live server with mixed prepare/execute/fetch/close traffic — a prepared
// point filter, a prepared 5-way star join, a paginated sort drained frame
// by frame, a paginated window aggregation abandoned after its first frame,
// and a plain aggregation. Every request must succeed. Then the test checks
// that nothing survives that shouldn't: the statement table is empty, no
// cursor memory is retained, /metrics shows the global pool and every
// tenant pool back at zero, the plan cache served the run, and the
// goroutine count settles both after the load and after Shutdown.

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

// loadStarFixture registers a star schema: a 500-row fact table with a
// foreign key into each of four 20-row dimensions. Every attr value 0..16
// matches at least one d_prod row, so a filter on d_prod.attr keeps rows.
func loadStarFixture(conn *calcite.Connection) {
	const dimRows = 20
	for di, name := range []string{"d_cust", "d_prod", "d_geo", "d_time"} {
		dim := make([][]any, dimRows)
		for i := range dim {
			dim[i] = []any{int64(i), fmt.Sprintf("%s-%03d", name, i), int64((i * (di + 3)) % 17)}
		}
		conn.AddTable(name, calcite.Columns{
			{Name: "id", Type: calcite.BigIntType},
			{Name: "label", Type: calcite.VarcharType},
			{Name: "attr", Type: calcite.BigIntType},
		}, dim)
	}
	fact := make([][]any, 500)
	for i := range fact {
		h := uint64(i)*0x9e3779b97f4a7c15 + 0x1234
		fact[i] = []any{
			int64(i), int64(h % dimRows), int64((h >> 8) % dimRows),
			int64((h >> 16) % dimRows), int64((h >> 24) % dimRows),
			float64(h%100000) / 100,
		}
	}
	conn.AddTable("fact", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "cust_id", Type: calcite.BigIntType},
		{Name: "prod_id", Type: calcite.BigIntType},
		{Name: "geo_id", Type: calcite.BigIntType},
		{Name: "time_id", Type: calcite.BigIntType},
		{Name: "amount", Type: calcite.DoubleType},
	}, fact)
}

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
	loadStarFixture(conn)
	const (
		workers    = 32
		tenants    = 4
		iterations = 15
		pointSQL   = "SELECT id, name FROM soak WHERE grp = ? ORDER BY id"
		starSQL    = "SELECT c.label, SUM(f.amount) AS total FROM fact f " +
			"JOIN d_cust c ON f.cust_id = c.id JOIN d_prod p ON f.prod_id = p.id " +
			"JOIN d_geo g ON f.geo_id = g.id JOIN d_time t ON f.time_id = t.id " +
			"WHERE p.attr = ? GROUP BY c.label ORDER BY total DESC"
		sortSQL   = "SELECT id, grp, name FROM soak ORDER BY name"
		windowSQL = "SELECT id, grp, SUM(id) OVER (PARTITION BY grp ORDER BY id " +
			"ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS w FROM soak"
		aggSQL = "SELECT grp, COUNT(*) FROM soak GROUP BY grp"
	)
	srv := avatica.NewServer(conn.Framework)
	// Admission has its own tests; here every worker must get a turn, and on
	// two cores the default queue (a multiple of the slot count) is shorter
	// than the worker count.
	srv.MaxQueue = workers
	// Every tenant runs on a pool carved from the global one.
	srv.TenantMemoryLimit = 8 << 20
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tenantName := func(w int) string { return fmt.Sprintf("tenant-%d", w%tenants) }

	// Plan each statement once before the load, so the hit share below
	// measures the steady state rather than the 32 workers' first requests
	// all missing together.
	warm := avatica.NewClient(addr)
	for _, sql := range []string{pointSQL, starSQL, sortSQL, windowSQL, aggSQL} {
		var params []any
		if sql == pointSQL || sql == starSQL {
			params = []any{int64(0)}
		}
		if _, err := warm.Query(sql, params...); err != nil {
			t.Fatalf("warm-up %q: %v", sql, err)
		}
	}
	warm.HTTP.CloseIdleConnections()
	cacheBefore := conn.Framework.PlanCache().Counters()
	loadBaseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := avatica.NewClient(addr)
			client.Tenant = tenantName(w)
			defer client.HTTP.CloseIdleConnections()
			fail := func(op string, err error) {
				errs <- fmt.Errorf("worker %d %s: %w", w, op, err)
			}
			for i := 0; i < iterations; i++ {
				switch i % 5 {
				case 0: // prepare → execute with params → close
					id, err := client.Prepare(pointSQL)
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
				case 1: // prepared star join, executed with two bindings → close
					id, err := client.Prepare(starSQL)
					if err != nil {
						fail("prepare star", err)
						return
					}
					for _, attr := range []int64{int64((w + i) % 17), int64((w + i + 8) % 17)} {
						resp, err := client.Execute(id, attr)
						if err != nil {
							fail("execute star", err)
							return
						}
						if len(resp.Rows) == 0 {
							fail("execute star", fmt.Errorf("attr %d: no rows", attr))
							return
						}
					}
					if err := client.Close(id); err != nil {
						fail("close star", err)
						return
					}
				case 2: // paginated direct SQL → drain → close implicit stmt
					resp, err := client.Do(avatica.ExecuteRequest{SQL: sortSQL, FetchSize: 64})
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
				case 3: // paginated window aggregation, abandoned after one
					// frame: Close must release the retained cursor.
					resp, err := client.Do(avatica.ExecuteRequest{SQL: windowSQL, FetchSize: 64})
					if err != nil {
						fail("window execute", err)
						return
					}
					if len(resp.Rows) != 64 || !resp.More {
						fail("window execute", fmt.Errorf("first frame %d rows, more=%v", len(resp.Rows), resp.More))
						return
					}
					if err := client.Close(resp.StatementID); err != nil {
						fail("close window stmt", err)
						return
					}
				case 4: // plain aggregation (plan-cache hit stream)
					resp, err := client.Query(aggSQL)
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

	// Each check below is one gate the serving tier must hold after
	// concurrent mixed traffic; each runs as its own subtest so a failure
	// names the gate.
	t.Run("no_request_failed", func(t *testing.T) {
		for err := range errs {
			t.Error(err)
		}
	})
	// Everything explicit was closed: the live-statement gauge is back to 0
	// and no cursor memory is retained.
	t.Run("statements_released", func(t *testing.T) {
		if got := srv.StatementCount(); got != 0 {
			t.Errorf("statements live after soak: %d, want 0", got)
		}
		if got := srv.CursorBytes(); got != 0 {
			t.Errorf("cursor bytes after soak: %d, want 0", got)
		}
	})
	// Nothing is reserved anywhere, read over the wire as a scraper would:
	// not in the global pool, and not in any tenant's pool (each of which
	// must exist — the load really ran on carved budgets).
	t.Run("pools_released", func(t *testing.T) {
		_, exposition := get(t, "http://"+addr+"/metrics")
		if got := metricValue(t, exposition, "calcite_memory_pool_used_bytes"); got != 0 {
			t.Errorf("calcite_memory_pool_used_bytes = %v after soak, want 0", got)
		}
		for i := 0; i < tenants; i++ {
			series := fmt.Sprintf("calcite_tenant_pool_used_bytes{tenant=%q}", tenantName(i))
			if got := metricValue(t, exposition, series); got != 0 {
				t.Errorf("%s = %v after soak, want 0", series, got)
			}
		}
	})
	// The repeated statements were served from the plan cache.
	t.Run("plan_cache_hit_share", func(t *testing.T) {
		cacheAfter := conn.Framework.PlanCache().Counters()
		hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
		if share := float64(hits) / float64(hits+misses); hits+misses == 0 || share < 0.9 {
			t.Errorf("plan-cache hit share %.3f over the soak (%d hits, %d misses), want >= 0.9", share, hits, misses)
		}
	})
	// Goroutine-leak canary under load: with the clients' idle connections
	// closed, the serving goroutines settle back near their pre-load count
	// while the server is still up.
	t.Run("goroutines_settle_after_load", func(t *testing.T) {
		waitGoroutines(t, "after load", loadBaseline+10)
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// After shutdown the count settles back to the pre-server baseline (plus
	// slack for runtime/netpoll helpers that linger).
	t.Run("goroutines_settle_after_shutdown", func(t *testing.T) {
		waitGoroutines(t, "after shutdown", baseline+3)
	})
}

// waitGoroutines waits up to five seconds for the goroutine count to drop to
// limit, failing with every goroutine's stack if it does not.
func waitGoroutines(t *testing.T, when string, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizers and idle-connection teardown
		now := runtime.NumGoroutine()
		if now <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked %s: %d, want <= %d\n%s", when, now, limit, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
