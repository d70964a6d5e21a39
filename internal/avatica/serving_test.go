package avatica

// Serving-tier tests (internal: they drive the server clock, inspect pools
// and pre-claim admission slots): pagination frames, the eviction-releases-
// cursor regression, SERVER_BUSY wiring and per-tenant budgets.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"calcite/internal/core"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// servingFramework builds a framework with a small "t" table of n rows.
func servingFramework(n int) *core.Framework {
	fw := core.New()
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), fmt.Sprintf("row-%04d", i)}
	}
	fw.Catalog.AddTable(schema.NewMemTable("t",
		types.Row(
			types.Field{Name: "id", Type: types.BigInt.WithNullable(true)},
			types.Field{Name: "name", Type: types.Varchar.WithNullable(true)},
		), rows))
	return fw
}

// post drives one handler with a JSON body and returns the freshly decoded
// response (a new struct per call: JSON omits empty fields, so decoding into
// a reused struct would leak stale values between calls).
func post(t *testing.T, h http.HandlerFunc, path, body string, header ...string) (*ExecuteResponse, int) {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", path, strings.NewReader(body))
	for i := 0; i+1 < len(header); i += 2 {
		r.Header.Set(header[i], header[i+1])
	}
	h(w, r)
	var resp ExecuteResponse
	decode(t, w.Body.Bytes(), &resp)
	return &resp, w.Result().StatusCode
}

func TestPaginationFrames(t *testing.T) {
	fw := servingFramework(10)
	srv := NewServer(fw)

	first, _ := post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id, name FROM t ORDER BY id","fetchSize":3}`)
	if first.Error != "" {
		t.Fatal(first.Error)
	}
	if len(first.Rows) != 3 || !first.More || first.StatementID == 0 || first.Offset != 0 {
		t.Fatalf("first frame wrong: rows=%d more=%v id=%d offset=%d",
			len(first.Rows), first.More, first.StatementID, first.Offset)
	}
	if srv.CursorBytes() == 0 {
		t.Fatal("retained cursor should be charged")
	}
	if fw.MemoryPool().Used() == 0 {
		t.Fatal("cursor charge should land in the memory pool")
	}

	// Drain the cursor in frames of 3: offsets 3, 6, 9; 10 rows total.
	got := len(first.Rows)
	wantOffsets := []int{3, 6, 9}
	for i, wantOff := range wantOffsets {
		frame, _ := post(t, srv.handleFetch, "/fetch",
			fmt.Sprintf(`{"statementId":%d,"fetchSize":3}`, first.StatementID))
		if frame.Error != "" {
			t.Fatalf("fetch %d: %s", i, frame.Error)
		}
		if frame.Offset != wantOff {
			t.Fatalf("fetch %d offset = %d, want %d", i, frame.Offset, wantOff)
		}
		got += len(frame.Rows)
		last := i == len(wantOffsets)-1
		if frame.More == last {
			t.Fatalf("fetch %d more = %v", i, frame.More)
		}
	}
	if got != 10 {
		t.Fatalf("accumulated %d rows, want 10", got)
	}
	// Drained: the charge is gone, the statement survives.
	if srv.CursorBytes() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("drained cursor still charged: cursor=%d pool=%d",
			srv.CursorBytes(), fw.MemoryPool().Used())
	}
	again, _ := post(t, srv.handleFetch, "/fetch",
		fmt.Sprintf(`{"statementId":%d}`, first.StatementID))
	if again.Error == "" || !strings.Contains(again.Error, "no open cursor") {
		t.Fatalf("fetch past the end should fail, got %q", again.Error)
	}
}

// TestEvictionReleasesCursorMemory is the regression for the serving tier's
// nastiest leak: statement-table eviction (TTL and LRU both) must release a
// retained cursor through the same cleanup path as an explicit close.
func TestEvictionReleasesCursorMemory(t *testing.T) {
	fw := servingFramework(50)
	srv := NewServer(fw)
	srv.StatementTTL = 10 * time.Minute
	clock := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	srv.now = func() time.Time { return clock }

	resp, _ := post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id, name FROM t ORDER BY id","fetchSize":5}`)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if srv.CursorBytes() == 0 || fw.MemoryPool().Used() == 0 {
		t.Fatal("cursor should be charged before eviction")
	}

	// TTL eviction: 11 idle minutes later a prepare sweeps the statement.
	clock = clock.Add(11 * time.Minute)
	prepareReq(t, srv, "SELECT 1")
	if got := srv.StatementCount(); got != 1 {
		t.Fatalf("statement count = %d, want 1 (cursor statement TTL-evicted)", got)
	}
	if srv.CursorBytes() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("TTL eviction leaked cursor memory: cursor=%d pool=%d",
			srv.CursorBytes(), fw.MemoryPool().Used())
	}

	// LRU eviction: cap the table at 2 and push the cursor statement out.
	srv.MaxStatements = 2
	resp, _ = post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id, name FROM t ORDER BY id","fetchSize":5}`)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if srv.CursorBytes() == 0 {
		t.Fatal("second cursor should be charged")
	}
	for i := 0; i < 3; i++ {
		clock = clock.Add(time.Second)
		prepareReq(t, srv, fmt.Sprintf("SELECT %d", i))
	}
	if srv.CursorBytes() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("LRU eviction leaked cursor memory: cursor=%d pool=%d",
			srv.CursorBytes(), fw.MemoryPool().Used())
	}

	// Shutdown releases whatever is still held.
	resp, _ = post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id, name FROM t ORDER BY id","fetchSize":5}`)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if srv.StatementCount() != 0 || srv.CursorBytes() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("shutdown leaked: stmts=%d cursor=%d pool=%d",
			srv.StatementCount(), srv.CursorBytes(), fw.MemoryPool().Used())
	}
}

// TestExecuteServerBusy checks the saturation contract: with the only
// execution slot taken and no wait queue, /execute answers at once with HTTP
// 503 and code SERVER_BUSY, through the handler and over the wire, where the
// client's error wraps ErrServerBusy. Every rejection is a full-queue one: a
// request that queued and timed out would carry the same code, later.
func TestExecuteServerBusy(t *testing.T) {
	fw := servingFramework(5)
	srv := NewServer(fw)
	srv.MaxConcurrent = 1
	srv.MaxQueue = -1 // no queue: saturation answers immediately
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	const query = `{"sql":"SELECT id FROM t"}`

	// Claim the only slot, as a long query would.
	if err := srv.admission().acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, status := post(t, srv.handleExecute, "/execute", query)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if resp.Code != CodeServerBusy || resp.Error == "" {
		t.Fatalf("busy response = %+v, want code SERVER_BUSY", resp)
	}

	// Over the wire: the client surfaces ErrServerBusy, and the raw
	// response is a 503 carrying SERVER_BUSY.
	client := NewClient(addr)
	if _, err := client.Query("SELECT id FROM t"); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("client error = %v, want one wrapping ErrServerBusy", err)
	}
	raw, err := http.Post("http://"+addr+"/execute", "application/json", strings.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(raw.Body)
	raw.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var wire ExecuteResponse
	decode(t, body, &wire)
	if raw.StatusCode != http.StatusServiceUnavailable || wire.Code != CodeServerBusy {
		t.Fatalf("wire busy response: status %d, code %q, want 503 SERVER_BUSY", raw.StatusCode, wire.Code)
	}
	if full, timedOut := srv.admission().rejectedFull.Load(), srv.admission().rejectedTimeout.Load(); full != 3 || timedOut != 0 {
		t.Fatalf("rejections: %d queue full, %d timed out; want 3 and 0", full, timedOut)
	}
	srv.admission().release()

	// With the slot free the same request succeeds, over the wire too.
	resp, status = post(t, srv.handleExecute, "/execute", query)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("after release: status=%d err=%q", status, resp.Error)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(resp.Rows))
	}
	if got, err := client.Query("SELECT id FROM t"); err != nil || len(got.Rows) != 5 {
		t.Fatalf("wire query after release: %v", err)
	}
}

func TestTenantBudgets(t *testing.T) {
	fw := servingFramework(4000)
	fw.SetMemoryLimit(64 << 20)
	fw.DisableSpill = true // budget overruns fail loudly instead of spilling
	srv := NewServer(fw)
	srv.TenantMemoryLimit = 16 << 10 // 16 KiB: far below the sort's need

	const sortAll = `{"sql":"SELECT id, name FROM t ORDER BY name"}`

	// A tenant is confined to its carved budget: the big sort cannot fit.
	resp, _ := post(t, srv.handleExecute, "/execute", sortAll, TenantHeader, "acme")
	if resp.Error == "" || !strings.Contains(resp.Error, "memory") {
		t.Fatalf("tenant-budgeted sort should exceed 16KiB, got err=%q rows=%d",
			resp.Error, len(resp.Rows))
	}
	// The failed grant rolled back: neither the tenant pool nor the global
	// pool retains a charge.
	srv.tenantMu.Lock()
	acme := srv.tenants["acme"]
	srv.tenantMu.Unlock()
	if acme == nil {
		t.Fatal("tenant pool was never carved")
	}
	if acme.Used() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("failed query left charges: tenant=%d global=%d",
			acme.Used(), fw.MemoryPool().Used())
	}
	if acme.Counters().Denials == 0 {
		t.Fatal("tenant budget denial not counted")
	}

	// The same query without a tenant header draws on the global pool and
	// succeeds.
	resp, _ = post(t, srv.handleExecute, "/execute", sortAll)
	if resp.Error != "" {
		t.Fatalf("untenanted sort: %s", resp.Error)
	}
	if len(resp.Rows) != 4000 {
		t.Fatalf("rows = %d, want 4000", len(resp.Rows))
	}

	// A small query fits the tenant budget; its release flows back up.
	resp, _ = post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id FROM t WHERE id < 5 ORDER BY id"}`, TenantHeader, "acme")
	if resp.Error != "" {
		t.Fatalf("small tenant query: %s", resp.Error)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(resp.Rows))
	}
	if acme.Used() != 0 || fw.MemoryPool().Used() != 0 {
		t.Fatalf("tenant query leaked: tenant=%d global=%d", acme.Used(), fw.MemoryPool().Used())
	}

	// Tenants are isolated pools: a second tenant gets its own budget.
	resp, _ = post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT COUNT(*) FROM t"}`, TenantHeader, "globex")
	if resp.Error != "" {
		t.Fatalf("second tenant: %s", resp.Error)
	}
	srv.tenantMu.Lock()
	nTenants := len(srv.tenants)
	srv.tenantMu.Unlock()
	if nTenants != 2 {
		t.Fatalf("tenant pools = %d, want 2", nTenants)
	}
}

// TestPaginationRespectsMaxRows checks the two limits compose: MaxRows
// truncates first, FetchSize paginates the truncated result.
func TestPaginationRespectsMaxRows(t *testing.T) {
	fw := servingFramework(20)
	srv := NewServer(fw)
	resp, _ := post(t, srv.handleExecute, "/execute",
		`{"sql":"SELECT id FROM t ORDER BY id","maxRows":7,"fetchSize":4}`)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if len(resp.Rows) != 4 || !resp.More || !resp.Truncated {
		t.Fatalf("first frame: rows=%d more=%v truncated=%v", len(resp.Rows), resp.More, resp.Truncated)
	}
	frame, _ := post(t, srv.handleFetch, "/fetch",
		fmt.Sprintf(`{"statementId":%d,"fetchSize":4}`, resp.StatementID))
	if frame.Error != "" || len(frame.Rows) != 3 || frame.More {
		t.Fatalf("second frame: err=%q rows=%d more=%v", frame.Error, len(frame.Rows), frame.More)
	}
}

// TestColumnTypesSkipLeadingNulls pins the wire-typing fix: a NULL in the
// first row must not untype the column for every later row.
func TestColumnTypesSkipLeadingNulls(t *testing.T) {
	fw := core.New()
	fw.Catalog.AddTable(schema.NewMemTable("n",
		types.Row(
			types.Field{Name: "k", Type: types.BigInt.WithNullable(true)},
			types.Field{Name: "v", Type: types.BigInt.WithNullable(true)},
		),
		[][]any{{int64(1), nil}, {int64(2), int64(7)}}))
	srv := NewServer(fw)
	resp, _ := post(t, srv.handleExecute, "/execute", `{"sql":"SELECT v FROM n ORDER BY k"}`)
	if resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp.ColumnTypes[0] != "int64" {
		t.Fatalf("column type = %q, want int64 (derived past the leading NULL)", resp.ColumnTypes[0])
	}
}
