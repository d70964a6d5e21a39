// Package avatica implements the framework's remote driver, the analogue of
// Calcite's Avatica JDBC driver (§1: "Calcite includes a driver conforming
// to the standard Java API (JDBC)"). A Server exposes a framework instance
// over a JSON/HTTP protocol with prepare/execute/fetch/close semantics;
// Client is the matching database-driver-style client.
//
// The server is a concurrent serving tier, not a one-query-at-a-time shim:
//
//   - Repeated statements hit the framework's prepared-plan cache and skip
//     parse+optimize (see internal/core).
//   - Admission control (admission.go) bounds concurrent executions to a
//     multiple of the worker pool and queues the overflow FIFO with a
//     deadline; a saturated server answers 503 SERVER_BUSY.
//   - Each tenant (X-Calcite-Tenant header) executes against a child memory
//     pool carved from the global budget, so one tenant's spill storm cannot
//     starve another.
//   - Large results stream in fetch/offset frames: the server retains the
//     cursor remainder on the statement, charged against the tenant's pool
//     and bounded by the statement table's TTL/LRU eviction.
package avatica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/memory"
	"calcite/internal/types"
)

// --- wire protocol ---

// PrepareRequest asks the server to validate and register a statement.
type PrepareRequest struct {
	SQL string `json:"sql"`
}

// PrepareResponse returns the statement handle.
type PrepareResponse struct {
	StatementID int64    `json:"statementId"`
	Columns     []string `json:"columns,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// ExecuteRequest executes a prepared statement or a direct SQL string.
type ExecuteRequest struct {
	StatementID int64  `json:"statementId,omitempty"`
	SQL         string `json:"sql,omitempty"`
	Params      []any  `json:"params,omitempty"`
	// MaxRows truncates the result (0 = unlimited).
	MaxRows int `json:"maxRows,omitempty"`
	// FetchSize paginates the result: the response carries the first
	// FetchSize rows and the server retains the remainder as a cursor on
	// the statement (an implicit statement is created for direct SQL);
	// later frames come from /fetch. 0 returns everything at once.
	FetchSize int `json:"fetchSize,omitempty"`
}

// FetchRequest asks for the next frame of a paginated result.
type FetchRequest struct {
	StatementID int64 `json:"statementId"`
	// FetchSize is the frame size (<= 0 uses DefaultFetchSize).
	FetchSize int `json:"fetchSize,omitempty"`
}

// ExecuteResponse carries one result frame (the whole result when the
// request was unpaginated).
type ExecuteResponse struct {
	Columns     []string `json:"columns"`
	ColumnTypes []string `json:"columnTypes"`
	Rows        [][]any  `json:"rows"`
	Truncated   bool     `json:"truncated,omitempty"`
	// StatementID echoes the statement holding the cursor when More is set
	// (an implicit statement for direct SQL).
	StatementID int64 `json:"statementId,omitempty"`
	// Offset is this frame's first row index within the full result.
	Offset int `json:"offset,omitempty"`
	// More reports that the server retains further rows for /fetch.
	More  bool   `json:"more,omitempty"`
	Error string `json:"error,omitempty"`
	// Code classifies retryable errors (today: SERVER_BUSY).
	Code      string  `json:"code,omitempty"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// CloseRequest releases a prepared statement (and its retained cursor).
type CloseRequest struct {
	StatementID int64 `json:"statementId"`
}

// CancelRequest interrupts the statement's in-flight execution (if any) and
// releases its retained cursor. The statement itself stays prepared.
type CancelRequest struct {
	StatementID int64 `json:"statementId"`
}

// CodeServerBusy is the wire code of an admission rejection (HTTP 503).
const CodeServerBusy = "SERVER_BUSY"

// CodeCanceled is the wire code of an interrupted execution.
const CodeCanceled = "CANCELED"

// --- server ---

// Statement-table bounds: long-running servers must not leak prepared
// statements whose clients never close them, so the table is bounded two
// ways — idle statements expire after a TTL, and the table has a hard size
// cap with least-recently-used eviction. Eviction runs the same cleanup as
// an explicit close (cursor memory returns to its pool). A well-behaved
// client that prepares, executes, fetches and closes never notices either
// bound.
const (
	// DefaultStatementTTL is how long an unused prepared statement survives.
	DefaultStatementTTL = 15 * time.Minute
	// DefaultMaxStatements caps the statement table size.
	DefaultMaxStatements = 1024
	// DefaultFetchSize is the /fetch frame size when the request leaves it 0.
	DefaultFetchSize = 1024
)

// cursor is the retained remainder of a paginated result. Its rows are
// charged against pool (the tenant's budget) until the cursor is drained,
// the statement is closed, or the statement is evicted.
type cursor struct {
	columns  []string
	colTypes []string
	rows     [][]any
	offset   int // next row to serve
	charged  int64
	pool     *memory.Pool
}

// stmtEntry is one prepared statement with its last-use time and, when a
// paginated execute ran on it, the retained cursor.
type stmtEntry struct {
	sql      string
	lastUsed time.Time
	cursor   *cursor
	// running is the interrupt flag of the statement's in-flight execution
	// (nil when idle); /cancel sets it and the engine's drain loops and
	// streaming operators fail with exec.ErrCanceled.
	running *atomic.Bool
}

// Server serves a Framework over HTTP.
type Server struct {
	fw *core.Framework

	// StatementTTL evicts statements idle longer than this (<= 0 uses
	// DefaultStatementTTL). Set before Start.
	StatementTTL time.Duration
	// MaxStatements caps the statement table (<= 0 uses
	// DefaultMaxStatements).
	MaxStatements int
	// MaxConcurrent bounds simultaneously executing statements (<= 0 sizes
	// it from the worker pool: 2 × parallelism, execution being a mix of
	// CPU work and response serialization). Set before Handler/Start.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue (< 0 disables queueing;
	// 0 uses DefaultQueueFactor × MaxConcurrent). Set before Handler/Start.
	MaxQueue int
	// QueueTimeout bounds how long a request waits for an execution slot
	// (<= 0 uses DefaultQueueTimeout). Set before Handler/Start.
	QueueTimeout time.Duration
	// TenantMemoryLimit caps each tenant's child memory pool in bytes
	// (0 = tenants are accounted separately but bounded only by the global
	// pool). Set before Handler/Start.
	TenantMemoryLimit int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints expose internals and cost CPU). Set
	// before Handler/Start.
	EnablePprof bool

	// Statement-table eviction counters, sampled by the metrics registry.
	evictedTTL atomic.Int64
	evictedLRU atomic.Int64
	// cursorBytes tracks memory currently charged for retained cursors.
	cursorBytes atomic.Int64

	// adm is the admission controller, built once in Handler.
	adm     *admission
	admOnce sync.Once

	// tenantMu guards the lazily created per-tenant child pools.
	tenantMu sync.Mutex
	tenants  map[string]*memory.Pool

	// now is the clock, swappable in tests.
	now func() time.Time

	mu      sync.Mutex
	nextID  int64
	stmts   map[int64]*stmtEntry
	httpSrv *http.Server
	addr    string
}

// NewServer wraps a framework.
func NewServer(fw *core.Framework) *Server {
	return &Server{fw: fw, stmts: map[int64]*stmtEntry{}, tenants: map[string]*memory.Pool{}, now: time.Now}
}

func (s *Server) statementTTL() time.Duration {
	if s.StatementTTL > 0 {
		return s.StatementTTL
	}
	return DefaultStatementTTL
}

func (s *Server) maxStatements() int {
	if s.MaxStatements > 0 {
		return s.MaxStatements
	}
	return DefaultMaxStatements
}

// admission returns the admission controller, building it on first use from
// the server's bounds (or the worker-pool-derived defaults).
func (s *Server) admission() *admission {
	s.admOnce.Do(func() {
		max := s.MaxConcurrent
		if max <= 0 {
			max = 2 * s.fw.EffectiveParallelism()
		}
		queue := s.MaxQueue
		switch {
		case queue < 0:
			queue = 0
		case queue == 0:
			queue = DefaultQueueFactor * max
		}
		s.adm = newAdmission(max, queue, s.QueueTimeout)
	})
	return s.adm
}

// tenantPool returns the tenant's child memory pool, carving it from the
// global pool on first use. The empty tenant draws from the global pool
// directly.
func (s *Server) tenantPool(tenant string) *memory.Pool {
	if tenant == "" {
		return nil
	}
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	p, ok := s.tenants[tenant]
	if !ok {
		p = memory.NewChildPool(s.fw.MemoryPool(), s.TenantMemoryLimit)
		s.tenants[tenant] = p
		s.registerTenantMetrics(tenant, p)
	}
	return p
}

// dropLocked removes a statement, running the full cleanup path: the
// retained cursor's memory returns to its pool. Explicit close, TTL expiry,
// LRU eviction and shutdown all funnel through here — eviction must never
// leak what close would have released.
func (s *Server) dropLocked(id int64) {
	e, ok := s.stmts[id]
	if !ok {
		return
	}
	s.releaseCursor(e)
	delete(s.stmts, id)
}

// releaseCursor returns a statement's retained cursor memory to its pool.
func (s *Server) releaseCursor(e *stmtEntry) {
	if e.cursor == nil {
		return
	}
	e.cursor.pool.Release(e.cursor.charged)
	s.cursorBytes.Add(-e.cursor.charged)
	e.cursor = nil
}

// evictLocked enforces the statement-table bounds (caller holds s.mu):
// expired entries go first; if the table is still at capacity, the least
// recently used entry is evicted to make room for one more.
func (s *Server) evictLocked() {
	deadline := s.now().Add(-s.statementTTL())
	for id, e := range s.stmts {
		if e.lastUsed.Before(deadline) {
			s.dropLocked(id)
			s.evictedTTL.Add(1)
		}
	}
	for len(s.stmts) >= s.maxStatements() {
		var oldest int64
		var oldestAt time.Time
		first := true
		for id, e := range s.stmts {
			if first || e.lastUsed.Before(oldestAt) {
				oldest, oldestAt, first = id, e.lastUsed, false
			}
		}
		s.dropLocked(oldest)
		s.evictedLRU.Add(1)
	}
}

// StatementCount reports the current statement-table size (tests,
// monitoring).
func (s *Server) StatementCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stmts)
}

// CursorBytes reports the memory currently retained by open cursors.
func (s *Server) CursorBytes() int64 { return s.cursorBytes.Load() }

// closeAllStatements drops every statement (shutdown: cursors must not
// outlive the server).
func (s *Server) closeAllStatements() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.stmts {
		s.dropLocked(id)
	}
}

// Handler returns the HTTP handler (also usable without a listener): the
// wire-protocol endpoints plus the observability surface (/metrics,
// /debug/queries, /healthz, and /debug/pprof/ when enabled), all wrapped in
// per-route request metrics.
func (s *Server) Handler() http.Handler {
	s.registerServerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/execute", s.handleExecute)
	mux.HandleFunc("/fetch", s.handleFetch)
	mux.HandleFunc("/cancel", s.handleCancel)
	mux.HandleFunc("/close", s.handleClose)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/plans", s.handleDebugPlans)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.EnablePprof {
		mountPprof(mux)
	}
	return s.instrument(mux)
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves in
// the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.addr = ln.Addr().String()
	go s.httpSrv.Serve(ln)
	return s.addr, nil
}

// Stop shuts the server down immediately, dropping in-flight requests and
// releasing every statement's resources.
func (s *Server) Stop() error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Close()
	}
	s.closeAllStatements()
	return err
}

// Shutdown drains the server gracefully: the listener closes at once,
// in-flight requests run to completion until ctx expires, then every
// statement's resources are released.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.closeAllStatements()
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSONStatus writes v with an explicit HTTP status (503 for admission
// rejections, so load balancers and clients can tell "busy" from "broken").
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, PrepareResponse{Error: err.Error()})
		return
	}
	s.mu.Lock()
	s.evictLocked()
	s.nextID++
	id := s.nextID
	s.stmts[id] = &stmtEntry{sql: req.SQL, lastUsed: s.now()}
	s.mu.Unlock()
	writeJSON(w, PrepareResponse{StatementID: id})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, ExecuteResponse{Error: err.Error()})
		return
	}
	// Admission: claim an execution slot (FIFO queue, bounded wait) before
	// touching the engine. Saturation is a clean 503, never a goroutine
	// pile-up.
	if err := s.admission().acquire(r.Context()); err != nil {
		if errors.Is(err, ErrServerBusy) {
			writeJSONStatus(w, http.StatusServiceUnavailable,
				ExecuteResponse{Error: err.Error(), Code: CodeServerBusy})
		} else {
			// Client went away while queued; the response is best-effort.
			writeJSONStatus(w, http.StatusServiceUnavailable,
				ExecuteResponse{Error: err.Error()})
		}
		return
	}
	defer s.admission().release()

	sql := req.SQL
	interrupt := &atomic.Bool{}
	if req.StatementID != 0 {
		s.mu.Lock()
		stored, ok := s.stmts[req.StatementID]
		if ok {
			stored.lastUsed = s.now() // touch: execution keeps a statement live
			stored.running = interrupt
			sql = stored.sql
		}
		s.mu.Unlock()
		if !ok {
			writeJSON(w, ExecuteResponse{Error: fmt.Sprintf("unknown statement %d (closed or evicted)", req.StatementID)})
			return
		}
		defer func() {
			s.mu.Lock()
			if e, ok := s.stmts[req.StatementID]; ok && e.running == interrupt {
				e.running = nil
			}
			s.mu.Unlock()
		}()
	}
	// A client disconnect interrupts the execution: a continuous query whose
	// consumer went away must not keep accumulating window state.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-r.Context().Done():
			interrupt.Store(true)
		case <-watchDone:
		}
	}()
	defer close(watchDone)
	params := make([]any, len(req.Params))
	for i, p := range req.Params {
		params[i] = normalizeJSON(p)
	}
	pool := s.tenantPool(r.Header.Get(TenantHeader))
	start := time.Now()
	res, err := s.fw.ExecuteOpts(sql, core.ExecOptions{Params: params, Pool: pool, Interrupt: interrupt})
	if err != nil {
		if errors.Is(err, exec.ErrCanceled) {
			writeJSON(w, ExecuteResponse{Error: err.Error(), Code: CodeCanceled})
			return
		}
		writeJSON(w, ExecuteResponse{Error: err.Error()})
		return
	}
	rows := res.Rows
	truncated := false
	if req.MaxRows > 0 && len(rows) > req.MaxRows {
		rows = rows[:req.MaxRows]
		truncated = true
	}
	colTypes := columnTypes(res.Columns, rows)
	resp := ExecuteResponse{
		Columns:     res.Columns,
		ColumnTypes: colTypes,
		Rows:        rows,
		Truncated:   truncated,
		ElapsedMs:   float64(time.Since(start).Microseconds()) / 1000,
	}
	if req.FetchSize > 0 && len(rows) > req.FetchSize {
		if err := s.retainCursor(req.StatementID, sql, pool, &resp, req.FetchSize); err != nil {
			writeJSON(w, ExecuteResponse{Error: err.Error()})
			return
		}
	}
	writeJSON(w, resp)
}

// retainCursor stores the remainder of a paginated result as a server-side
// cursor on the statement (creating an implicit statement for direct SQL),
// charging the retained rows to the tenant's pool. The response is trimmed
// to the first frame in place.
func (s *Server) retainCursor(stmtID int64, sql string, pool *memory.Pool, resp *ExecuteResponse, fetchSize int) error {
	charge := int64(0)
	for _, row := range resp.Rows {
		charge += types.SizeOfRow(row)
	}
	chargePool := pool
	if chargePool == nil {
		chargePool = s.fw.MemoryPool()
	}
	if err := chargePool.Reserve(charge); err != nil {
		return fmt.Errorf("cannot retain cursor (%d rows): %v", len(resp.Rows), err)
	}
	cur := &cursor{
		columns:  resp.Columns,
		colTypes: resp.ColumnTypes,
		rows:     resp.Rows,
		offset:   fetchSize,
		charged:  charge,
		pool:     chargePool,
	}
	s.mu.Lock()
	s.evictLocked()
	id := stmtID
	if id == 0 {
		s.nextID++
		id = s.nextID
		s.stmts[id] = &stmtEntry{sql: sql, lastUsed: s.now()}
	}
	e, ok := s.stmts[id]
	if !ok {
		// The statement was evicted between execute and retention; the
		// cursor has nowhere to live.
		s.mu.Unlock()
		chargePool.Release(charge)
		return fmt.Errorf("statement %d evicted before cursor retention", id)
	}
	s.releaseCursor(e) // a re-execute replaces any previous cursor
	e.cursor = cur
	e.lastUsed = s.now()
	s.mu.Unlock()
	s.cursorBytes.Add(charge)

	resp.Rows = resp.Rows[:fetchSize]
	resp.StatementID = id
	resp.More = true
	resp.Offset = 0
	return nil
}

func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	var req FetchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, ExecuteResponse{Error: err.Error()})
		return
	}
	n := req.FetchSize
	if n <= 0 {
		n = DefaultFetchSize
	}
	s.mu.Lock()
	e, ok := s.stmts[req.StatementID]
	if !ok || e.cursor == nil {
		s.mu.Unlock()
		writeJSON(w, ExecuteResponse{Error: fmt.Sprintf("no open cursor on statement %d (closed, evicted or drained)", req.StatementID)})
		return
	}
	e.lastUsed = s.now()
	cur := e.cursor
	startRow := cur.offset
	end := startRow + n
	if end > len(cur.rows) {
		end = len(cur.rows)
	}
	frame := cur.rows[startRow:end]
	cur.offset = end
	more := end < len(cur.rows)
	resp := ExecuteResponse{
		Columns:     cur.columns,
		ColumnTypes: cur.colTypes,
		Rows:        frame,
		StatementID: req.StatementID,
		Offset:      startRow,
		More:        more,
	}
	if !more {
		// Drained: the cursor's memory goes back to its pool at once; the
		// statement itself stays prepared.
		s.releaseCursor(e)
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleCancel interrupts a statement's in-flight execution and releases its
// retained cursor; the statement stays prepared. Canceling an idle statement
// only drops the cursor.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req CancelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, map[string]string{"error": err.Error()})
		return
	}
	s.mu.Lock()
	e, ok := s.stmts[req.StatementID]
	interrupted := false
	if ok {
		if e.running != nil {
			e.running.Store(true)
			interrupted = true
		}
		s.releaseCursor(e)
		e.lastUsed = s.now()
	}
	s.mu.Unlock()
	writeJSON(w, map[string]bool{"canceled": ok, "interrupted": interrupted})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	var req CloseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, map[string]string{"error": err.Error()})
		return
	}
	s.mu.Lock()
	s.dropLocked(req.StatementID)
	s.mu.Unlock()
	writeJSON(w, map[string]bool{"closed": true})
}

// columnTypes derives the wire type tags from the first non-nil value of
// each column (scanning past leading NULLs, so a NULL in row 0 does not
// untype the column). A column that starts with a BIGINT but also holds a
// DOUBLE is tagged float64: a DOUBLE column may hold BIGINT values, and
// tagged int64 the client would truncate every fraction after the first.
func columnTypes(columns []string, rows [][]any) []string {
	colTypes := make([]string, len(columns))
	for i := range colTypes {
		for r, row := range rows {
			if i < len(row) && row[i] != nil {
				colTypes[i] = fmt.Sprintf("%T", row[i])
				if colTypes[i] == "int64" && holdsFloat(rows[r:], i) {
					colTypes[i] = "float64"
				}
				break
			}
		}
	}
	return colTypes
}

// holdsFloat reports whether column col of rows holds a float64.
func holdsFloat(rows [][]any, col int) bool {
	for _, row := range rows {
		if col < len(row) {
			if _, ok := row[col].(float64); ok {
				return true
			}
		}
	}
	return false
}

// normalizeJSON converts decoded JSON values to engine runtime values
// (JSON numbers arrive as float64; integral ones become int64).
func normalizeJSON(v any) any {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x)
		}
		return x
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = normalizeJSON(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = normalizeJSON(e)
		}
		return out
	}
	return v
}

// --- client ---

// TenantHeader names the HTTP header that routes a request to a tenant's
// memory budget.
const TenantHeader = "X-Calcite-Tenant"

// Client talks to an avatica Server.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Tenant, when set, is sent as the X-Calcite-Tenant header: the server
	// runs this client's queries against that tenant's memory budget.
	Tenant string
}

// NewClient creates a client for the given address ("host:port").
func NewClient(addr string) *Client {
	return &Client{BaseURL: "http://" + addr, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		httpReq.Header.Set(TenantHeader, c.Tenant)
	}
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// Prepare registers a statement and returns its handle.
func (c *Client) Prepare(sql string) (int64, error) {
	var resp PrepareResponse
	if err := c.post("/prepare", PrepareRequest{SQL: sql}, &resp); err != nil {
		return 0, err
	}
	if resp.Error != "" {
		return 0, fmt.Errorf("avatica: %s", resp.Error)
	}
	return resp.StatementID, nil
}

// respError converts a response's error fields into a Go error, mapping
// SERVER_BUSY onto ErrServerBusy so callers can retry with backoff.
func respError(resp *ExecuteResponse) error {
	if resp.Error == "" {
		return nil
	}
	if resp.Code == CodeServerBusy {
		return fmt.Errorf("avatica: %s: %w", resp.Error, ErrServerBusy)
	}
	return fmt.Errorf("avatica: %s", resp.Error)
}

// Do executes an arbitrary ExecuteRequest (the general form behind Query and
// Execute; the soak and the differential suites drive pagination through it).
func (c *Client) Do(req ExecuteRequest) (*ExecuteResponse, error) {
	var resp ExecuteResponse
	if err := c.post("/execute", req, &resp); err != nil {
		return nil, err
	}
	if err := respError(&resp); err != nil {
		return nil, err
	}
	normalizeRows(&resp)
	return &resp, nil
}

// Query executes SQL directly.
func (c *Client) Query(sql string, params ...any) (*ExecuteResponse, error) {
	return c.Do(ExecuteRequest{SQL: sql, Params: params})
}

// Execute runs a prepared statement.
func (c *Client) Execute(statementID int64, params ...any) (*ExecuteResponse, error) {
	return c.Do(ExecuteRequest{StatementID: statementID, Params: params})
}

// Fetch retrieves the next frame of a paginated result (fetchSize <= 0 uses
// the server default).
func (c *Client) Fetch(statementID int64, fetchSize int) (*ExecuteResponse, error) {
	var resp ExecuteResponse
	if err := c.post("/fetch", FetchRequest{StatementID: statementID, FetchSize: fetchSize}, &resp); err != nil {
		return nil, err
	}
	if err := respError(&resp); err != nil {
		return nil, err
	}
	normalizeRows(&resp)
	return &resp, nil
}

// Cancel interrupts a statement's in-flight execution and releases its
// retained cursor; the statement stays prepared.
func (c *Client) Cancel(statementID int64) error {
	var resp map[string]any
	return c.post("/cancel", CancelRequest{StatementID: statementID}, &resp)
}

// Close releases a prepared statement.
func (c *Client) Close(statementID int64) error {
	var resp map[string]any
	return c.post("/close", CloseRequest{StatementID: statementID}, &resp)
}

// normalizeRows converts JSON-decoded cell values back to runtime types
// using the server-reported column types: int64 columns are restored from
// JSON numbers, float64 columns stay floats even when a value is integral.
func normalizeRows(resp *ExecuteResponse) {
	for _, row := range resp.Rows {
		for i, v := range row {
			colType := ""
			if i < len(resp.ColumnTypes) {
				colType = resp.ColumnTypes[i]
			}
			switch colType {
			case "int64":
				if iv, ok := types.AsFloat(v); ok {
					row[i] = int64(iv)
					continue
				}
			case "float64":
				if _, ok := v.(float64); ok {
					continue
				}
			}
			row[i] = normalizeJSON(v)
		}
	}
}
