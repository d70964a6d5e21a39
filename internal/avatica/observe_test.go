package avatica_test

// Endpoint tests for the server's observability surface: /metrics,
// /debug/queries, /healthz, the pprof gate, and graceful shutdown.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"calcite"
	"calcite/internal/avatica"
	"calcite/internal/feedback"
	"calcite/internal/obs"
)

func startObsServer(t *testing.T, pprofOn bool) (string, *avatica.Server) {
	t.Helper()
	conn := calcite.Open()
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{int64(i), float64(i%100) / 3}
	}
	conn.AddTable("nums", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "val", Type: calcite.DoubleType},
	}, rows)
	conn.SetSlowQueryThreshold(time.Nanosecond, nil)
	srv := avatica.NewServer(conn.Framework)
	srv.EnablePprof = pprofOn
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop() })
	return addr, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	addr, _ := startObsServer(t, false)
	client := avatica.NewClient(addr)
	if _, err := client.Query("SELECT COUNT(*) FROM nums WHERE val > 1"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`calcite_queries_finished_total{status="ok"} 1`,
		`calcite_http_requests_total{code="200",route="/execute"} 1`,
		"calcite_http_request_seconds_bucket",
		"calcite_statements_live 0",
		"calcite_memory_pool_used_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}

	// A write appends rows without evicting the cached plan; ANALYZE evicts
	// it through the per-table funnel, not the whole-cache flush.
	appended := metricValue(t, out, "calcite_memtable_rows_appended_total")
	for _, sql := range []string{"INSERT INTO nums VALUES (500, 1.5)", "ANALYZE TABLE nums"} {
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	_, out = get(t, "http://"+addr+"/metrics")
	// The append counter is process-wide; other tests may insert meanwhile.
	if got := metricValue(t, out, "calcite_memtable_rows_appended_total"); got < appended+1 {
		t.Errorf("calcite_memtable_rows_appended_total = %v after an INSERT, was %v", got, appended)
	}
	if got := metricValue(t, out, "calcite_plan_cache_table_invalidations_total"); got != 1 {
		t.Errorf("calcite_plan_cache_table_invalidations_total = %v after ANALYZE, want 1", got)
	}
	if got := metricValue(t, out, "calcite_plan_cache_invalidations_total"); got != 0 {
		t.Errorf("calcite_plan_cache_invalidations_total = %v, want 0: neither INSERT nor ANALYZE flushes the cache", got)
	}
}

// metricValue returns the value of an unlabelled sample in a Prometheus text
// exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metrics missing %s\n%s", name, exposition)
	return 0
}

func TestDebugQueriesEndpoint(t *testing.T) {
	addr, _ := startObsServer(t, false)
	client := avatica.NewClient(addr)
	for _, sql := range []string{
		"SELECT id FROM nums WHERE id < 3",
		"SELECT val FROM nums ORDER BY val",
	} {
		if _, err := client.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	code, body := get(t, "http://"+addr+"/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp avatica.DebugQueriesResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Recent) != 2 || len(resp.Slow) != 2 {
		t.Fatalf("recent=%d slow=%d, want 2/2", len(resp.Recent), len(resp.Slow))
	}
	// Newest first, span tree present with the scanned row count.
	newest := resp.Recent[0]
	if !strings.Contains(newest.SQL, "ORDER BY") || newest.Spans == nil {
		t.Fatalf("newest trace wrong: %+v", newest)
	}
	if scan := findScan(newest.Spans); scan == nil || scan.Rows != 500 {
		t.Fatalf("scan span missing or wrong rows: %s", obs.RenderSpans(newest.Spans))
	}
	if resp.SlowThresholdMs <= 0 {
		t.Fatalf("slow threshold not reported: %v", resp.SlowThresholdMs)
	}

	// limit caps both lists; a bad limit is a 400.
	code, body = get(t, "http://"+addr+"/debug/queries?limit=1")
	if code != http.StatusOK {
		t.Fatalf("limit status = %d", code)
	}
	resp = avatica.DebugQueriesResponse{}
	json.Unmarshal([]byte(body), &resp)
	if len(resp.Recent) != 1 || len(resp.Slow) != 1 {
		t.Fatalf("limited recent=%d slow=%d, want 1/1", len(resp.Recent), len(resp.Slow))
	}
	if code, _ = get(t, "http://"+addr+"/debug/queries?limit=potato"); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", code)
	}
}

// TestDebugPlansBoundedByFeedbackStore: after more distinct statements than
// the feedback store keeps, /debug/plans lists at most its cap, the newest
// statement among them.
func TestDebugPlansBoundedByFeedbackStore(t *testing.T) {
	addr, _ := startObsServer(t, false)
	client := avatica.NewClient(addr)
	n := feedback.StatementCap + 40
	for i := 0; i < n; i++ {
		if _, err := client.Query(fmt.Sprintf("SELECT id AS c%d FROM nums WHERE id < 3", i)); err != nil {
			t.Fatal(err)
		}
	}
	code, body := get(t, "http://"+addr+"/debug/plans")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp avatica.DebugPlansResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	newest := false
	for _, p := range resp.Plans {
		newest = newest || strings.Contains(p.SQL, fmt.Sprintf("c%d ", n-1))
	}
	if len(resp.Plans) > feedback.StatementCap || !newest {
		t.Fatalf("/debug/plans lists %d statements (cap %d), newest present: %v", len(resp.Plans), feedback.StatementCap, newest)
	}
}

func findScan(s *obs.SpanStats) *obs.SpanStats {
	if s == nil {
		return nil
	}
	if strings.Contains(s.Name, "Scan") {
		return s
	}
	for _, c := range s.Children {
		if m := findScan(c); m != nil {
			return m
		}
	}
	return nil
}

func TestHealthz(t *testing.T) {
	addr, _ := startObsServer(t, false)
	code, body := get(t, "http://"+addr+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestPprofGated(t *testing.T) {
	addr, _ := startObsServer(t, false)
	if code, _ := get(t, "http://"+addr+"/debug/pprof/"); code == http.StatusOK {
		t.Fatal("pprof reachable without -pprof")
	}
	addr2, _ := startObsServer(t, true)
	code, body := get(t, "http://"+addr2+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index = %d", code)
	}
}

// TestGracefulShutdown: Shutdown drains and closes the listener; subsequent
// requests are refused.
func TestGracefulShutdown(t *testing.T) {
	conn := calcite.Open()
	conn.AddTable("t", calcite.Columns{{Name: "x", Type: calcite.BigIntType}},
		[][]any{{int64(1)}})
	srv := avatica.NewServer(conn.Framework)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatal("server not serving before shutdown")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}
