// Command avaticasrv serves a framework instance over the Avatica-style
// JSON/HTTP protocol (the remote-driver deployment of Table 1), with the
// observability surface mounted alongside the wire protocol:
//
//	/metrics        Prometheus text exposition
//	/debug/queries  recent + slow query traces as JSON
//	/debug/plans    plan-quality reports: est/actual/q-error per operator
//	/healthz        load-balancer probe
//	/debug/pprof/   Go profiling endpoints (only with -pprof)
//
// Usage:
//
//	avaticasrv -addr 127.0.0.1:8765 [-csv dir] [-mem 64MB] [-querymem 16MB]
//	           [-tenantmem 8MB] [-maxconcurrent 16] [-maxqueue 64]
//	           [-queuetimeout 5s] [-slowquery 250ms] [-pprof] [-demorows 50000]
//
// Then POST {"sql": "SELECT ..."} to /execute. Requests carrying an
// X-Calcite-Tenant header execute against that tenant's memory budget
// (-tenantmem); saturation beyond -maxconcurrent running plus -maxqueue
// queued requests answers 503 SERVER_BUSY. SIGINT/SIGTERM drain in-flight
// requests for up to 10 seconds before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"calcite"
	"calcite/internal/adapter/csvfile"
	"calcite/internal/avatica"
	"calcite/internal/memory"
)

// drainTimeout bounds graceful shutdown: in-flight requests get this long
// to finish after the listener closes.
const drainTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8765", "listen address")
	csvDir := flag.String("csv", "", "directory of CSV files to serve as schema 'csv'")
	mem := flag.String("mem", "", "execution-memory budget, e.g. 64MB (empty = unlimited); operators spill beyond it")
	queryMem := flag.String("querymem", "", "per-query memory cap, e.g. 16MB (empty = bounded by -mem only)")
	slowQuery := flag.Duration("slowquery", 0, "slow-query threshold, e.g. 250ms (0 = disabled); slow queries are logged as JSON lines on stderr and kept in /debug/queries")
	tenantMem := flag.String("tenantmem", "", "per-tenant memory budget, e.g. 8MB (empty = tenants bounded by -mem only)")
	maxConcurrent := flag.Int("maxconcurrent", 0, "concurrent query executions (0 = 2 x parallelism)")
	maxQueue := flag.Int("maxqueue", 0, "admission wait-queue depth (0 = 4 x maxconcurrent, -1 = no queue)")
	queueTimeout := flag.Duration("queuetimeout", 0, "max wait for an execution slot (0 = 5s)")
	pprofOn := flag.Bool("pprof", false, "mount Go profiling endpoints under /debug/pprof/")
	demoRows := flag.Int("demorows", 2, "rows in the built-in demo table (large values make governed queries spill)")
	fbOn := flag.Bool("feedback", true, "harvest actual row counts from each execution and re-plan drifted statements with corrected cardinalities (see /debug/plans)")
	flag.Parse()

	conn, err := calcite.OpenChecked()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *mem != "" {
		n, err := memory.ParseBytes(*mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		conn.SetMemoryLimit(n)
	}
	if *queryMem != "" {
		n, err := memory.ParseBytes(*queryMem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		conn.SetQueryMemoryLimit(n)
	}
	if *slowQuery > 0 {
		conn.SetSlowQueryThreshold(*slowQuery, os.Stderr)
	}
	conn.EnableFeedback(*fbOn)
	if *csvDir != "" {
		a, err := csvfile.Load("csv", *csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		conn.RegisterAdapter(a)
	}
	loadDemo(conn, *demoRows)

	srv := avatica.NewServer(conn.Framework)
	srv.EnablePprof = *pprofOn
	srv.MaxConcurrent = *maxConcurrent
	srv.MaxQueue = *maxQueue
	srv.QueueTimeout = *queueTimeout
	if *tenantMem != "" {
		n, err := memory.ParseBytes(*tenantMem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv.TenantMemoryLimit = n
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("avatica server listening on", bound)
	fmt.Println(`try: curl -d '{"sql":"SELECT * FROM demo"}' http://` + bound + `/execute`)
	fmt.Println("     curl http://" + bound + "/metrics | head")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Println("received", got, "- draining")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "shutdown:", err)
		os.Exit(1)
	}
}

// loadDemo registers the demo table with n generated rows. The value
// columns are deterministic but non-trivial, so aggregates, sorts and
// self-joins over a large demo table exercise the spill paths under a
// small -querymem budget.
func loadDemo(conn *calcite.Connection, n int) {
	if n < 2 {
		n = 2
	}
	rows := make([][]any, n)
	msgs := [...]string{"hello", "world", "lorem", "ipsum", "dolor", "sit", "amet"}
	for i := 0; i < n; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		rows[i] = []any{
			int64(i + 1),
			int64(h % 97),
			float64(h%100000) / 100,
			msgs[i%len(msgs)],
		}
	}
	conn.AddTable("demo", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "val", Type: calcite.DoubleType},
		{Name: "msg", Type: calcite.VarcharType},
	}, rows)
}
