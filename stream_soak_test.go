package calcite_test

// Streaming soak: replays a bounded-skew event stream through the avatica
// serving tier — repeatedly, concurrently, with pagination, under a state
// budget small enough to spill standing window state — and holds the three
// industrial contracts of a continuous query:
//
//  1. every result set served over the wire matches the row-mode streaming
//     oracle (internal/stream) exactly (lateness covers the replay skew, so
//     nothing drops);
//  2. the windows emitted under an allowed lateness show on /metrics;
//  3. canceling an in-flight continuous query leaks nothing: no prepared
//     statements, no retained cursor bytes, no goroutines.

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"calcite"
	"calcite/internal/avatica"
)

const soakStreamSQL = `SELECT STREAM HOP_START(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND) AS ws, HOP_END(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY HOP(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND, INTERVAL '2' SECOND), k`

// soakStreamHoldSQL is the same window plan with a 600s allowed lateness:
// the watermark trails the whole replay, so every pane stays live and the
// standing state must spill under the small budget instead of erroring.
const soakStreamHoldSQL = `SELECT STREAM HOP_START(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND) AS ws, HOP_END(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY HOP(rowtime, INTERVAL '1' SECOND, INTERVAL '8' SECOND, INTERVAL '600' SECOND), k`

// canonWire renders wire rows for multiset comparison against the oracle:
// JSON turns int64 cells into float64, so integral floats are restored.
func canonWire(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, r := range rows {
		row := make([]any, len(r))
		for j, v := range r {
			if f, ok := v.(float64); ok && f == float64(int64(f)) {
				row[j] = int64(f)
			} else {
				row[j] = v
			}
		}
		out[i] = row
	}
	return out
}

func TestStreamingSoak(t *testing.T) {
	rows := genStreamEvents(8000, 16)
	conn, tb := streamFixture(t, rows, 2000)
	conn.SetParallelism(2)
	// Wide enough for retained pagination cursors; tightened to 256KiB
	// before the standing-state spill round below.
	conn.SetMemoryLimit(4 << 20)

	srv := avatica.NewServer(conn.Framework)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	client := calcite.Dial(addr)

	want := oracleWindows(t, tb, "HOP", 1000, 8000, []int{1}, countSum)
	if len(want) == 0 {
		t.Fatal("oracle produced no windows")
	}
	baseGoroutines := runtime.NumGoroutine()

	// Round 1: repeated sequential replays over the wire, each one a full
	// continuous query against the governed pool.
	for round := 0; round < 3; round++ {
		resp, err := client.Query(soakStreamSQL)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		diffRows(t, fmt.Sprintf("soak round %d", round), canonWire(resp.Rows), want)
	}

	// Round 2: concurrent clients replaying the same stream; every result
	// must still match the oracle (shared pool, shared plan cache).
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := calcite.Dial(addr)
			defer c.HTTP.CloseIdleConnections()
			resp, err := c.Query(soakStreamSQL)
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
				return
			}
			if len(resp.Rows) != len(want) {
				errs <- fmt.Errorf("worker %d: %d windows, oracle has %d", w, len(resp.Rows), len(want))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Round 3: paginated replay through /fetch, cursor retained on an
	// implicit statement until explicitly closed.
	frame, err := client.Do(avatica.ExecuteRequest{SQL: soakStreamSQL, FetchSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	got := append([][]any(nil), frame.Rows...)
	for frame.More {
		if frame, err = client.Fetch(frame.StatementID, 512); err != nil {
			t.Fatal(err)
		}
		got = append(got, frame.Rows...)
	}
	diffRows(t, "paginated replay", canonWire(got), want)
	if frame.StatementID != 0 {
		if err := client.Close(frame.StatementID); err != nil {
			t.Fatal(err)
		}
	}

	// Round 4: long-lateness replay holds every pane live; a 256KiB
	// budget must force standing state to spill, not fail the query.
	conn.SetMemoryLimit(256 << 10)
	spillBefore := conn.Framework.MemoryPool().Counters().SpillEvents
	resp, err := client.Query(soakStreamHoldSQL)
	if err != nil {
		t.Fatalf("long-lateness replay: %v", err)
	}
	diffRows(t, "long-lateness replay", canonWire(resp.Rows), want)
	if spills := conn.Framework.MemoryPool().Counters().SpillEvents; spills <= spillBefore {
		t.Fatalf("standing state never spilled under 256KiB budget (spill events %d -> %d)", spillBefore, spills)
	}

	// Watermark-governed emission shows on /metrics.
	httpResp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if emitted, ok := metricValue(string(body), "calcite_stream_windows_emitted_total "); !ok || emitted <= 0 {
		t.Fatalf("calcite_stream_windows_emitted_total = %v (present=%v), want > 0", emitted, ok)
	}

	// Round 5: cancel an in-flight continuous query. The statement stays
	// prepared (canceled, not destroyed), the retained state is released,
	// and after Close nothing survives server-side.
	stmtID, err := client.Prepare(soakStreamHoldSQL)
	if err != nil {
		t.Fatal(err)
	}
	execDone := make(chan error, 1)
	go func() {
		_, err := client.Execute(stmtID)
		execDone <- err
	}()
	// Cancel can land before the server has begun executing the statement
	// (then it is a no-op on an idle statement), so keep re-issuing it
	// until the in-flight execution returns.
	var execErr error
	cancelDeadline := time.After(30 * time.Second)
loop:
	for {
		if err := client.Cancel(stmtID); err != nil {
			t.Fatal(err)
		}
		select {
		case execErr = <-execDone:
			break loop
		case <-cancelDeadline:
			t.Fatal("canceled execution never returned")
		case <-time.After(25 * time.Millisecond):
		}
	}
	// The race between cancel and completion is inherent; both outcomes
	// are legal, but an error must be the cancellation, not a failure.
	if execErr != nil && !strings.Contains(execErr.Error(), "canceled") {
		t.Fatalf("canceled execution failed with a non-cancellation error: %v", execErr)
	}
	if err := client.Close(stmtID); err != nil {
		t.Fatal(err)
	}

	// Leak audit: no statements, no retained cursor memory, and the
	// goroutine count settles back to its pre-soak baseline.
	if n := srv.StatementCount(); n != 0 {
		t.Fatalf("%d statements leaked after soak", n)
	}
	if b := srv.CursorBytes(); b != 0 {
		t.Fatalf("%d cursor bytes leaked after soak", b)
	}
	client.HTTP.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseGoroutines+8 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle: %d -> %d\n%s",
				baseGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
