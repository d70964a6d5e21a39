package calcite_test

// Differential suite for continuous queries (§7.2): the incremental
// streaming engine (StreamAggregate) must produce exactly the windows of
// the row-mode batch oracle (internal/stream), for every window kind ×
// aggregate shape × arrival order × parallelism — and under a memory budget
// small enough to force window state to spill.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"calcite"
	"calcite/internal/adapter/streamtab"
	"calcite/internal/rex"
	"calcite/internal/stream"
	"calcite/internal/types"
)

// streamTags are the values of the VARCHAR column s.
var streamTags = []string{"amber", "blue", "coral"}

// genStreamEvents builds a deterministic in-order event log
// [rowtime, k, v, d, s] with nKeys distinct keys k and ~200ms mean spacing.
// d is a DOUBLE in quarter steps (so sums are exact in any order) that is
// NULL on about one event in seven; s is a three-valued VARCHAR.
func genStreamEvents(n int, nKeys int64) [][]any {
	rows := make([][]any, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(mod int64) int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng>>33) % mod
	}
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += next(400)
		k, v := next(nKeys), next(1000)
		var d any
		if x := next(40); x%7 != 0 {
			d = float64(x) / 4
		}
		rows = append(rows, []any{ts, k, v, d, streamTags[next(int64(len(streamTags)))]})
	}
	return rows
}

// streamFixture loads rows into a stream table (replaying with the given
// bounded event-time skew when skewMs > 0) behind a fresh connection.
func streamFixture(t *testing.T, rows [][]any, skewMs int64) (*calcite.Connection, *streamtab.Table) {
	t.Helper()
	tb := streamtab.NewTable("events", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
		types.Field{Name: "d", Type: types.Double.WithNullable(true)},
		types.Field{Name: "s", Type: types.Varchar},
	), 0)
	for _, r := range rows {
		if err := tb.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if skewMs > 0 {
		tb.SetReplaySkew(42, skewMs)
	}
	conn := calcite.Open()
	sa := streamtab.New("s")
	sa.AddTable(tb)
	conn.RegisterAdapter(sa)
	return conn, tb
}

// countSum is COUNT(*), SUM(v): the aggregate list of the soak queries.
var countSum = []rex.AggCall{
	rex.NewAggCall(rex.AggCount, nil, false, "c"),
	rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
}

// oracleWindows recomputes the expected windows with the row-mode oracle.
func oracleWindows(t *testing.T, tb *streamtab.Table, kind string, a, b int64, keyCols []int, calls []rex.AggCall) [][]any {
	t.Helper()
	cur, err := tb.StreamScan()
	if err != nil {
		t.Fatal(err)
	}
	events, err := stream.EventsFromCursor(cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wins []stream.Window
	switch kind {
	case "TUMBLE":
		wins, err = stream.Tumble(events, a, keyCols, calls)
	case "HOP":
		wins, err = stream.Hop(events, a, b, keyCols, calls)
	case "SESSION":
		wins, err = stream.Session(events, a, keyCols, calls)
	}
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, len(wins))
	for _, w := range wins {
		row := []any{w.Start, w.End}
		row = append(row, w.Key...)
		row = append(row, w.Values...)
		rows = append(rows, row)
	}
	return rows
}

// canonRows renders rows to a sorted string multiset for order-insensitive
// comparison.
func canonRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r...)
	}
	sort.Strings(out)
	return out
}

func diffRows(t *testing.T, label string, got, want [][]any) {
	t.Helper()
	diffCanon(t, label, canonRows(got), canonRows(want))
}

// diffCanon compares two canonical row multisets (see canonRows).
func diffCanon(t *testing.T, label string, g, w []string) {
	t.Helper()
	if len(g) != len(w) {
		t.Fatalf("%s: %d windows, oracle has %d\n got: %v\nwant: %v", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: window %d differs\n got: %s\nwant: %s", label, i, g[i], w[i])
		}
	}
}

// streamWindowSpec is one group-window function of the SQL surface.
type streamWindowSpec struct {
	kind string
	a, b int64  // TUMBLE: size; HOP: slide, size; SESSION: gap (ms)
	args string // the window's arguments after rowtime, lateness excluded
}

var streamWindows = []streamWindowSpec{
	{kind: "TUMBLE", a: 1000, args: "INTERVAL '1' SECOND"},
	{kind: "HOP", a: 1000, b: 3000, args: "INTERVAL '1' SECOND, INTERVAL '3' SECOND"},
	{kind: "SESSION", a: 2000, args: "INTERVAL '2' SECOND"},
}

// streamShape is one grouping and aggregate list, in SQL and as the oracle's
// calls over the input ordinals [rowtime, k, v, d, s].
type streamShape struct {
	name    string
	keys    []string
	keyCols []int
	aggs    string
	calls   []rex.AggCall
}

func aggCall(f rex.AggFuncKind, arg int, distinct bool) rex.AggCall {
	var args []int
	if arg >= 0 {
		args = []int{arg}
	}
	return rex.NewAggCall(f, args, distinct, "")
}

// streamShapes cover every aggregate the typed engine adds unboxed (COUNT,
// SUM, MIN, MAX, AVG over BIGINT and a DOUBLE holding NULLs), a retaining
// call that takes the boxed path (COUNT(DISTINCT v)), and BIGINT, VARCHAR and
// two-column keys.
var streamShapes = []streamShape{
	{name: "count-sum", aggs: "COUNT(*), SUM(v)", calls: countSum},
	{name: "count-sum/k", keys: []string{"k"}, keyCols: []int{1}, aggs: "COUNT(*), SUM(v)", calls: countSum},
	{name: "min-max-avg-count-distinct/k", keys: []string{"k"}, keyCols: []int{1},
		aggs: "MIN(v), MAX(v), AVG(v), COUNT(v), COUNT(DISTINCT v)",
		calls: []rex.AggCall{aggCall(rex.AggMin, 2, false), aggCall(rex.AggMax, 2, false),
			aggCall(rex.AggAvg, 2, false), aggCall(rex.AggCount, 2, false), aggCall(rex.AggCount, 2, true)}},
	{name: "double/s", keys: []string{"s"}, keyCols: []int{4},
		aggs: "SUM(d), MIN(d), MAX(d), AVG(d), COUNT(d)",
		calls: []rex.AggCall{aggCall(rex.AggSum, 3, false), aggCall(rex.AggMin, 3, false),
			aggCall(rex.AggMax, 3, false), aggCall(rex.AggAvg, 3, false), aggCall(rex.AggCount, 3, false)}},
	{name: "two-keys/k,s", keys: []string{"k", "s"}, keyCols: []int{1, 4},
		aggs:  "COUNT(*), SUM(v), MAX(d)",
		calls: []rex.AggCall{aggCall(rex.AggCount, -1, false), aggCall(rex.AggSum, 2, false), aggCall(rex.AggMax, 3, false)}},
	{name: "double-distinct", aggs: "MIN(d), AVG(d), COUNT(DISTINCT v)",
		calls: []rex.AggCall{aggCall(rex.AggMin, 3, false), aggCall(rex.AggAvg, 3, false), aggCall(rex.AggCount, 2, true)}},
}

// sql renders the continuous query of shape sh over window w with the given
// allowed lateness (seconds): [window_start, window_end, keys…, aggregates…].
func (w streamWindowSpec) sql(sh streamShape, latenessSec int) string {
	cols := []string{
		fmt.Sprintf("%s_START(rowtime, %s) AS ws", w.kind, w.args),
		fmt.Sprintf("%s_END(rowtime, %s) AS we", w.kind, w.args),
	}
	cols = append(append(cols, sh.keys...), sh.aggs)
	group := append([]string{fmt.Sprintf("%s(rowtime, %s, INTERVAL '%d' SECOND)", w.kind, w.args, latenessSec)}, sh.keys...)
	return fmt.Sprintf("SELECT STREAM %s FROM s.events GROUP BY %s", strings.Join(cols, ", "), strings.Join(group, ", "))
}

// TestStreamDifferentialOracle: streaming incremental ≡ batch recompute for
// TUMBLE/HOP/SESSION × every aggregate shape × parallelism 1, 2 and 4 ×
// (in-order arrival at batch size 7, 64 and 1 024, bounded out-of-order
// arrival at 1 024). Lateness covers the replay skew, so no event is
// dropped and the incremental result must equal the full recompute. Every
// statement must answer within streamDeadline, and keyed TUMBLE/HOP rows at
// parallelism 2 and 4 must equal the parallelism-1 rows in the same order,
// (window_start, key…, window_end), which depends neither on the batch size
// nor on the parallelism setting: every window runs the one serial operator
// over its serial stream scan (TestParallelizedPlansGatherOnly), and these
// passes pin that the setting leaves its rows alone. SESSION and global
// windows run at parallelism 1 only.
func TestStreamDifferentialOracle(t *testing.T) {
	rows := genStreamEvents(1200, 3)
	for _, skew := range []int64{0, 2000} {
		conn, tb := streamFixture(t, rows, skew)
		oracle := map[string][]string{}
		serial := map[string][][]any{}
		batchSizes := []int{7, 64, 1024}
		if skew > 0 {
			// Out-of-order arrival runs at the default batch size only, so
			// that ten race-detector runs of the sweep on two cores stay
			// inside the default test timeout.
			batchSizes = batchSizes[2:]
		}
		for _, batchSize := range batchSizes {
			conn.SetBatchSize(batchSize)
			for _, par := range []int{1, 2, 4} {
				conn.SetParallelism(par)
				for _, w := range streamWindows {
					for _, sh := range streamShapes {
						keyedWindow := w.kind != "SESSION" && len(sh.keys) > 0
						if par > 1 && !keyedWindow {
							continue
						}
						query := w.kind + "/" + sh.name
						label := fmt.Sprintf("%s/skew=%d/batch=%d/par=%d", query, skew, batchSize, par)
						res, err := queryWithin(t, conn, streamDeadline, w.sql(sh, 2))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						// A TUMBLE/HOP result is in emission order at every
						// batch size, so after its first run it must repeat
						// that run's rows in order; a SESSION result, whose
						// rounds interleave differently, matches the oracle.
						first, ran := serial[query]
						if ran && w.kind != "SESSION" {
							if !slices.EqualFunc(res.Rows, first, slices.Equal[[]any]) {
								t.Fatalf("%s: rows differ from the batch=7/par=1 run in content or order\n got: %v\nwant: %v", label, res.Rows, first)
							}
							continue
						}
						want, ok := oracle[query]
						if !ok {
							want = canonRows(oracleWindows(t, tb, w.kind, w.a, w.b, sh.keyCols, sh.calls))
							oracle[query] = want
						}
						diffCanon(t, label, canonRows(res.Rows), want)
						if w.kind != "SESSION" {
							assertEmissionOrder(t, label, res.Rows, len(sh.keys))
						}
						serial[query] = res.Rows
					}
				}
			}
		}
	}
}

// streamDeadline bounds one continuous query of the differential sweep: a
// stalled operator fails the test instead of hanging the suite.
const streamDeadline = 10 * time.Second

// assertEmissionOrder checks the deterministic emission order of
// tumbling/hopping windows: (window_start, key…, window_end) ascending.
func assertEmissionOrder(t *testing.T, label string, rows [][]any, nKeys int) {
	t.Helper()
	key := func(r []any) []any {
		return append(append([]any{r[0]}, r[2:2+nKeys]...), r[1])
	}
	for i := 1; i < len(rows); i++ {
		a, b := key(rows[i-1]), key(rows[i])
		for j := range a {
			if c := types.Compare(a[j], b[j]); c < 0 {
				break
			} else if c > 0 {
				t.Fatalf("%s: emission order violated at row %d: %v after %v", label, i, rows[i], rows[i-1])
			}
		}
	}
}

// TestStreamWindowValidation: the windowed-stream surface rejects malformed
// window specs with targeted errors (satellite of the grammar tests in
// internal/parser).
func TestStreamWindowValidation(t *testing.T) {
	conn, _ := streamFixture(t, genStreamEvents(10, 2), 0)
	cases := []struct{ sql, wantErr string }{
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY TUMBLE(rowtime)`,
			"TUMBLE requires (rowtime, size [, lateness])"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY HOP(rowtime, INTERVAL '1' SECOND)`,
			"HOP requires (rowtime, slide, size [, lateness])"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY SESSION(rowtime)`,
			"SESSION requires (rowtime, gap [, lateness])"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY TUMBLE(rowtime, INTERVAL '0' SECOND)`,
			"TUMBLE size must be a positive interval"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY HOP(rowtime, INTERVAL '2' SECOND, INTERVAL '3' SECOND)`,
			"must be a multiple of its slide"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY SESSION(rowtime, INTERVAL '1' SECOND, INTERVAL '-1' SECOND)`,
			"lateness must be non-negative"},
		{`SELECT STREAM COUNT(*) FROM s.events GROUP BY TUMBLE(v, INTERVAL '1' SECOND)`,
			"monotonic rowtime column"},
		{`SELECT STREAM COUNT(*) FROM s.events
			GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND), HOP(rowtime, INTERVAL '1' SECOND, INTERVAL '2' SECOND)`,
			"at most one group window"},
		{`SELECT STREAM TUMBLE_END(rowtime, INTERVAL '2' SECOND) FROM s.events GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND)`,
			"TUMBLE_END arguments do not match the GROUP BY TUMBLE"},
	}
	for _, tc := range cases {
		_, err := conn.Query(tc.sql)
		if err == nil {
			t.Errorf("%s: expected error %q, got none", tc.sql, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.sql, err, tc.wantErr)
		}
	}
}

// TestStreamDifferentialUnderMemoryLimit forces the standing window state of
// every window kind, global and keyed, serial and at parallelism 4, past a
// 64KiB budget: the operator must spill (not error) and still match the
// oracle exactly. A long lateness holds every window live until the final
// drain, so the standing state is the whole working set, and the retaining
// COUNT(DISTINCT v) makes even a single global session outgrow the budget:
// it keeps the ~1 000 distinct values of v, charged about 128 bytes each.
func TestStreamDifferentialUnderMemoryLimit(t *testing.T) {
	rows := genStreamEvents(6000, 40)
	conn, tb := streamFixture(t, rows, 2000)
	conn.SetMemoryLimit(64 << 10)
	aggs := "COUNT(*), SUM(v), COUNT(DISTINCT v)"
	calls := append(append([]rex.AggCall(nil), countSum...), aggCall(rex.AggCount, 2, true))
	shapes := []streamShape{
		{name: "global", aggs: aggs, calls: calls},
		{name: "keyed", keys: []string{"k"}, keyCols: []int{1}, aggs: aggs, calls: calls},
	}
	wins := []streamWindowSpec{
		streamWindows[0],
		{kind: "HOP", a: 1000, b: 8000, args: "INTERVAL '1' SECOND, INTERVAL '8' SECOND"},
		streamWindows[2],
	}
	for _, par := range []int{1, 4} {
		conn.SetParallelism(par)
		for _, w := range wins {
			for _, sh := range shapes {
				label := fmt.Sprintf("%s/%s/par=%d/spill", w.kind, sh.name, par)
				before := conn.Framework.MemoryPool().Counters().SpillEvents
				res, err := conn.Query(w.sql(sh, 600))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diffRows(t, label, res.Rows, oracleWindows(t, tb, w.kind, w.a, w.b, sh.keyCols, sh.calls))
				if after := conn.Framework.MemoryPool().Counters().SpillEvents; after <= before {
					t.Errorf("%s: standing state did not spill under the 64KiB budget", label)
				}
			}
		}
	}
}
