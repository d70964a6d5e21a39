package calcite_test

// Differential spill suite: every query must produce identical results with
// the memory limit forced below the working-set size (spill paths: external
// sort, Grace hash join, spillable aggregation) and with memory unlimited,
// at parallelism 1 and 4. Plus the acceptance scenarios of the memory
// governor: a 5-way join + aggregation over data larger than the budget,
// and the clean "memory budget exceeded" failure with spilling disabled.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"calcite"
	"calcite/internal/core"
	"calcite/internal/memory"
	"calcite/internal/obs"
)

// spillBudget is far below the diffConn working set (the sales table alone
// materializes at a few hundred KiB), so sorts, joins and aggregates over
// it must spill. A join build is charged what its vectors hold, which
// TestSpillAndInMemoryAgree checks still exceeds this budget.
const spillBudget = 40 << 10

// TestSpillAndInMemoryAgree runs the shared SQL corpus limited vs unlimited
// at parallelism 1 and 4. ORDER BY queries must match in order (the suite's
// orderings are total); everything else as multisets — operator output
// order without ORDER BY is plan-dependent, and the Grace join/partitioned
// aggregation legitimately emit partition by partition.
func TestSpillAndInMemoryAgree(t *testing.T) {
	for _, par := range []int{1, 4} {
		ref := diffConn()
		ref.SetParallelism(par)
		// Far below the working set, and the CI low-memory job's 256 KB.
		for _, budget := range []int64{spillBudget, 256 << 10} {
			limited := diffConn()
			limited.SetParallelism(par)
			limited.SetMemoryLimit(budget)
			joinSpills := 0
			for _, q := range diffQueries {
				rr, rerr := ref.Query(q.sql, q.params...)
				lr, lerr := limited.Query(q.sql, q.params...)
				if (rerr == nil) != (lerr == nil) {
					t.Errorf("p=%d %s\n  unlimited err=%v limited err=%v", par, q.sql, rerr, lerr)
					continue
				}
				if rerr != nil {
					continue
				}
				joinSpills += hashJoinSpills(limited.LastTraces(1)[0].Spans)
				a, b := renderRows(lr.Rows), renderRows(rr.Rows)
				if !strings.Contains(strings.ToUpper(q.sql), "ORDER BY") {
					sort.Strings(a)
					sort.Strings(b)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("p=%d (budget=%d) %s\n  limited:   %v\n  unlimited: %v", par, budget, q.sql, a, b)
				}
			}
			if budget == spillBudget && joinSpills == 0 {
				t.Errorf("p=%d: no hash join of the corpus spilled under %d bytes", par, budget)
			}
		}
	}
}

// TestSpillSmallBatches crosses the spill paths with the batchSize=3
// boundary configuration.
func TestSpillSmallBatches(t *testing.T) {
	ref := diffConn()
	ref.SetParallelism(1)
	ref.SetBatchSize(3)
	limited := diffConn()
	limited.SetParallelism(1)
	limited.SetBatchSize(3)
	limited.SetMemoryLimit(spillBudget)
	for _, q := range diffQueries {
		rr, rerr := ref.Query(q.sql, q.params...)
		lr, lerr := limited.Query(q.sql, q.params...)
		if (rerr == nil) != (lerr == nil) {
			t.Errorf("%s\n  unlimited err=%v limited err=%v", q.sql, rerr, lerr)
			continue
		}
		if rerr != nil {
			continue
		}
		a, b := renderRows(lr.Rows), renderRows(rr.Rows)
		if !strings.Contains(strings.ToUpper(q.sql), "ORDER BY") {
			sort.Strings(a)
			sort.Strings(b)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s (batchSize=3, budget=%d)\n  limited:   %v\n  unlimited: %v", q.sql, spillBudget, a, b)
		}
	}
}

// memStarConn builds the acceptance-criterion catalog: a fact table joined to
// four dimensions, with a working set well above the spill budgets used
// below. Sums use quarter-unit floats (exactly representable), so spilled
// partial-sum reassociation is bit-exact.
func memStarConn() *calcite.Connection {
	conn := calcite.Open()
	const nFact = 20000
	fact := make([][]any, nFact)
	for i := range fact {
		fact[i] = []any{
			int64(i),
			int64(i % 97), // custkey
			int64(i % 53), // prodkey
			int64(i % 11), // storekey
			int64(i % 7),  // promokey
			float64(i%40) / 4.0,
			int64(i % 5),
		}
	}
	conn.AddTable("fact", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "custkey", Type: calcite.BigIntType},
		{Name: "prodkey", Type: calcite.BigIntType},
		{Name: "storekey", Type: calcite.BigIntType},
		{Name: "promokey", Type: calcite.BigIntType},
		{Name: "amount", Type: calcite.DoubleType},
		{Name: "qty", Type: calcite.BigIntType},
	}, fact)
	dim := func(name, keyCol, valCol string, n int) {
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{int64(i), fmt.Sprintf("%s-%d", name, i)}
		}
		conn.AddTable(name, calcite.Columns{
			{Name: keyCol, Type: calcite.BigIntType},
			{Name: valCol, Type: calcite.VarcharType},
		}, rows)
	}
	dim("customers", "custkey", "custname", 97)
	dim("products", "prodkey", "prodname", 53)
	dim("stores", "storekey", "storename", 11)
	dim("promos", "promokey", "promoname", 7)
	return conn
}

// memStarQuery is the acceptance query: a 5-way join plus aggregation plus a
// total-order sort.
const memStarQuery = `
SELECT s.storename, p.prodname, COUNT(*) AS cnt, SUM(f.amount) AS amt, SUM(f.qty) AS q
FROM fact f
JOIN customers c ON f.custkey = c.custkey
JOIN products p ON f.prodkey = p.prodkey
JOIN stores s ON f.storekey = s.storekey
JOIN promos pr ON f.promokey = pr.promokey
GROUP BY s.storename, p.prodname
ORDER BY s.storename, p.prodname`

// TestFiveWayJoinLargerThanBudget is the acceptance criterion: the 5-way
// join + aggregation over data larger than the configured budget completes
// with results identical to the unlimited-memory run, at parallelism 1
// and 4.
func TestFiveWayJoinLargerThanBudget(t *testing.T) {
	ref := memStarConn()
	ref.SetParallelism(1)
	want, err := ref.Query(memStarQuery)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("unlimited run returned no rows")
	}
	for _, par := range []int{1, 4} {
		limited := memStarConn()
		limited.SetParallelism(par)
		limited.SetMemoryLimit(256 << 10) // ~1/10 of the fact working set
		got, err := limited.Query(memStarQuery)
		if err != nil {
			t.Fatalf("p=%d limited run: %v", par, err)
		}
		if !reflect.DeepEqual(renderRows(got.Rows), renderRows(want.Rows)) {
			t.Errorf("p=%d: limited results differ from unlimited (rows %d vs %d)",
				par, len(got.Rows), len(want.Rows))
		}
	}
}

// TestFiveWayJoinActuallySpills asserts the budgeted star query exercises
// the spill machinery (not just fits anyway), via EXPLAIN ANALYZE counters.
func TestFiveWayJoinActuallySpills(t *testing.T) {
	limited := memStarConn()
	limited.SetParallelism(1)
	limited.SetMemoryLimit(256 << 10)
	res, err := limited.Query("EXPLAIN ANALYZE " + memStarQuery)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE: %v", err)
	}
	if !strings.Contains(res.Plan, "spilled=") || !strings.Contains(res.Plan, "run stats") {
		t.Fatalf("EXPLAIN ANALYZE did not report run stats:\n%s", res.Plan)
	}
	spilled := false
	for _, line := range strings.Split(res.Plan, "\n") {
		if strings.Contains(line, "spill-events=") {
			spilled = true
		}
	}
	if !spilled {
		t.Fatalf("no operator reported spilling under a 256KiB budget:\n%s", res.Plan)
	}
}

// TestBudgetExceededWithoutSpillFailsCleanly is the admission-control
// acceptance criterion: with spilling disabled, exceeding the budget is a
// clean "memory budget exceeded" error, not an OOM.
func TestBudgetExceededWithoutSpillFailsCleanly(t *testing.T) {
	for _, par := range []int{1, 4} {
		conn := memStarConn()
		conn.SetParallelism(par)
		conn.SetMemoryLimit(128 << 10)
		conn.EnableSpill(false)
		_, err := conn.Query(memStarQuery)
		if err == nil {
			t.Fatalf("p=%d: query larger than budget succeeded with spilling disabled", par)
		}
		if !strings.Contains(err.Error(), "memory budget exceeded") {
			t.Fatalf("p=%d: error %q does not mention the memory budget", par, err)
		}
	}
}

// TestQueryMemoryLimitIndependentOfPool: a per-query cap applies even when
// no framework-wide limit is set.
func TestQueryMemoryLimitIndependentOfPool(t *testing.T) {
	conn := memStarConn()
	conn.SetParallelism(1)
	conn.SetQueryMemoryLimit(256 << 10)
	got, err := conn.Query(memStarQuery)
	if err != nil {
		t.Fatalf("per-query limited run: %v", err)
	}
	ref := memStarConn()
	ref.SetParallelism(1)
	want, err := ref.Query(memStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(renderRows(got.Rows), renderRows(want.Rows)) {
		t.Error("per-query limited results differ from unlimited")
	}
}

// TestRetainedAggregateLargerThanBudgetCompletes is the regression test for
// the flush/re-add recursion: value-retaining aggregates whose per-row
// charge can never be granted (rows bigger than the whole query budget)
// must still complete via flush-then-proceed, not recurse forever.
func TestRetainedAggregateLargerThanBudgetCompletes(t *testing.T) {
	conn := calcite.Open()
	big := strings.Repeat("x", 4096)
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = []any{int64(i % 4), fmt.Sprintf("%s-%d", big, i)}
	}
	conn.AddTable("blobs", calcite.Columns{
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "v", Type: calcite.VarcharType},
	}, rows)
	conn.SetParallelism(1)
	conn.SetQueryMemoryLimit(1 << 10) // 1KiB: below a single row's charge
	res, err := conn.Query("SELECT grp, COUNT(DISTINCT v) FROM blobs GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatalf("tiny-budget distinct aggregate: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != int64(16) {
			t.Fatalf("distinct count = %v, want 16 (row %v)", row[1], row)
		}
	}
}

// TestGovernedDistinctChargesWhatItKeeps: COUNT(DISTINCT v) charges a value
// only when its group keeps it. 200 000 rows hold 4 groups of 2 values each,
// so under a 256 KiB limit the aggregate neither fills the budget nor spills;
// charging every row's argument filled it and wrote 8 run files.
func TestGovernedDistinctChargesWhatItKeeps(t *testing.T) {
	conn := calcite.Open()
	rows := make([][]any, 200000)
	for i := range rows {
		rows[i] = []any{int64(i % 4), int64(i % 8)}
	}
	conn.AddTable("dv", calcite.Columns{
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "v", Type: calcite.BigIntType},
	}, rows)
	conn.SetParallelism(1)
	conn.SetQueryMemoryLimit(256 << 10)
	res, err := conn.Query("SELECT grp, COUNT(DISTINCT v) FROM dv GROUP BY grp ORDER BY grp")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[0 2] [1 2] [2 2] [3 2]]" {
		t.Fatalf("rows = %v", got)
	}
	tr := conn.LastTraces(1)[0]
	if ev := spillEvents(tr.Spans); ev != 0 || tr.Spilled != 0 {
		t.Errorf("8 distinct values spilled (%d events, %d bytes)", ev, tr.Spilled)
	}
	if tr.PeakBytes >= 16<<10 {
		t.Errorf("peak reservation %d bytes for 8 distinct values, want under 16 KiB", tr.PeakBytes)
	}
}

// TestManySpillRunsCascade is the regression test for the merge fan-in:
// a budget small enough to cut hundreds of runs must cascade-merge them
// instead of opening every run at once, and still produce the exact sorted
// order.
func TestManySpillRunsCascade(t *testing.T) {
	conn := calcite.Open()
	n := 20000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64((i * 7919) % n), int64(i)}
	}
	conn.AddTable("shuf", calcite.Columns{
		{Name: "k", Type: calcite.BigIntType},
		{Name: "pos", Type: calcite.BigIntType},
	}, rows)
	conn.SetParallelism(1)
	conn.SetQueryMemoryLimit(8 << 10) // ~60-row runs → hundreds of runs
	res, err := conn.Query("SELECT k FROM shuf ORDER BY k")
	if err != nil {
		t.Fatalf("many-run sort: %v", err)
	}
	if len(res.Rows) != n {
		t.Fatalf("rows = %d, want %d", len(res.Rows), n)
	}
	for i, row := range res.Rows {
		if row[0] != int64(i) {
			t.Fatalf("row %d = %v, want %d", i, row[0], i)
		}
	}
}

// queryWithin runs sql on conn and fails the test if it has not returned by
// the deadline — a hung exchange would otherwise stall the whole suite.
func queryWithin(t *testing.T, conn *calcite.Connection, d time.Duration, sql string) (*calcite.Result, error) {
	t.Helper()
	type outcome struct {
		res *calcite.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := conn.Query(sql)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("query did not return within %v: %s", d, sql)
		return nil, nil
	}
}

// TestGovernedParallelAggregateReturns is the regression test for the
// exchange-teardown hang: 20 000 distinct VARCHAR groups at parallelism 4
// under a 300 KiB query budget. Every stage of the parallel aggregate must
// spill and the rows must match the serial unlimited run; with spilling
// disabled the workers that fail their grant must tear the stages around
// them down, so the clean budget error surfaces instead of a survivor
// waiting forever on a partition parked on a dead channel.
func TestGovernedParallelAggregateReturns(t *testing.T) {
	const sql = "SELECT k, SUM(v), COUNT(*) FROM f GROUP BY k"
	open := func() *calcite.Connection {
		conn := calcite.Open()
		rows := make([][]any, 20000)
		for i := range rows {
			rows[i] = []any{fmt.Sprintf("key-%06d", i), int64(i)}
		}
		conn.AddTable("f", calcite.Columns{
			{Name: "k", Type: calcite.VarcharType},
			{Name: "v", Type: calcite.BigIntType},
		}, rows)
		return conn
	}
	ref := open()
	ref.SetParallelism(1)
	want, err := ref.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := renderRows(want.Rows)
	sort.Strings(wantRows)

	const deadline = 60 * time.Second
	limited := open()
	limited.SetParallelism(4)
	limited.SetQueryMemoryLimit(300 << 10)
	got, err := queryWithin(t, limited, deadline, sql)
	if err != nil {
		t.Fatalf("governed parallel aggregate: %v", err)
	}
	gotRows := renderRows(got.Rows)
	sort.Strings(gotRows)
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("governed parallel aggregate returned %d rows differing from the serial unlimited run (%d rows)",
			len(gotRows), len(wantRows))
	}
	if tr := limited.LastTraces(1); len(tr) == 0 || tr[0].Spilled == 0 {
		t.Fatalf("a 20000-group aggregate under 300KiB did not spill: %+v", tr)
	}

	limited.EnableSpill(false)
	_, err = queryWithin(t, limited, deadline, sql)
	if err == nil || !strings.Contains(err.Error(), "memory budget exceeded") {
		t.Fatalf("spill disabled: err = %v, want the memory budget error", err)
	}
}

// TestTenantPoolGovernsParallelJoin closes the governance hole of the
// serving tier: a query executed with a tenant pool (core.ExecOptions.Pool)
// at the default plan shape — the parallel hash join — must charge its build
// side to that pool (a nonzero peak on the join's span) and, when the pool is
// smaller than the build side, spill instead of silently exceeding it.
func TestTenantPoolGovernsParallelJoin(t *testing.T) {
	const sql = "SELECT f.id, c.custname FROM customers c JOIN fact f ON f.custkey = c.custkey"
	conn := memStarConn()
	conn.SetParallelism(4)
	want, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := renderRows(want.Rows)
	sort.Strings(wantRows)

	run := func(limit int64) *obs.TraceSnapshot {
		t.Helper()
		pool := memory.NewChildPool(conn.Framework.MemoryPool(), limit)
		res, err := conn.Framework.ExecuteOpts(sql, core.ExecOptions{Pool: pool})
		if err != nil {
			t.Fatalf("tenant pool %d: %v", limit, err)
		}
		rows := renderRows(res.Rows)
		sort.Strings(rows)
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("tenant pool %d: %d rows differ from the ungoverned run (%d rows)", limit, len(rows), len(wantRows))
		}
		if used := pool.Used(); used != 0 {
			t.Fatalf("tenant pool %d: %d bytes still reserved after the query", limit, used)
		}
		return conn.LastTraces(1)[0]
	}

	roomy := run(64 << 20)
	join := findSpan(roomy.Spans, "ParallelHashJoin")
	if join == nil {
		t.Fatalf("no parallel hash join in the executed plan:\n%s", obs.RenderSpans(roomy.Spans))
	}
	if join.PeakBytes == 0 {
		t.Fatalf("parallel hash join charged nothing to the tenant pool:\n%s", obs.RenderSpans(roomy.Spans))
	}
	// The 20000-row build side needs ~2 MiB; a 256 KiB tenant must spill.
	if tight := run(256 << 10); tight.Spilled == 0 || tight.PeakBytes > 256<<10 {
		t.Fatalf("256KiB tenant pool: spilled=%d peak=%d, want a spill and a peak within the pool",
			tight.Spilled, tight.PeakBytes)
	}
}

// topNSales is a wide fact table: a top-N over it buffers whole rows.
func topNSales(n int) *calcite.Connection {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 977), int64(i % 31), int64(i % 7), int64(i % 360), int64(i % 10),
			int64(1 + i%10), float64((i*7919)%4000) / 4, int64(i % 31), fmt.Sprintf("st%d", i%5)}
	}
	conn := calcite.Open()
	cols := calcite.Columns{{Name: "id", Type: calcite.BigIntType}}
	for _, name := range []string{"cust_id", "prod_id", "store_id", "date_id", "promo_id", "qty"} {
		cols = append(cols, calcite.Column{Name: name, Type: calcite.BigIntType})
	}
	cols = append(cols, calcite.Column{Name: "amount", Type: calcite.DoubleType},
		calcite.Column{Name: "disc", Type: calcite.BigIntType}, calcite.Column{Name: "status", Type: calcite.VarcharType})
	conn.AddTable("sales", cols, rows)
	return conn
}

// spillEvents sums the spill decisions over a span tree.
func spillEvents(s *obs.SpanStats) int {
	if s == nil {
		return 0
	}
	n := s.SpillEvents
	for _, c := range s.Children {
		n += spillEvents(c)
	}
	return n
}

// hashJoinSpills counts the hash-join spans of a span tree that spilled.
func hashJoinSpills(s *obs.SpanStats) int {
	if s == nil {
		return 0
	}
	n := 0
	if strings.Contains(s.Name, "HashJoin") && s.SpillEvents > 0 {
		n++
	}
	for _, c := range s.Children {
		n += hashJoinSpills(c)
	}
	return n
}

// TestGovernedTopNDoesNotSpill: ORDER BY … LIMIT 100 over 50 000 rows keeps
// only the rows that can still be returned, so under a 256 KB and a 64 KB query
// limit it cuts no run and reserves no more than limit + one batch of rows —
// it used to buffer, and spill, all 50 000. A limit too deep to hold (OFFSET
// 40000) still spills, and every variant returns the ungoverned rows.
func TestGovernedTopNDoesNotSpill(t *testing.T) {
	const n = 50000
	topN := "SELECT id, amount FROM sales WHERE promo_id <> 3 ORDER BY amount DESC, id LIMIT 100"
	deep := "SELECT id, amount FROM sales WHERE promo_id <> 3 ORDER BY amount DESC, id LIMIT 10 OFFSET 40000"
	ref := topNSales(n)
	ref.SetParallelism(1)
	want := map[string][]string{}
	for _, sql := range []string{topN, deep} {
		res, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = renderRows(res.Rows)
	}
	if len(want[topN]) != 100 || len(want[deep]) != 10 {
		t.Fatalf("reference returned %d and %d rows", len(want[topN]), len(want[deep]))
	}
	// Per row: the table's 8 int64, float64 and 3-byte string, 2 more int64
	// the plan carries, and the sort permutation.
	const rowBytes = 10*8 + 8 + (16 + 3) + 4
	// A worker's top-N holds under 3 × limit rows: a batch adds at most limit
	// of them, and the buffer is cut back to limit once it reaches 2 × limit.
	const workerBytes = 3 * 100 * rowBytes
	for _, par := range []int{1, 4} {
		for _, budget := range []int64{256 << 10, 64 << 10} {
			conn := topNSales(n)
			conn.SetParallelism(par)
			conn.SetQueryMemoryLimit(budget)
			for _, sql := range []string{topN, deep} {
				res, err := conn.Query(sql)
				if err != nil {
					t.Fatalf("p=%d budget=%d %s: %v", par, budget, sql, err)
				}
				if !reflect.DeepEqual(renderRows(res.Rows), want[sql]) {
					t.Errorf("p=%d budget=%d %s: rows differ from the ungoverned run", par, budget, sql)
				}
				tr := conn.LastTraces(1)[0]
				if sql == deep {
					if tr.Spilled == 0 {
						t.Errorf("p=%d budget=%d: a 40 010-row limit did not spill", par, budget)
					}
					continue
				}
				// The workers share the budget: the no-spill guarantee is for
				// budgets that hold every worker's rows at once (four workers
				// need 133 200 bytes, more than 64 KB).
				if int64(par*workerBytes) > budget {
					continue
				}
				if ev := spillEvents(tr.Spans); ev != 0 || tr.Spilled != 0 {
					t.Errorf("p=%d budget=%d: top-N spilled (%d events, %d bytes)", par, budget, ev, tr.Spilled)
				}
				if bound := int64(par * workerBytes); tr.PeakBytes == 0 || tr.PeakBytes >= bound {
					t.Errorf("p=%d budget=%d: peak reservation %d, want within (0, %d)", par, budget, tr.PeakBytes, bound)
				}
			}
		}
	}
}
