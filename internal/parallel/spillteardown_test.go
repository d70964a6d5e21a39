package parallel

// Spill teardown: a worker failing (or a query being cancelled) mid-spill
// must tear the exchanges down through their cancellation context AND leave
// no spill files behind once the query's allocator closes — the contract
// core.Framework relies on (it defers Alloc.Close on every exit path).

import (
	"errors"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"calcite/internal/exec"
	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// failingCursor yields ok batches, then fails — the mid-query error that
// stands in for cancellation.
type failingCursor struct {
	left int
	err  error
	seq  int64
}

func (c *failingCursor) NextBatch() (*schema.Batch, error) {
	if c.left <= 0 {
		return nil, c.err
	}
	c.left--
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = []any{c.seq*64 + int64(i), "payload-payload-payload"}
	}
	b := schema.BatchFromRows(rows, 2)
	b.Seq = c.seq
	c.seq++
	return b, nil
}

func (c *failingCursor) Close() error { return nil }

// failingTable serves the failing cursor through the batch-scan interface.
type failingTable struct {
	*schema.MemTable
	batches int
	err     error
}

func (t *failingTable) ScanBatches(batchSize int) (schema.BatchCursor, error) {
	return &failingCursor{left: t.batches, err: t.err}, nil
}

func TestSpillFilesCleanedUpOnMidSpillError(t *testing.T) {
	boom := errors.New("backend failed mid-query")
	rowType := types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "payload", Type: types.Varchar},
	)
	tbl := &failingTable{
		MemTable: schema.NewMemTable("t", rowType, nil),
		batches:  40, // enough to overflow the tiny budget and start spilling
		err:      boom,
	}
	scan := exec.NewScan(tbl, []string{"t"})
	sortNode := exec.NewSort(scan, trait.Collation{{Field: 1}, {Field: 0}}, 0, -1)
	pool := NewPool(4)
	plan := Parallelize(sortNode, pool, 4, schema.DefaultBatchSize)

	// A budget small enough that the sort above the gather spills several
	// runs before the source fails.
	alloc := memory.NewAllocator(memory.NewPool(32<<10), 0, true)
	ctx := exec.NewContext()
	ctx.Alloc = alloc

	_, err := exec.Execute(ctx, plan)
	if err == nil {
		t.Fatal("expected the mid-query error to surface")
	}
	if !errors.Is(err, boom) && err.Error() == "" {
		t.Fatalf("unexpected error: %v", err)
	}
	dir := alloc.SpillDir()
	if dir == "" {
		t.Fatal("the query never spilled; lower the budget so the teardown path is actually exercised")
	}
	if alloc.Spilled() == 0 {
		t.Fatal("no bytes recorded as spilled")
	}
	// The teardown contract: closing the allocator (what core defers on
	// every exit path) removes the spill directory with all files in it.
	if err := alloc.Close(); err != nil {
		t.Fatalf("allocator close: %v", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		ents, _ := os.ReadDir(dir)
		t.Fatalf("spill dir %s survived teardown with %d entries", dir, len(ents))
	}
}

// TestSpillParallelSortMatchesSerial: the governed sort over a gather of the
// morsels (one external sort, its runs merged back) must reproduce the serial
// order exactly.
func TestSpillParallelSortMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 5000)
	sortNode := exec.NewSort(scan, trait.Collation{{Field: 1}, {Field: 0, Direction: trait.Descending}}, 0, -1)
	want := renderRows(runPlan(t, sortNode))
	for _, p := range []int{2, 4} {
		pool := NewPool(p)
		plan := Parallelize(sortNode, pool, p, schema.DefaultBatchSize)
		ctx := exec.NewContext()
		alloc := memory.NewAllocator(memory.NewPool(24<<10), 0, true)
		ctx.Alloc = alloc
		rows, err := exec.Execute(ctx, plan)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		got := renderRows(rows)
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d rows, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d row %d: got %s, want %s", p, i, got[i], want[i])
			}
		}
		if alloc.Spilled() == 0 {
			t.Fatalf("p=%d: parallel sort under a 24KiB budget did not spill", p)
		}
		alloc.Close()
	}
}

// TestSpillParallelJoinAndAggregateMatchSerial: the governed parallel hash
// join (parallel build, Grace continuation on a denied grant) and aggregate
// (per-worker spillable engines) return the serial rows — as multisets, since
// spilled output is emitted partition by partition — for every parallel join
// kind and condition shape.
func TestSpillParallelJoinAndAggregateMatchSerial(t *testing.T) {
	plans := []rel.Node{
		exec.NewAggregate(memScan(t, "t", 6000), []int{0}, []rex.AggCall{
			rex.NewAggCall(rex.AggCount, nil, false, "c"),
			rex.NewAggCall(rex.AggSum, []int{1}, false, "s"),
			rex.NewAggCall(rex.AggCount, []int{1}, true, "cd"),
		}),
	}
	for _, kind := range []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.SemiJoin, rel.AntiJoin} {
		for _, cond := range joinConds() {
			plans = append(plans, exec.NewHashJoin(kind, memScan(t, "l", 3000), memScan(t, "r", 3000), cond))
		}
	}
	for _, plan := range plans {
		want := renderRows(runPlan(t, plan))
		sort.Strings(want)
		alloc := memory.NewAllocator(memory.NewPool(48<<10), 0, true)
		ctx := exec.NewContext()
		ctx.Alloc = alloc
		rows, err := exec.Execute(ctx, Parallelize(plan, NewPool(4), 4, schema.DefaultBatchSize))
		if err != nil {
			t.Fatalf("%v\n%s", err, rel.Explain(plan))
		}
		got := renderRows(rows)
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("governed parallel rows differ from serial (%d vs %d rows)\n%s", len(got), len(want), rel.Explain(plan))
		}
		if alloc.Spilled() == 0 {
			t.Fatalf("a 48KiB budget did not spill\n%s", rel.Explain(plan))
		}
		alloc.Close()
	}
}

// TestGovernedParallelAggregateTeardown is the plan-level regression test for
// the governed parallel aggregate that used to hang: 20 000 groups under a
// 300 KiB budget at 4 workers. With spilling enabled every stage (partial
// workers, gather, final merge) must complete; with spilling disabled
// the budget error must surface at the root. Either way the query returns
// within the deadline, and afterwards no goroutine and no spill file is left
// behind. (TestFailingGatherPartitionTearsDownSiblings pins the exchange
// mechanism itself.)
func TestGovernedParallelAggregateTeardown(t *testing.T) {
	rows := make([][]any, 20000)
	for i := range rows {
		rows[i] = []any{int64(i), "group-key-" + strings.Repeat("x", i%7)}
	}
	tbl := schema.NewMemTable("t", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "pad", Type: types.Varchar},
	), rows)
	agg := exec.NewAggregate(exec.NewScan(tbl, []string{"t"}), []int{0}, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggMin, []int{1}, false, "m"),
	})
	baseline := runtime.NumGoroutine()
	for _, spill := range []bool{false, true} {
		pool := NewPool(4)
		alloc := memory.NewAllocator(memory.NewPool(300<<10), 0, spill)
		ctx := exec.NewContext()
		ctx.Alloc = alloc
		type outcome struct {
			rows [][]any
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			rows, err := exec.Execute(ctx, Parallelize(agg, pool, 4, schema.DefaultBatchSize))
			done <- outcome{rows, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("spill=%v: governed parallel aggregate did not return", spill)
		}
		switch {
		case spill && (out.err != nil || len(out.rows) != len(rows)):
			t.Fatalf("spill enabled: %d rows, err %v; want %d rows", len(out.rows), out.err, len(rows))
		case !spill && !errors.Is(out.err, memory.ErrBudgetExceeded):
			t.Fatalf("spill disabled: err = %v, want the budget error", out.err)
		}
		dir := alloc.SpillDir()
		if err := alloc.Close(); err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Fatalf("spill=%v: spill dir %s survived teardown", spill, dir)
			}
		}
	}
	// Producers unwind asynchronously once their exchange is cancelled, and
	// resident pool workers linger for poolIdleTimeout.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines alive after teardown, baseline %d", n, baseline)
	}
}

// settled waits for a torn-down query to give everything back — producers
// unwind asynchronously once their exchange is cancelled — and reports what
// is still held: reserved bytes, files in the spill directory (removed by the
// operators themselves, before the allocator closes), goroutines above the
// baseline (resident pool workers linger for poolIdleTimeout).
func settled(t *testing.T, name string, alloc *memory.Allocator, baseline int) {
	t.Helper()
	files := func() int {
		ents, _ := os.ReadDir(alloc.SpillDir())
		return len(ents)
	}
	deadline := time.Now().Add(5 * time.Second)
	for (alloc.Used() != 0 || files() != 0 || runtime.NumGoroutine() > baseline) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if used, left, n := alloc.Used(), files(), runtime.NumGoroutine(); used != 0 || left != 0 || n > baseline {
		t.Errorf("%s: %d bytes reserved, %d spill files, %d goroutines (baseline %d) after teardown",
			name, used, left, n, baseline)
	}
	if err := alloc.Close(); err != nil {
		t.Error(err)
	}
}

// TestParallelSortAndWindowTeardown: the failure paths of the sort kernel
// under a sort and under a window, which both run serially over a gather. A
// denied grant with spilling disabled, a source that fails while the other
// partitions are still feeding the gather, and a consumer that closes the
// plan after its first batch of a spilled run each return promptly, with a
// clean error or nothing, and leave no reservation, no run file and no
// goroutine.
func TestParallelSortAndWindowTeardown(t *testing.T) {
	boom := errors.New("backend failed mid-query")
	rowType := types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "payload", Type: types.Varchar},
	)
	failing := exec.NewScan(&failingTable{MemTable: schema.NewMemTable("t", rowType, nil), batches: 40, err: boom}, []string{"t"})
	plans := func(scan rel.Node) map[string]rel.Node {
		return map[string]rel.Node{
			"sort": exec.NewSort(scan, trait.Collation{{Field: 1}, {Field: 0, Direction: trait.Descending}}, 0, -1),
			"window": exec.NewWindow(scan, []rel.WindowGroup{{
				PartitionKeys: []int{1},
				OrderKeys:     trait.Collation{{Field: 0}},
				Frame:         rel.WindowFrame{Rows: true, Lo: -2},
				Calls:         []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")},
			}}),
		}
	}
	baseline := runtime.NumGoroutine()
	within := func(name string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%s did not return", name)
		}
	}
	for op, plan := range plans(memScan(t, "t", 6000)) {
		par := Parallelize(plan, NewPool(4), 4, schema.DefaultBatchSize)
		text := rel.Explain(par)
		want := map[string]string{"sort": "EnumerableSort", "window": "EnumerableWindow"}[op]
		if _, ok := par.Inputs()[0].(*Exchange); !ok || par.Op() != want {
			t.Fatalf("%s is not an %s over a GatherExchange:\n%s", op, want, text)
		}

		ctx := exec.NewContext()
		ctx.Alloc = memory.NewAllocator(memory.NewPool(24<<10), 0, false)
		within(op+" without spill", func() {
			if _, err := exec.Execute(ctx, par); !errors.Is(err, memory.ErrBudgetExceeded) {
				t.Errorf("%s, spill disabled: err = %v, want the budget error", op, err)
			}
		})
		settled(t, op+" without spill", ctx.Alloc, baseline)

		ctx = exec.NewContext()
		ctx.Alloc = memory.NewAllocator(memory.NewPool(24<<10), 0, true)
		within(op+" closed early", func() {
			bc, err := exec.BindBatch(ctx, par)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := bc.NextBatch(); err != nil {
				t.Error(err)
			}
			bc.Close()
		})
		if ctx.Alloc.Spilled() == 0 {
			t.Errorf("%s: a 24 KiB budget did not spill", op)
		}
		settled(t, op+" closed early", ctx.Alloc, baseline)
	}
	for op, plan := range plans(failing) {
		ctx := exec.NewContext()
		ctx.Alloc = memory.NewAllocator(memory.NewPool(32<<10), 0, true)
		within(op+" over a failing source", func() {
			if _, err := exec.Execute(ctx, Parallelize(plan, NewPool(4), 4, schema.DefaultBatchSize)); !errors.Is(err, boom) {
				t.Errorf("%s over a failing source: err = %v, want %v", op, err, boom)
			}
		})
		if ctx.Alloc.Spilled() == 0 {
			t.Errorf("%s over a failing source never spilled; the teardown path was not exercised", op)
		}
		settled(t, op+" over a failing source", ctx.Alloc, baseline)
	}
}

var _ rel.Node = (*MorselScan)(nil)
