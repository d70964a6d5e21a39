package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// --- pool ---

func TestPoolRunPropagatesFirstError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	var cancelled atomic.Int32
	err := p.Run(nil, 4, func(ctx context.Context, i int) error {
		if i == 2 {
			return boom
		}
		<-ctx.Done() // siblings wait for the cancellation fan-out
		cancelled.Add(1)
		return nil
	})
	if err != boom {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if cancelled.Load() != 3 {
		t.Errorf("cancelled %d sibling tasks, want 3", cancelled.Load())
	}
}

func TestPoolReusesResidentWorkers(t *testing.T) {
	p := NewPool(2)
	// Sequential bursts: the first task spawns a worker, which lingers; once
	// the pool reports it idle, every later task must be handed to it —
	// however long the scheduler takes to get the worker there.
	for round := 0; round < 5; round++ {
		done := make(chan struct{})
		p.Go(func() { close(done) })
		<-done
		for p.idle.Load() == 0 {
			runtime.Gosched()
		}
	}
	if spawned, handoffs := p.Stats(); spawned != 1 || handoffs != 4 {
		t.Fatalf("spawned=%d handoffs=%d, want 1 spawn and 4 hand-offs", spawned, handoffs)
	}
}

// --- morsels ---

func seqBatches(n int) []*schema.Batch {
	out := make([]*schema.Batch, n)
	for i := range out {
		out[i] = schema.BatchFromRows([][]any{{int64(i)}}, 1)
	}
	return out
}

func TestMorselsCoverInputExactlyOnce(t *testing.T) {
	const n, p = 20, 4
	parts := MorselsOn(nil, schema.NewSliceBatchCursor(seqBatches(n)), p)
	var mu sync.Mutex
	got := map[int64]bool{}
	var wg sync.WaitGroup
	for _, part := range parts {
		part := part
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer part.Close()
			for {
				b, err := part.NextBatch()
				if err == schema.Done {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if got[b.Seq] {
					t.Errorf("morsel seq %d dispensed twice", b.Seq)
				}
				got[b.Seq] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("dispensed %d morsels, want %d", len(got), n)
	}
}

// --- exchanges ---

func TestGatherRestoresSeqOrder(t *testing.T) {
	pool := NewPool(4)
	// Three partitions holding interleaved slices of the seq space, each
	// internally ascending (the dispenser invariant).
	mk := func(seqs ...int64) schema.BatchCursor {
		var bs []*schema.Batch
		for _, s := range seqs {
			b := schema.BatchFromRows([][]any{{s}}, 1)
			bs = append(bs, b)
		}
		cur := schema.NewSliceBatchCursor(bs)
		// Pre-set the seqs after construction (SliceBatchCursor assigns
		// positional seqs on NextBatch, so wrap it).
		return &seqOverrideCursor{cur: cur, seqs: seqs}
	}
	g := Gather(pool, []schema.BatchCursor{
		mk(0, 3, 6), mk(1, 4, 7), mk(2, 5, 8),
	})
	defer g.Close()
	var got []int64
	for {
		b, err := g.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.Seq)
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("gather order %v not ascending", got)
		}
	}
	if len(got) != 9 {
		t.Fatalf("gathered %d batches, want 9", len(got))
	}
}

type seqOverrideCursor struct {
	cur  *schema.SliceBatchCursor
	seqs []int64
	pos  int
}

func (c *seqOverrideCursor) NextBatch() (*schema.Batch, error) {
	b, err := c.cur.NextBatch()
	if err != nil {
		return nil, err
	}
	b.Seq = c.seqs[c.pos]
	c.pos++
	return b, nil
}

func (c *seqOverrideCursor) Close() error { return c.cur.Close() }

type errCursor struct{ err error }

func (c *errCursor) NextBatch() (*schema.Batch, error) { return nil, c.err }
func (c *errCursor) Close() error                      { return nil }

func TestGatherPropagatesWorkerError(t *testing.T) {
	pool := NewPool(2)
	boom := errors.New("worker exploded")
	g := Gather(pool, []schema.BatchCursor{
		schema.NewSliceBatchCursor(seqBatches(3)),
		&errCursor{err: boom},
	})
	defer g.Close()
	var err error
	for err == nil {
		_, err = g.NextBatch()
	}
	if err != boom {
		t.Fatalf("gather error = %v, want %v", err, boom)
	}
}

// failAfterCursor passes n batches of in through, then fails.
type failAfterCursor struct {
	in  schema.BatchCursor
	n   int
	err error
}

func (c *failAfterCursor) NextBatch() (*schema.Batch, error) {
	if c.n == 0 {
		return nil, c.err
	}
	c.n--
	return c.in.NextBatch()
}

func (c *failAfterCursor) Close() error { return c.in.Close() }

// endlessCursor produces batches until it is closed, counting its Close.
type endlessCursor struct {
	seq    int64
	closed *atomic.Int32
}

func (c *endlessCursor) NextBatch() (*schema.Batch, error) {
	b := schema.BatchFromRows([][]any{{c.seq}}, 1)
	b.Seq = c.seq
	c.seq++
	return b, nil
}

func (c *endlessCursor) Close() error {
	c.closed.Add(1)
	return nil
}

// TestFailingGatherPartitionTearsDownSiblings: when one partition of a
// gather fails, the gather reports that error without waiting for its
// siblings — which never end on their own here — and its Close unblocks the
// producers parked on full channels, which close every partition.
func TestFailingGatherPartitionTearsDownSiblings(t *testing.T) {
	boom := errors.New("partition failed")
	var closed atomic.Int32
	parts := make([]schema.BatchCursor, 4)
	for i := range parts {
		parts[i] = &endlessCursor{closed: &closed}
	}
	parts[2] = &failAfterCursor{in: parts[2], n: 1, err: boom}
	g := Gather(NewPool(4), parts)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := g.NextBatch(); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("gather error = %v, want %v", err, boom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("gather over a failed partition never returned")
	}
	g.Close()
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() < int32(len(parts)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := closed.Load(); n != int32(len(parts)) {
		t.Fatalf("%d of %d partitions closed after teardown", n, len(parts))
	}
}

// --- rewrite shape ---

func memScan(t *testing.T, name string, nRows int) *exec.Scan {
	t.Helper()
	rows := make([][]any, nRows)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i % 5)}
	}
	tbl := schema.NewMemTable(name, types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "grp", Type: types.BigInt},
	), rows)
	return exec.NewScan(tbl, []string{name})
}

// planOps renders a plan whose every node has at most one input as its
// operators from the root down.
func planOps(n rel.Node) string {
	var ops []string
	for ; ; n = n.Inputs()[0] {
		ops = append(ops, n.Op())
		if len(n.Inputs()) == 0 {
			return strings.Join(ops, " > ")
		}
	}
}

// TestGatherClosedEarlyTearsDownPartitions: a consumer that stops reading
// (a LIMIT satisfied) closes the gather without an error; the producers
// parked on full channels unwind and close every partition — which would
// never end on their own — and the closed gather reports end of stream.
func TestGatherClosedEarlyTearsDownPartitions(t *testing.T) {
	var closed atomic.Int32
	parts := make([]schema.BatchCursor, 4)
	for i := range parts {
		parts[i] = &endlessCursor{closed: &closed}
	}
	g := Gather(NewPool(4), parts)
	for i := 0; i < 3; i++ {
		if _, err := g.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() < int32(len(parts)) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := closed.Load(); n != int32(len(parts)) {
		t.Fatalf("%d of %d partitions closed after the consumer's Close", n, len(parts))
	}
	if _, err := g.NextBatch(); err != schema.Done {
		t.Fatalf("NextBatch after Close = %v, want end of stream", err)
	}
}

// TestParallelizeInsertsExchanges pins the aggregate's parallel shape, keyed
// and global: per-worker partial states over the morsels, gathered into one
// final merge.
func TestParallelizeInsertsExchanges(t *testing.T) {
	pool := NewPool(4)
	filter := exec.NewFilter(memScan(t, "t", 2000), rex.NewCall(rex.OpGreater,
		rex.NewInputRef(0, types.BigInt), rex.NewLiteral(int64(10), types.BigInt)))
	for _, keys := range [][]int{{1}, nil} {
		agg := exec.NewAggregate(filter, keys, []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
		plan := Parallelize(agg, pool, 4, schema.DefaultBatchSize)
		want := "ParallelFinalAggregate > GatherExchange > ParallelPartialAggregate > EnumerableFilter > MorselScan"
		if got := planOps(plan); got != want {
			t.Errorf("keys %v: plan %s, want %s", keys, got, want)
		}
		if dist := plan.Traits().Distribution; dist.Kind != trait.DistSingleton {
			t.Errorf("keys %v: root distribution = %s, want singleton", keys, dist)
		}
		if got, want := plan.RowType().String(), agg.RowType().String(); got != want {
			t.Errorf("keys %v: final row type %s, want the aggregate's %s", keys, got, want)
		}
	}
}

// streamTable is a stream over a MemTable, whose scan the rewrite keeps
// serial.
type streamTable struct{ *schema.MemTable }

func (streamTable) RowtimeColumn() int { return 0 }

// TestParallelizeStreamAggregate pins the stream aggregate's parallel shape:
// every window kind, keyed or global, stays the serial operator straight
// over its serial stream scan, one stream with no exchange.
func TestParallelizeStreamAggregate(t *testing.T) {
	tbl := streamTable{schema.NewMemTable("events", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
	), nil)}
	scan := exec.NewScan(tbl, []string{"events"})
	count := []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")}
	const want = "EnumerableStreamAggregate > EnumerableTableScan"
	for _, tc := range []struct {
		win  rel.StreamWindow
		keys []int
	}{
		{rel.StreamWindow{Kind: rel.TumbleWindow, SizeMs: 1000}, []int{1}},
		{rel.StreamWindow{Kind: rel.HopWindow, SizeMs: 3000, SlideMs: 1000}, []int{1}},
		{rel.StreamWindow{Kind: rel.TumbleWindow, SizeMs: 1000}, nil},
		{rel.StreamWindow{Kind: rel.SessionWindow, GapMs: 1000}, []int{1}},
	} {
		plan := Parallelize(exec.NewStreamAgg(scan, tc.win, 0, tc.keys, count), NewPool(4), 4, schema.DefaultBatchSize)
		if got := planOps(plan); got != want {
			t.Errorf("%v keys %v: plan %s, want %s", tc.win.Kind, tc.keys, got, want)
		}
		if dist := plan.Traits().Distribution; dist.Partitioned() {
			t.Errorf("%v keys %v: root distribution = %s, want one stream", tc.win.Kind, tc.keys, dist)
		}
	}
}

func TestParallelizeKeepsRightJoinSerial(t *testing.T) {
	pool := NewPool(4)
	l := memScan(t, "l", 2000)
	rscan := memScan(t, "r", 2000)
	cond := rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	join := exec.NewHashJoin(rel.RightJoin, l, rscan, cond)
	plan := Parallelize(join, pool, 4, schema.DefaultBatchSize)
	text := rel.Explain(plan)
	if strings.Contains(text, "ParallelHashJoin") {
		t.Errorf("right join must stay serial:\n%s", text)
	}
	if !strings.Contains(text, "GatherExchange") {
		t.Errorf("right join inputs should gather:\n%s", text)
	}
}

// TestParallelizeJoins pins the one join rewrite: a join with a partitioned
// input becomes ParallelHashJoin over its inputs as they are — a serial probe
// is one probe partition, with no exchange in front of it — and a join
// without equi keys parallelizes like any other, over one in-memory build.
func TestParallelizeJoins(t *testing.T) {
	tuples := make([][]rex.Node, 40)
	for i := range tuples {
		tuples[i] = []rex.Node{rex.NewLiteral(int64(i), types.BigInt), rex.NewLiteral(int64(i%5), types.BigInt)}
	}
	values := exec.NewValues(memScan(t, "v", 0).RowType(), tuples)
	less := rex.NewCall(rex.OpLess, rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	cases := []struct {
		name string
		join *exec.HashJoin
	}{
		{"serial probe", exec.NewHashJoin(rel.InnerJoin, values, memScan(t, "r", 2000), joinConds()[0])},
		{"keyless", exec.NewHashJoin(rel.InnerJoin, memScan(t, "l", 2000), memScan(t, "r", 50), less)},
	}
	for _, c := range cases {
		plan := Parallelize(c.join, NewPool(4), 4, schema.DefaultBatchSize)
		par, ok := plan.Inputs()[0].(*HashJoinPar)
		if !ok {
			t.Fatalf("%s: want a gathered ParallelHashJoin:\n%s", c.name, rel.Explain(plan))
		}
		if _, ok := par.Left().(*Exchange); ok {
			t.Errorf("%s: an exchange feeds the probe:\n%s", c.name, rel.Explain(plan))
		}
		checkAgainstSerial(t, c.join)
	}
}

// TestParallelizeOneMorselScanStaysSerial: a scan whose table reports at most
// one morsel of rows stays serial, so operators over only such inputs run
// with no exchange, while a larger (or unknown) table still splits into
// morsels — a one-morsel build under a multi-morsel probe included.
func TestParallelizeOneMorselScanStaysSerial(t *testing.T) {
	pool := NewPool(4)
	for _, tc := range []struct {
		rows, morsel int
		want         string
	}{
		{1024, schema.DefaultBatchSize, "EnumerableTableScan"},
		{1025, schema.DefaultBatchSize, "GatherExchange > MorselScan"},
		{10, 3, "GatherExchange > MorselScan"},
		{0, schema.DefaultBatchSize, "GatherExchange > MorselScan"}, // unknown row count
	} {
		if got := planOps(Parallelize(memScan(t, "t", tc.rows), pool, 4, tc.morsel)); got != tc.want {
			t.Errorf("%d rows, morsel %d: plan %s, want %s", tc.rows, tc.morsel, got, tc.want)
		}
	}

	// A join, an aggregate and a sort over one-morsel scans: the serial plan.
	join := exec.NewHashJoin(rel.InnerJoin, memScan(t, "l", 100), memScan(t, "r", 10), joinConds()[0])
	agg := exec.NewAggregate(join, []int{1}, []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
	small := exec.NewSort(agg, trait.Collation{{Field: 0}}, 0, -1)
	text := rel.Explain(Parallelize(small, pool, 4, schema.DefaultBatchSize))
	if strings.Contains(text, "GatherExchange") || strings.Contains(text, "Parallel") || text != rel.Explain(small) {
		t.Errorf("one-morsel scans: want the serial plan, got\n%s", text)
	}

	// A multi-morsel probe over a one-morsel build: one build partition.
	big := exec.NewHashJoin(rel.InnerJoin, memScan(t, "l", 3000), memScan(t, "r", 100), joinConds()[0])
	plan := Parallelize(big, pool, 4, schema.DefaultBatchSize)
	par, ok := plan.Inputs()[0].(*HashJoinPar)
	if !ok {
		t.Fatalf("want a gathered ParallelHashJoin:\n%s", rel.Explain(plan))
	}
	if _, ok := par.Right().(*exec.Scan); !ok {
		t.Errorf("the one-morsel build should be a serial scan:\n%s", rel.Explain(plan))
	}
	if text = rel.Explain(plan); !strings.Contains(text, "MorselScan(table=[l]") {
		t.Errorf("the multi-morsel probe should be a MorselScan:\n%s", text)
	}
	checkAgainstSerial(t, big)
}

func TestParallelizeSerialWhenPIsOne(t *testing.T) {
	scan := memScan(t, "t", 10)
	if got := Parallelize(scan, NewPool(1), 1, schema.DefaultBatchSize); got != scan {
		t.Error("p=1 must return the plan unchanged")
	}
}

// --- end-to-end operator checks against the serial engine ---

func runPlan(t *testing.T, n rel.Node) [][]any {
	t.Helper()
	rows, err := exec.Execute(exec.NewContext(), n)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func renderRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

// checkAgainstSerial executes plan serially and in parallel at several
// worker counts and requires identical rows in identical order (the
// deterministic-gather guarantee).
func checkAgainstSerial(t *testing.T, plan rel.Node) {
	t.Helper()
	want := renderRows(runPlan(t, plan))
	for _, p := range []int{2, 4, 7} {
		pool := NewPool(p)
		got := renderRows(runPlan(t, Parallelize(plan, pool, p, schema.DefaultBatchSize)))
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d rows, want %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d row %d: got %s, want %s", p, i, got[i], want[i])
			}
		}
	}
}

func TestParallelFilterProjectMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 5000)
	filter := exec.NewFilter(scan, rex.NewCall(rex.OpGreater,
		rex.NewInputRef(0, types.BigInt), rex.NewLiteral(int64(100), types.BigInt)))
	proj := exec.NewProject(filter,
		[]rex.Node{rex.NewInputRef(0, types.BigInt), rex.NewInputRef(1, types.BigInt)},
		[]string{"id", "grp"})
	checkAgainstSerial(t, proj)
}

// TestParallelBareFilterMatchesSerial pins the exchange-boundary ownership
// rule: the filter recycles its selection buffer batch-over-batch, so the
// gather must detach batches before buffering them in channels. (A project
// on top would mask the bug by materializing fresh columns.)
func TestParallelBareFilterMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 5000)
	filter := exec.NewFilter(scan, rex.NewCall(rex.OpGreater,
		rex.NewInputRef(0, types.BigInt), rex.NewLiteral(int64(17), types.BigInt)))
	checkAgainstSerial(t, filter)
}

// joinConds are the condition shapes the parallel join shares with the serial
// one: a single equi-key, a composite key, and an equi-key with a residual.
func joinConds() []rex.Node {
	key := rex.Eq(rex.NewInputRef(1, types.BigInt), rex.NewInputRef(2, types.BigInt))
	return []rex.Node{
		key,
		rex.And(rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)),
			rex.Eq(rex.NewInputRef(1, types.BigInt), rex.NewInputRef(3, types.BigInt))),
		rex.And(key, rex.NewCall(rex.OpLess, rex.NewInputRef(0, types.BigInt), rex.NewInputRef(3, types.BigInt))),
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	for _, kind := range []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.SemiJoin, rel.AntiJoin} {
		for _, cond := range joinConds() {
			l := memScan(t, "l", 2000)
			r := memScan(t, "r", 300)
			checkAgainstSerial(t, exec.NewHashJoin(kind, l, r, cond))
		}
	}
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 4000)
	agg := exec.NewAggregate(scan, []int{1}, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggSum, []int{0}, false, "s"),
		rex.NewAggCall(rex.AggMin, []int{0}, false, "mn"),
		rex.NewAggCall(rex.AggMax, []int{0}, false, "mx"),
	})
	checkAgainstSerial(t, agg)
}

func TestParallelGlobalAggregateMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 4000)
	agg := exec.NewAggregate(scan, nil, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggAvg, []int{0}, false, "a"),
	})
	checkAgainstSerial(t, agg)
}

func TestParallelDistinctAggregateMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 4000)
	agg := exec.NewAggregate(scan, nil, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, []int{1}, true, "cd"),
		rex.NewAggCall(rex.AggSum, []int{1}, true, "sd"),
	})
	checkAgainstSerial(t, agg)
}

func TestParallelSortMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 3000)
	sortNode := exec.NewSort(scan, trait.Collation{
		{Field: 1, Direction: trait.Descending},
		{Field: 0, Direction: trait.Ascending},
	}, 0, -1)
	checkAgainstSerial(t, sortNode)
}

func TestParallelSortWithLimitMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 3000)
	sortNode := exec.NewSort(scan, trait.Collation{
		{Field: 1, Direction: trait.Descending},
	}, 7, 23)
	checkAgainstSerial(t, sortNode)
}

func TestParallelLimitMatchesSerial(t *testing.T) {
	scan := memScan(t, "t", 3000)
	limit := exec.NewLimit(scan, 5, 50)
	checkAgainstSerial(t, limit)
}

// TestParallelStableSortTies pins the stable-order guarantee: rows equal
// under the collation must come out in input order, like the serial
// sort.SliceStable.
func TestParallelStableSortTies(t *testing.T) {
	scan := memScan(t, "t", 2000) // grp has only 5 distinct values: many ties
	sortNode := exec.NewSort(scan, trait.Collation{{Field: 1, Direction: trait.Ascending}}, 0, -1)
	want := runPlan(t, sortNode)
	pool := NewPool(4)
	got := runPlan(t, Parallelize(sortNode, pool, 4, schema.DefaultBatchSize))
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] {
			t.Fatalf("tie order diverges at row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestParallelizeWindowIsSerial pins the window's parallel shape: a
// PARTITION BY window runs serially over a gather of the morsel scan — no
// per-worker window — and returns the serial run's rows in the serial order
// (checkAgainstSerial).
func TestParallelizeWindowIsSerial(t *testing.T) {
	win := exec.NewWindow(memScan(t, "t", 3000), []rel.WindowGroup{{
		PartitionKeys: []int{1},
		OrderKeys:     trait.Collation{{Field: 0, Direction: trait.Descending}},
		Frame:         rel.WindowFrame{Rows: true, Lo: -3},
		Calls: []rex.AggCall{
			rex.NewAggCall(rex.AggSum, []int{0}, false, "s"),
			rex.NewAggCall(rex.AggRowNumber, nil, false, "rn"),
		},
	}})
	for _, p := range []int{2, 4} {
		if got := planOps(Parallelize(win, NewPool(p), p, schema.DefaultBatchSize)); got != "EnumerableWindow > GatherExchange > MorselScan" {
			t.Errorf("p=%d: plan %s, want EnumerableWindow > GatherExchange > MorselScan", p, got)
		}
	}
	checkAgainstSerial(t, win)
}

// mergePartials folds each slice of vals in its own partial aggregate engine,
// as one worker of the parallel aggregate does, and merges the gathered
// state batches in a final engine: the partial/final split, driven directly.
func mergePartials(t *testing.T, call rex.AggCall, parts ...[]int64) [][]any {
	t.Helper()
	rowType := types.Row(types.Field{Name: "v", Type: types.BigInt})
	agg := exec.NewAggregate(exec.NewScan(schema.NewMemTable("t", rowType, nil), []string{"t"}), nil, []rex.AggCall{call})
	ctx := exec.NewContext()
	var states []*schema.Batch
	for w, vals := range parts {
		col := make([]any, len(vals))
		for i, v := range vals {
			col[i] = v
		}
		in := []*schema.Batch{{Len: len(col), Seq: int64(w), Vecs: []*schema.Vector{schema.BuildVector(col)}}}
		out, err := exec.NewGroupedAgg(ctx, "ParallelPartialAggregate", agg, exec.AggPartial).Drain(schema.NewSliceBatchCursor(in), nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			b, err := out.NextBatch()
			if err == schema.Done {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, b)
		}
		out.Close()
	}
	final, err := exec.NewGroupedAgg(ctx, "ParallelFinalAggregate", agg, exec.AggFinal).Drain(schema.NewSliceBatchCursor(states), nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := schema.RowCursorFromBatches(final)
	defer cur.Close()
	var rows [][]any
	for {
		row, err := cur.Next()
		if err == schema.Done {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, append([]any(nil), row...))
	}
}

// TestPartialStatesMergeSum exercises the partial/final split of SUM.
func TestPartialStatesMergeSum(t *testing.T) {
	var lo, hi []int64
	for i := int64(0); i < 10; i++ {
		lo, hi = append(lo, i), append(hi, i+10)
	}
	rows := mergePartials(t, rex.NewAggCall(rex.AggSum, []int{0}, false, "s"), lo, hi)
	if len(rows) != 1 || rows[0][0] != int64(190) {
		t.Fatalf("merged SUM = %v, want [[190]]", rows)
	}
}

// TestPartialStatesMergeDistinctDeduplicates: a value two partials both saw
// counts once in the merged COUNT(DISTINCT).
func TestPartialStatesMergeDistinctDeduplicates(t *testing.T) {
	rows := mergePartials(t, rex.NewAggCall(rex.AggCount, []int{0}, true, "c"), []int64{1, 2, 3}, []int64{2, 3, 4})
	if len(rows) != 1 || rows[0][0] != int64(4) {
		t.Fatalf("merged COUNT(DISTINCT) = %v, want [[4]]", rows)
	}
}
