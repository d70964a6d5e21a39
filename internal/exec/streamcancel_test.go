package exec

// Failure paths of a continuous query: a client cancel landing at a random
// batch of the stream, before the standing window state first spills and
// after it has, and a fold that fails after the state has spilled. Each must
// fail promptly and give everything back: no reserved bytes, no spill file,
// a zero state-bytes gauge, no goroutine.

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// cancelingStream is a stream table whose scan raises the query's interrupt
// flag when batch number at is requested: the cancel arrives mid-stream.
type cancelingStream struct {
	*schema.MemTable
	at   int
	flag *atomic.Bool
	// raised records when the flag went up.
	raised atomic.Int64
}

func (t *cancelingStream) RowtimeColumn() int { return 0 }

func (t *cancelingStream) ScanBatches(batchSize int) (schema.BatchCursor, error) {
	in, err := t.MemTable.ScanBatches(batchSize)
	if err != nil {
		return nil, err
	}
	return &cancelingCursor{in: in, t: t}, nil
}

type cancelingCursor struct {
	in schema.BatchCursor
	t  *cancelingStream
	n  int
}

func (c *cancelingCursor) NextBatch() (*schema.Batch, error) {
	if c.n == c.t.at {
		c.t.raised.Store(time.Now().UnixNano())
		c.t.flag.Store(true)
	}
	c.n++
	return c.in.NextBatch()
}

func (c *cancelingCursor) Close() error { return c.in.Close() }

// checkStreamReleased asserts what checkReleased does, that the state-bytes
// gauge reads zero, and that no goroutine outlives the query.
func checkStreamReleased(t *testing.T, name string, a *memory.Allocator, baseline int) {
	t.Helper()
	checkReleased(t, name, a)
	if n := StreamStateBytes(); n != 0 {
		t.Errorf("%s: state-bytes gauge reads %d after teardown", name, n)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%s: %d goroutines alive after teardown, baseline %d", name, n, baseline)
	}
}

func TestStreamAggCancelReleasesState(t *testing.T) {
	const batches, batchSize = 60, 128
	rows := make([][]any, batches*batchSize)
	ts := int64(0)
	for i := range rows {
		ts += int64(i % 11 * 40)
		rows[i] = []any{ts, int64(i % 37), int64(i % 1009)}
	}
	rowType := types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	)
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	baseline := runtime.NumGoroutine()
	// "before": a budget the state never outgrows, cancel in the first half;
	// "after": a budget it outgrows at once, cancel in the second half.
	for _, tc := range []struct {
		name   string
		budget int64
		lo, hi int
	}{
		{"before the first spill", 64 << 20, 1, batches / 2},
		{"after the first spill", 16 << 10, batches / 2, batches - 1},
	} {
		flag := &atomic.Bool{}
		tbl := &cancelingStream{MemTable: schema.NewMemTable("events", rowType, rows),
			at: tc.lo + rng.Intn(tc.hi-tc.lo), flag: flag}
		plan := NewStreamAgg(NewScan(tbl, []string{"events"}),
			rel.StreamWindow{Kind: rel.HopWindow, RowtimeCol: 0, SizeMs: 8000, SlideMs: 1000},
			600_000, []int{1}, []rex.AggCall{
				rex.NewAggCall(rex.AggCount, nil, false, "c"),
				rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
				rex.NewAggCall(rex.AggCount, []int{2}, true, "d"),
			})
		ctx := NewContext()
		ctx.BatchSize = batchSize
		pool := memory.NewPool(tc.budget)
		ctx.Alloc = memory.NewAllocator(pool, 0, true)
		ctx.Interrupt = flag
		_, err := Execute(ctx, plan)
		returned := time.Now()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s (cancel at batch %d): err = %v, want %v", tc.name, tbl.at, err, ErrCanceled)
		}
		if wait := returned.Sub(time.Unix(0, tbl.raised.Load())); wait > 2*time.Second {
			t.Errorf("%s: returned %v after the cancel", tc.name, wait)
		}
		spilled := pool.Counters().SpillEvents > 0
		if want := tc.budget < 1<<20; spilled != want {
			t.Errorf("%s (cancel at batch %d): spilled = %v, want %v", tc.name, tbl.at, spilled, want)
		}
		checkStreamReleased(t, tc.name, ctx.Alloc, baseline)
	}
}

// TestStreamAggFoldErrorReleasesState: a fold that fails — a rowtime that is
// not a timestamp, after the standing state has spilled — fails a keyed HOP
// query with the rowtime error, and the query gives everything back: no
// reserved bytes, no spill file, no goroutine.
func TestStreamAggFoldErrorReleasesState(t *testing.T) {
	const n, badAt = 6000, 4000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i * 50), int64(i % 37), int64(i % 1009)}
	}
	rows[badAt][0] = "not a time"
	rowType := types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	)
	// A stream table that never cancels.
	tbl := &cancelingStream{MemTable: schema.NewMemTable("events", rowType, rows), at: -1, flag: &atomic.Bool{}}
	plan := NewStreamAgg(NewScan(tbl, []string{"events"}),
		rel.StreamWindow{Kind: rel.HopWindow, RowtimeCol: 0, SizeMs: 8000, SlideMs: 1000},
		600_000, []int{1}, []rex.AggCall{
			rex.NewAggCall(rex.AggCount, nil, false, "c"),
			rex.NewAggCall(rex.AggCount, []int{2}, true, "d"),
		})
	baseline := runtime.NumGoroutine()
	ctx := NewContext()
	ctx.BatchSize = 128
	pool := memory.NewPool(16 << 10)
	ctx.Alloc = memory.NewAllocator(pool, 0, true)
	_, err := Execute(ctx, plan)
	if err == nil || !strings.Contains(err.Error(), "holds string, want a timestamp") {
		t.Fatalf("err = %v, want the rowtime error", err)
	}
	if pool.Counters().SpillEvents == 0 {
		t.Error("the state never spilled before the failure; the spill teardown was not exercised")
	}
	checkStreamReleased(t, "fold error", ctx.Alloc, baseline)
}
