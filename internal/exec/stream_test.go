package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// A standing SESSION query over a key space that keeps growing (user or
// device ids) must hold only the keys with an open session: every event
// here carries a new key, so each session is one event long and closes a gap
// later, and the state must stay the size of one gap's worth of keys.
func TestStreamSessionStateStaysBounded(t *testing.T) {
	const batches, batchSize, stepMs, gapMs = 200, 64, 10, 100
	rowType := types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	)
	sa := NewStreamAgg(NewScan(schema.NewMemTable("events", rowType, nil), []string{"events"}),
		rel.StreamWindow{Kind: rel.SessionWindow, RowtimeCol: 0, GapMs: gapMs}, 0, []int{1},
		[]rex.AggCall{
			rex.NewAggCall(rex.AggCount, nil, false, "c"),
			rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
		})
	ctx := NewContext()
	ctx.Alloc = memory.NewAllocator(memory.NewPool(64<<20), 0, true)
	s := newStreamState(ctx, sa.StreamAggregate)

	var firstHeld, maxHeld int64
	maxKeys, emitted := 0, 0
	sel := make([]int32, batchSize)
	for i := range sel {
		sel[i] = int32(i)
	}
	for bi := 0; bi < batches; bi++ {
		vecs := []*schema.Vector{
			{Kind: schema.VecInt64, I64: make([]int64, batchSize)},
			{Kind: schema.VecInt64, I64: make([]int64, batchSize)},
			{Kind: schema.VecInt64, I64: make([]int64, batchSize)},
		}
		for i := range batchSize {
			n := int64(bi*batchSize + i)
			vecs[0].I64[i], vecs[1].I64[i], vecs[2].I64[i] = n*stepMs, n, n%7
		}
		if err := s.addBatch(&schema.Batch{Len: batchSize, Vecs: vecs, Seq: int64(bi)}, sel); err != nil {
			t.Fatal(err)
		}
		if bi == 0 {
			firstHeld = s.held()
		}
		maxKeys, maxHeld = max(maxKeys, len(s.sessions)), max(maxHeld, s.held())
		// The watermark (lateness 0) is the batch's last rowtime.
		out, err := s.emitReady(false)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			emitted += out.Len
		}
	}
	out, err := s.emitReady(true)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		emitted += out.Len
	}
	if want := batches * batchSize; emitted != want {
		t.Fatalf("emitted %d sessions, want %d", emitted, want)
	}
	// One batch's keys plus those a gap before it.
	if bound := batchSize + gapMs/stepMs; maxKeys > bound {
		t.Errorf("held sessions for up to %d keys, want at most %d", maxKeys, bound)
	}
	if maxHeld > 2*firstHeld {
		t.Errorf("charged up to %d bytes, want at most twice the first batch's %d", maxHeld, firstHeld)
	}
	if n, held := len(s.sessions), s.held(); n != 0 || held != 0 {
		t.Errorf("after the final drain: %d keys, %d bytes held; want none", n, held)
	}
}

// An emitted session lets go of its state: the values a COUNT(DISTINCT) and
// a MAX over strings retained, and its string key, are garbage once the
// session is out, though its row waits in the engine for the next session.
func TestStreamSessionReleasesEmittedState(t *testing.T) {
	const keys, perKey, gapMs = 64, 200, 100
	rowType := types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.Varchar},
		types.Field{Name: "v", Type: types.Varchar},
	)
	sa := NewStreamAgg(NewScan(schema.NewMemTable("events", rowType, nil), []string{"events"}),
		rel.StreamWindow{Kind: rel.SessionWindow, RowtimeCol: 0, GapMs: gapMs}, 0, []int{1},
		[]rex.AggCall{
			rex.NewAggCall(rex.AggCount, []int{2}, true, "d"),
			rex.NewAggCall(rex.AggMax, []int{2}, false, "m"),
		})
	ctx := NewContext()
	ctx.Alloc = memory.NewAllocator(memory.NewPool(64<<20), 0, true)
	s := newStreamState(ctx, sa.StreamAggregate)
	add := func(ts int64, n int, key, val func(i int) string) {
		vecs := []*schema.Vector{
			{Kind: schema.VecInt64, I64: make([]int64, n)},
			{Kind: schema.VecString, S: make([]string, n)},
			{Kind: schema.VecString, S: make([]string, n)},
		}
		sel := make([]int32, n)
		for i := range n {
			vecs[0].I64[i], vecs[1].S[i], vecs[2].S[i], sel[i] = ts, key(i), val(i), int32(i)
		}
		if err := s.addBatch(&schema.Batch{Len: n, Vecs: vecs}, sel); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	add(0, keys*perKey,
		func(i int) string { return fmt.Sprintf("key-%04d-%s", i%keys, strings.Repeat("k", 48)) },
		func(i int) string { return fmt.Sprintf("value-%06d-%s", i, strings.Repeat("v", 48)) })
	open := heap() - before
	// One late-arriving key moves the watermark past every session's gap.
	add(10*gapMs, 1, func(int) string { return "next" }, func(int) string { return "x" })
	out, err := s.emitReady(false)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Len != keys {
		t.Fatalf("emitted %v, want the %d sessions", out, keys)
	}
	out = nil
	left := heap() - before
	runtime.KeepAlive(s)
	if left > open/8 {
		t.Errorf("the %d emitted sessions held %d bytes open; %d are still reachable after emission", keys, open, left)
	}
}
