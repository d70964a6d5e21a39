package exec

import (
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
