package exec

import (
	"fmt"
	"math"
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
		out, err := s.emitReady(vecs[0].I64[batchSize-1])
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			emitted += out.Len
		}
	}
	out, err := s.emitReady(math.MaxInt64)
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
	out, err := s.emitReady(10 * gapMs)
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

// Routing a batch over the pane machines puts every row of a key in one
// machine's selection, reads the key vectors only — a typed batch is routed
// without boxing a value — and reuses its selections and key scratch, so a
// routed batch allocates nothing.
func TestStreamAggRoutingColocatesKeysFromKeyVectors(t *testing.T) {
	const n, width, p = 1024, 10, 4
	rowType := types.Row(types.Field{Name: "rowtime", Type: types.Timestamp})
	for c := 1; c < width; c++ {
		rowType.Fields = append(rowType.Fields, types.Field{Name: fmt.Sprintf("c%d", c), Type: types.BigInt})
	}
	sa := NewStreamAgg(NewScan(schema.NewMemTable("events", rowType, nil), []string{"events"}),
		rel.StreamWindow{Kind: rel.TumbleWindow, RowtimeCol: 0, SizeMs: 1000}, 0, []int{3},
		[]rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
	vecs := make([]*schema.Vector, width)
	for c := range vecs {
		d := make([]int64, n)
		for r := range d {
			d[r] = int64(1_000_000 + r%97*width + c) // beyond the runtime's small-int boxes
		}
		vecs[c] = &schema.Vector{Kind: schema.VecInt64, I64: d}
	}
	b := &schema.Batch{Len: n, Vecs: vecs}
	sel := iotaSel(nil, n)
	c := BindStreamAggOver(NewContext(), sa.StreamAggregate, nil, p, nil).(*streamAggCursor)
	c.route(b, sel)
	home := map[int64]int{}
	routed := 0
	for m, s := range c.sels {
		for _, r := range s {
			k := vecs[3].I64[r]
			if h, ok := home[k]; ok && h != m {
				t.Fatalf("key %d routed to machines %d and %d", k, h, m)
			}
			home[k] = m
			routed++
		}
	}
	if routed != n || len(home) != 97 {
		t.Fatalf("routed %d rows of %d keys, want %d of 97", routed, len(home), n)
	}
	if allocs := testing.AllocsPerRun(10, func() { c.route(b, sel) }); allocs != 0 {
		t.Fatalf("routing one typed %d×%d batch allocated %.0f objects", n, width, allocs)
	}
}

// A key's rows reach the one pane machine that owns its state whatever
// vector carries them: a typed key vector in one batch and a boxed (VecAny)
// one in the next — a column demoted by a value of another kind — route each
// key, NULL included, to the same machine, and every machine's share of a
// two-column key is colocated as types.HashRowKey groups it.
func TestStreamAggRoutingColocatesBoxedKeys(t *testing.T) {
	const n, p = 60, 3
	rowType := types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "g", Type: types.Varchar},
	)
	sa := NewStreamAgg(NewScan(schema.NewMemTable("events", rowType, nil), []string{"events"}),
		rel.StreamWindow{Kind: rel.TumbleWindow, RowtimeCol: 0, SizeMs: 1000}, 0, []int{1, 2},
		[]rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
	c := BindStreamAggOver(NewContext(), sa.StreamAggregate, nil, p, nil).(*streamAggCursor)
	home := map[string]int{}
	check := func(name string, b *schema.Batch) {
		t.Helper()
		c.route(b, iotaSel(nil, b.Len))
		routed := 0
		for m, s := range c.sels {
			for _, r := range s {
				k := types.HashRowKey(b.Row(int(r)), []int{1, 2})
				if h, ok := home[k]; ok && h != m {
					t.Fatalf("%s: key %q routed to machine %d, earlier to %d", name, k, m, h)
				}
				home[k] = m
				routed++
			}
		}
		if routed != b.Len {
			t.Fatalf("%s: routed %d rows of %d", name, routed, b.Len)
		}
	}
	typed := make([]int64, n)
	groups := make([]string, n)
	boxed := make([]any, n)
	for r := range typed {
		typed[r] = int64(r % 7)
		groups[r] = string(rune('a' + r%3))
		boxed[r] = int64(r % 7)
	}
	boxed[5], boxed[11] = nil, "x" // a NULL key and a value of another kind
	ts := &schema.Vector{Kind: schema.VecInt64, I64: make([]int64, n)}
	g := &schema.Vector{Kind: schema.VecString, S: groups}
	check("typed", &schema.Batch{Len: n, Vecs: []*schema.Vector{ts, {Kind: schema.VecInt64, I64: typed}, g}})
	check("boxed", &schema.Batch{Len: n, Vecs: []*schema.Vector{ts, {Kind: schema.VecAny, A: boxed}, g}})
	nulls := make([]bool, n)
	nulls[0], nulls[5] = true, true // row 5's key is also NULL in the boxed batch
	check("typed with NULLs", &schema.Batch{Len: n, Vecs: []*schema.Vector{ts, {Kind: schema.VecInt64, I64: typed, Nulls: nulls}, g}})
	if len(home) != 7*3+3 {
		t.Fatalf("saw %d keys, want %d", len(home), 7*3+3)
	}
}
