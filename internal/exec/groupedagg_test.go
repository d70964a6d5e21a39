package exec

// TestGroupedAggMatchesReference: the aggregation engine against a plain-Go
// evaluator, in every mode — complete, and one or three partial engines
// feeding a final one — each unlimited, under a budget that flushes, and
// under one that re-partitions down to spillMaxDepth.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"calcite/internal/memory"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// The reference input's columns: two key columns whose kind each trial
// picks, then the aggregated columns.
const (
	refK1  = iota // key; demoted to VecAny halfway through the input
	refK2         // key
	refVI         // int64 with the extremes; demoted to VecAny halfway
	refVF         // float64 half-integers, ±Inf, NaN and -0
	refVS         // string, "" included
	refFlt        // bool: the FILTER column
	refSV         // non-NULL only on each group's first live row
	refWidth
)

var refAggType = types.Row(
	types.Field{Name: "k1", Type: types.Any},
	types.Field{Name: "k2", Type: types.Any},
	types.Field{Name: "vi", Type: types.BigInt.WithNullable(true)},
	types.Field{Name: "vf", Type: types.Double.WithNullable(true)},
	types.Field{Name: "vs", Type: types.Varchar.WithNullable(true)},
	types.Field{Name: "flt", Type: types.Boolean.WithNullable(true)},
	types.Field{Name: "sv", Type: types.BigInt.WithNullable(true)},
)

// refAggCalls covers every aggregate function, a DISTINCT call and a FILTER
// call.
func refAggCalls() []rex.AggCall {
	filtered := rex.NewAggCall(rex.AggSum, []int{refVF}, false, "sum_vf_flt")
	filtered.FilterArg = refFlt
	return []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "n"),
		rex.NewAggCall(rex.AggCount, []int{refVF}, false, "count_vf"),
		rex.NewAggCall(rex.AggSum, []int{refVI}, false, "sum_vi"),
		rex.NewAggCall(rex.AggSum, []int{refVF}, false, "sum_vf"),
		rex.NewAggCall(rex.AggAvg, []int{refVF}, false, "avg_vf"),
		rex.NewAggCall(rex.AggMin, []int{refVI}, false, "min_vi"),
		rex.NewAggCall(rex.AggMax, []int{refVS}, false, "max_vs"),
		rex.NewAggCall(rex.AggMin, []int{refVF}, false, "min_vf"),
		rex.NewAggCall(rex.AggMax, []int{refVF}, false, "max_vf"),
		rex.NewAggCall(rex.AggCount, []int{refVI}, true, "distinct_vi"),
		rex.NewAggCall(rex.AggCollect, []int{refVS}, false, "collect_vs"),
		rex.NewAggCall(rex.AggSingleValue, []int{refSV}, false, "single_sv"),
		filtered,
	}
}

// genRefKey draws a key value of the given kind: small domains so groups
// repeat, NULLs, and the values whose grouping is subtle (integral floats
// fold onto int64 keys, -0 onto 0; NaN, ±Inf, "" and the int64 extremes).
func genRefKey(rng *rand.Rand, kind string) any {
	if rng.Intn(12) == 0 {
		return nil
	}
	d := rng.Intn(9)
	switch kind {
	case "int64":
		if rng.Intn(20) == 0 {
			return []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
		}
		return int64(d - 4)
	case "float64":
		if rng.Intn(15) == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}[rng.Intn(3)]
		}
		return float64(d-4) / 2
	}
	if d == 0 {
		return ""
	}
	return fmt.Sprintf("k%d", d)
}

// genRefValue draws one aggregated value of column c.
func genRefValue(rng *rand.Rand, c int) any {
	if rng.Intn(7) == 0 {
		return nil
	}
	switch c {
	case refVI:
		if rng.Intn(10) == 0 {
			return []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.Intn(4)]
		}
		return int64(rng.Intn(101) - 50)
	case refVF:
		// Half-integers sum exactly in any order, as do NaN and ±Inf, so
		// partial merges and spills must reproduce the serial sums bit for bit.
		if rng.Intn(25) == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}[rng.Intn(4)]
		}
		return float64(rng.Intn(401)-200) / 2
	case refVS:
		if rng.Intn(10) == 0 {
			return ""
		}
		return fmt.Sprintf("v%02d", rng.Intn(30))
	case refFlt:
		return rng.Intn(2) == 0
	}
	return nil
}

// genRefInput builds n rows in batches of the given size and returns the
// batches and their live rows in arrival order. Some batches carry a
// selection vector; from the middle of the input on, k1 and vi arrive as
// VecAny vectors holding the same kinds of values.
func genRefInput(rng *rand.Rand, keyKinds []string, keyCols []int, n, batch int) ([]*schema.Batch, [][]any) {
	type pending struct {
		cols [refWidth][]any
		sel  []int32
	}
	var parts []pending
	var live [][]any
	first := map[string]bool{}
	for made := 0; made < n; made += batch {
		phys := min(batch, n-made)
		var p pending
		for c := range p.cols {
			p.cols[c] = make([]any, phys)
		}
		dense := rng.Intn(3) == 0
		for r := 0; r < phys; r++ {
			for i, kind := range keyKinds {
				p.cols[i][r] = genRefKey(rng, kind)
			}
			for c := refVI; c < refSV; c++ {
				p.cols[c][r] = genRefValue(rng, c)
			}
			if !dense && rng.Intn(4) == 0 {
				// A dead row: its SINGLE_VALUE argument must never be seen.
				p.cols[refSV][r] = int64(-1)
				continue
			}
			p.sel = append(p.sel, int32(r))
			row := make([]any, refWidth)
			for c := range row {
				row[c] = p.cols[c][r]
			}
			if k := types.HashRowKey(row, keyCols); !first[k] {
				first[k] = true
				row[refSV] = int64(len(live))
				p.cols[refSV][r] = row[refSV]
			}
			live = append(live, row)
		}
		if dense {
			p.sel = nil
		}
		parts = append(parts, p)
	}
	batches := make([]*schema.Batch, len(parts))
	for i, p := range parts {
		b := &schema.Batch{Len: len(p.cols[0]), Seq: int64(i), Sel: p.sel, Vecs: make([]*schema.Vector, refWidth)}
		for c, col := range p.cols {
			b.Vecs[c] = schema.BuildVector(col)
			if 2*i >= len(parts) && (c == refK1 || c == refVI) {
				b.Vecs[c] = &schema.Vector{Kind: schema.VecAny, A: col}
			}
		}
		batches[i] = b
	}
	return batches, live
}

// refAggregate is the plain-Go evaluator: groups in first-seen order, each
// emitting its first-seen key values and refAggCalls' results.
func refAggregate(rows [][]any, keyCols []int) [][]any {
	var order []string
	groups := map[string][][]any{}
	for _, row := range rows {
		k := types.HashRowKey(row, keyCols)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], row)
	}
	if len(keyCols) == 0 && len(order) == 0 {
		order = []string{""} // a global aggregate over no rows still has its row
	}
	var out [][]any
	for _, k := range order {
		g := groups[k]
		var res []any
		for _, c := range keyCols {
			res = append(res, g[0][c])
		}
		nonNull := func(c int, keep func(row []any) bool) []any {
			var vals []any
			for _, row := range g {
				if row[c] != nil && (keep == nil || keep(row)) {
					vals = append(vals, row[c])
				}
			}
			return vals
		}
		sumInts := func(vals []any) any {
			if len(vals) == 0 {
				return nil
			}
			var s int64
			for _, v := range vals {
				s += v.(int64)
			}
			return s
		}
		sumFloats := func(vals []any) any {
			if len(vals) == 0 {
				return nil
			}
			var s float64
			for _, v := range vals {
				s += v.(float64)
			}
			return s
		}
		var avg, minVI, maxVS, minVF, maxVF, single any
		vf := nonNull(refVF, nil)
		if len(vf) > 0 {
			avg = sumFloats(vf).(float64) / float64(len(vf))
		}
		for _, v := range vf {
			// SQL's float order ranks NaN below every other value.
			if minVF == nil || types.Compare(v, minVF) < 0 {
				minVF = v
			}
			if maxVF == nil || types.Compare(v, maxVF) > 0 {
				maxVF = v
			}
		}
		vi := nonNull(refVI, nil)
		distinct := map[int64]bool{}
		for _, v := range vi {
			if x := v.(int64); minVI == nil || x < minVI.(int64) {
				minVI = x
			}
			distinct[v.(int64)] = true
		}
		vs := nonNull(refVS, nil)
		for _, v := range vs {
			if maxVS == nil || v.(string) > maxVS.(string) {
				maxVS = v
			}
		}
		if sv := nonNull(refSV, nil); len(sv) > 0 {
			single = sv[0]
		}
		flt := nonNull(refVF, func(row []any) bool { return row[refFlt] == true })
		res = append(res, int64(len(g)), int64(len(vf)), sumInts(vi), sumFloats(vf), avg,
			minVI, maxVS, minVF, maxVF, int64(len(distinct)), vs, single, sumFloats(flt))
		out = append(out, res)
	}
	return out
}

// concatCursor yields the batches of several cursors one after another: the
// gather of the partial engines' outputs, in worker order.
type concatCursor struct{ parts []schema.BatchCursor }

func (c *concatCursor) NextBatch() (*schema.Batch, error) {
	for len(c.parts) > 0 {
		b, err := c.parts[0].NextBatch()
		if err != schema.Done {
			return b, err
		}
		c.parts[0].Close()
		c.parts = c.parts[1:]
	}
	return nil, schema.Done
}

func (c *concatCursor) Close() error {
	for _, p := range c.parts {
		p.Close()
	}
	c.parts = nil
	return nil
}

// runRefAgg aggregates batches in memory, or through partials engines, each
// folding a consecutive share of the batches, gathered into a final one.
func runRefAgg(alloc *memory.Allocator, agg *Aggregate, batches []*schema.Batch, partials int) ([][]any, error) {
	ctx := NewContext()
	ctx.Alloc = alloc
	if partials == 0 {
		out, err := NewGroupedAgg(ctx, "Aggregate", agg, AggComplete).Drain(schema.NewSliceBatchCursor(batches), nil)
		if err != nil {
			return nil, err
		}
		return drainBatches(ctx, out)
	}
	gather := &concatCursor{}
	for w := 0; w < partials; w++ {
		share := batches[w*len(batches)/partials : (w+1)*len(batches)/partials]
		out, err := NewGroupedAgg(ctx, "ParallelPartialAggregate", agg, AggPartial).Drain(schema.NewSliceBatchCursor(share), nil)
		if err != nil {
			gather.Close()
			return nil, err
		}
		gather.parts = append(gather.parts, out)
	}
	out, err := NewGroupedAgg(ctx, "ParallelFinalAggregate", agg, AggFinal).Drain(gather, nil)
	if err != nil {
		return nil, err
	}
	return drainBatches(ctx, out)
}

func spillEventsOf(a *memory.Allocator) (events int) {
	for _, s := range a.Snapshot() {
		events += s.SpillEvents
	}
	return events
}

func TestGroupedAggMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	shapes := [][]string{
		nil,
		{"int64"}, {"float64"}, {"string"},
		{"int64", "string"}, {"float64", "int64"}, {"string", "float64"},
	}
	calls := refAggCalls()
	for trial := 0; trial < 2*len(shapes)+1; trial++ {
		keyKinds := shapes[trial%len(shapes)]
		n := 200 + rng.Intn(600)
		if trial == 2*len(shapes) {
			n = 0 // an empty input: a global aggregate still returns its row
		}
		keyCols := make([]int, len(keyKinds))
		for i := range keyCols {
			keyCols[i] = i
		}
		batch := []int{7, 64, 256}[rng.Intn(3)]
		batches, live := genRefInput(rng, keyKinds, keyCols, n, batch)
		want := renderTyped(refAggregate(live, keyCols))
		wantSorted := append([]string(nil), want...)
		sort.Strings(wantSorted)
		agg := NewAggregate(&batchSource{Scan: NewScan(schema.NewMemTable("t", refAggType, nil), []string{"t"}), batches: batches}, keyCols, calls)
		for _, partials := range []int{0, 1, 3} {
			name := fmt.Sprintf("trial %d keys=%v rows=%d batch=%d partials=%d", trial, keyKinds, len(live), batch, partials)
			unlimited := memory.NewAllocator(nil, 0, true)
			rows, err := runRefAgg(unlimited, agg, batches, partials)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := renderTyped(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: unlimited\ngot:  %v\nwant: %v", name, got, want)
			}
			peak := unlimited.Peak()
			if spillEventsOf(unlimited) != 0 {
				t.Fatalf("%s: an unlimited run spilled", name)
			}
			checkReleased(t, name+" unlimited", unlimited)
			if len(live) == 0 {
				continue
			}
			for _, budget := range []struct {
				name      string
				limit     int64
				minEvents int
			}{
				{"flushing", max(1, peak/2), 1},
				{"max depth", 1, spillMaxDepth},
			} {
				alloc := memory.NewAllocator(nil, budget.limit, true)
				rows, err := runRefAgg(alloc, agg, batches, partials)
				if err != nil {
					t.Fatalf("%s: %s budget %d: %v", name, budget.name, budget.limit, err)
				}
				// A flushed engine emits partition by partition: compare the
				// groups as a multiset.
				got := renderTyped(rows)
				sort.Strings(got)
				if !reflect.DeepEqual(got, wantSorted) {
					t.Fatalf("%s: %s budget %d\ngot:  %v\nwant: %v", name, budget.name, budget.limit, got, wantSorted)
				}
				if ev := spillEventsOf(alloc); ev < budget.minEvents {
					t.Errorf("%s: %s budget %d (unlimited peak %d): %d spill events, want at least %d",
						name, budget.name, budget.limit, peak, ev, budget.minEvents)
				}
				checkReleased(t, name+" "+budget.name, alloc)
			}
		}
	}
}

// TestGroupedAggChargesWhatItHolds: the reservation of an engine at its peak
// covers the heap its table holds — the state columns, the key vectors and
// the key index — for one int key, two int keys, a string and an int key,
// and one string key, each with 20 000 groups.
func TestGroupedAggChargesWhatItHolds(t *testing.T) {
	const groups, batch = 20000, 1024
	calls := []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "n"),
		rex.NewAggCall(rex.AggSum, []int{refVI}, false, "s"),
		rex.NewAggCall(rex.AggMin, []int{refVF}, false, "m"),
	}
	for _, keyKinds := range [][]string{{"int64"}, {"int64", "int64"}, {"string", "int64"}, {"string"}} {
		var batches []*schema.Batch
		for lo := 0; lo < 2*groups; lo += batch {
			b := &schema.Batch{Len: batch, Seq: int64(len(batches)), Vecs: make([]*schema.Vector, refWidth)}
			for c := range b.Vecs {
				col := make([]any, batch)
				for r := range col {
					i := (lo + r) % groups
					switch {
					case c < len(keyKinds) && keyKinds[c] == "string":
						col[r] = fmt.Sprintf("key-%06d-%d", i, c)
					case c < len(keyKinds):
						col[r] = int64(i * (c + 1))
					case c == refVI:
						col[r] = int64(r)
					case c == refVF:
						col[r] = float64(r) / 2
					}
				}
				b.Vecs[c] = schema.BuildVector(col)
			}
			batches = append(batches, b)
		}
		keyCols := []int{0, 1}[:len(keyKinds)]
		agg := NewAggregate(&batchSource{Scan: NewScan(schema.NewMemTable("t", refAggType, nil), []string{"t"}), batches: batches}, keyCols, calls)
		ctx := NewContext()
		ctx.Alloc = memory.NewAllocator(nil, 0, true)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		g := NewGroupedAgg(ctx, "Aggregate", agg, AggComplete)
		for _, b := range batches {
			if err := g.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		held := int64(ms.HeapAlloc) - int64(before)
		runtime.KeepAlive(batches) // the keys the table shares with its input are not its own
		if g.n != groups {
			t.Fatalf("keys %v: %d groups, want %d", keyKinds, g.n, groups)
		}
		if peak := ctx.Alloc.Peak(); peak < held {
			t.Errorf("keys %v: peak reservation %d bytes, but the table holds %d", keyKinds, peak, held)
		}
		g.Abandon()
		checkReleased(t, fmt.Sprint(keyKinds), ctx.Alloc)
	}
}

// renderBits renders rows with their runtime types, floats by their bits.
func renderBits(rows [][]any) []string {
	var val func(v any) string
	val = func(v any) string {
		switch x := v.(type) {
		case float64:
			return fmt.Sprintf("float64:%#016x", math.Float64bits(x))
		case []any:
			s := "["
			for _, e := range x {
				s += val(e) + " "
			}
			return s + "]"
		}
		return fmt.Sprintf("%T:%v", v, v)
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		for _, v := range row {
			out[i] += val(v) + " "
		}
	}
	return out
}

// TestAggStateSpillRoundTrip: partial state batches written with
// memory.EncodeBatch and read back with DecodeBatch merge to the results,
// bit for bit, of merging them in memory and of one engine over every row:
// float sums holding NaN, -0 and ±Inf, int64 extremes, NULL and empty-string
// MIN/MAX, and DISTINCT values seen on both sides of the write.
func TestAggStateSpillRoundTrip(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// [k1, vi, vf, vs] per half; every group has rows on both sides.
	halves := [2][][4]any{{
		{int64(0), int64(math.MaxInt64), nan, ""},
		{int64(1), int64(math.MinInt64), inf, nil},
		{int64(2), int64(math.MinInt64), negZero, ""},
		{int64(3), nil, inf, "a"},
		{int64(0), int64(7), 1.5, "b"},
	}, {
		{int64(0), int64(1), 1.5, "b"},
		{int64(1), int64(-1), -inf, nil},
		{int64(2), int64(math.MaxInt64), negZero, ""},
		{int64(3), nil, 2.0, ""},
		{int64(0), int64(7), nan, "b"},
	}}
	distinct := func(f rex.AggFuncKind, arg int, name string) rex.AggCall {
		return rex.NewAggCall(f, []int{arg}, true, name)
	}
	plain := func(f rex.AggFuncKind, arg int, name string) rex.AggCall {
		return rex.NewAggCall(f, []int{arg}, false, name)
	}
	calls := []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "n"),
		plain(rex.AggSum, refVI, "sum_vi"), plain(rex.AggSum, refVF, "sum_vf"), plain(rex.AggAvg, refVF, "avg_vf"),
		plain(rex.AggMin, refVI, "min_vi"), plain(rex.AggMax, refVI, "max_vi"),
		plain(rex.AggMin, refVF, "min_vf"), plain(rex.AggMax, refVF, "max_vf"),
		plain(rex.AggMin, refVS, "min_vs"), plain(rex.AggMax, refVS, "max_vs"),
		distinct(rex.AggCount, refVI, "distinct_vi"), distinct(rex.AggSum, refVF, "distinct_vf"),
		plain(rex.AggCollect, refVS, "collect_vs"),
	}
	var batches []*schema.Batch
	for h, rows := range halves {
		b := &schema.Batch{Len: len(rows), Seq: int64(h), Vecs: make([]*schema.Vector, refWidth)}
		for c := range b.Vecs {
			col := make([]any, len(rows))
			for r, row := range rows {
				switch c {
				case refK1:
					col[r] = row[0]
				case refVI, refVF, refVS:
					col[r] = row[c-refVI+1]
				}
			}
			b.Vecs[c] = schema.BuildVector(col)
		}
		batches = append(batches, b)
	}
	agg := NewAggregate(&batchSource{Scan: NewScan(schema.NewMemTable("t", refAggType, nil), []string{"t"}), batches: batches}, []int{refK1}, calls)
	ctx := NewContext()
	run := func(g *GroupedAgg, in []*schema.Batch) []string {
		t.Helper()
		out, err := g.Drain(schema.NewSliceBatchCursor(in), nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainBatches(ctx, out)
		if err != nil {
			t.Fatal(err)
		}
		return renderBits(rows)
	}
	var states, written []*schema.Batch
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, b := range batches {
		p := NewGroupedAgg(ctx, "ParallelPartialAggregate", agg, AggPartial)
		if err := p.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		states = append(states, p.stateBatch())
		if err := memory.EncodeBatch(w, p.stateBatch()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for {
		b, err := memory.DecodeBatch(r)
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		written = append(written, b)
	}
	want := run(NewGroupedAgg(ctx, "Aggregate", agg, AggComplete), batches)
	inMemory := run(NewGroupedAgg(ctx, "ParallelFinalAggregate", agg, AggFinal), states)
	readBack := run(NewGroupedAgg(ctx, "ParallelFinalAggregate", agg, AggFinal), written)
	if !reflect.DeepEqual(inMemory, want) {
		t.Fatalf("merged in memory:\ngot:  %v\nwant: %v", inMemory, want)
	}
	if !reflect.DeepEqual(readBack, want) {
		t.Fatalf("merged after the codec:\ngot:  %v\nwant: %v", readBack, want)
	}
}

// TestAggStateRoundTripPerKind: for every aggregate kind, one global
// partial's state batch, written with memory.EncodeBatch and read back with
// DecodeBatch, finishes to the result of one engine over the same rows, and
// the read-back state keeps accepting input: merged with a later partial that
// repeats the first value, it finishes to one engine over every row. DISTINCT
// counts the repeated value once across the write.
func TestAggStateRoundTripPerKind(t *testing.T) {
	cases := []struct {
		name string
		call rex.AggCall
		vals []any
	}{
		{"count", rex.NewAggCall(rex.AggCount, nil, false, "c"), []any{int64(1), int64(2), int64(3)}},
		{"sum-int", rex.NewAggCall(rex.AggSum, []int{0}, false, "s"), []any{int64(4), int64(5)}},
		{"sum-float", rex.NewAggCall(rex.AggSum, []int{0}, false, "s"), []any{1.25, nil, 2.5}},
		{"avg", rex.NewAggCall(rex.AggAvg, []int{0}, false, "a"), []any{2.0, 4.0, nil}},
		{"min", rex.NewAggCall(rex.AggMin, []int{0}, false, "m"), []any{"b", "a", "c"}},
		{"max", rex.NewAggCall(rex.AggMax, []int{0}, false, "m"), []any{int64(3), int64(9), int64(1)}},
		{"collect", rex.NewAggCall(rex.AggCollect, []int{0}, false, "col"), []any{int64(1), int64(1), int64(2)}},
		{"single", rex.NewAggCall(rex.AggSingleValue, []int{0}, false, "sv"), []any{"only"}},
		{"count-distinct", rex.NewAggCall(rex.AggCount, []int{0}, true, "cd"), []any{int64(1), int64(1), int64(2), nil}},
		{"sum-distinct", rex.NewAggCall(rex.AggSum, []int{0}, true, "sd"), []any{2.5, 2.5, 1.25}},
		{"empty", rex.NewAggCall(rex.AggSum, []int{0}, false, "s"), nil},
	}
	rowType := types.Row(types.Field{Name: "v", Type: types.Any})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batchOf := func(seq int64, vals []any) []*schema.Batch {
				if len(vals) == 0 {
					return nil
				}
				return []*schema.Batch{{Len: len(vals), Seq: seq, Vecs: []*schema.Vector{schema.BuildVector(vals)}}}
			}
			agg := NewAggregate(NewScan(schema.NewMemTable("t", rowType, nil), []string{"t"}), nil, []rex.AggCall{c.call})
			ctx := NewContext()
			run := func(mode AggMode, in []*schema.Batch) []string {
				t.Helper()
				out, err := NewGroupedAgg(ctx, "Aggregate", agg, mode).Drain(schema.NewSliceBatchCursor(in), nil)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := drainBatches(ctx, out)
				if err != nil {
					t.Fatal(err)
				}
				return renderBits(rows)
			}
			// partial folds vals in one partial engine and returns its state
			// batch after a trip through the spill codec.
			partial := func(seq int64, vals []any) []*schema.Batch {
				t.Helper()
				p := NewGroupedAgg(ctx, "ParallelPartialAggregate", agg, AggPartial)
				for _, b := range batchOf(seq, vals) {
					if err := p.AddBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				w := bufio.NewWriter(&buf)
				if err := memory.EncodeBatch(w, p.stateBatch()); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				b, err := memory.DecodeBatch(bufio.NewReader(&buf))
				if err != nil {
					t.Fatal(err)
				}
				return []*schema.Batch{b}
			}
			want := run(AggComplete, batchOf(0, c.vals))
			if len(want) != 1 {
				t.Fatalf("a global aggregate returned %d rows, want 1", len(want))
			}
			readBack := partial(0, c.vals)
			if got := run(AggFinal, readBack); !reflect.DeepEqual(got, want) {
				t.Fatalf("result after round-trip = %v, want %v", got, want)
			}
			// SINGLE_VALUE rightly errors on a second value, so it is exempt.
			if len(c.vals) == 0 || c.call.Func == rex.AggSingleValue {
				return
			}
			merged := run(AggFinal, append(readBack, partial(1, c.vals[:1])...))
			all := append(append([]any(nil), c.vals...), c.vals[0])
			if want := run(AggComplete, batchOf(0, all)); !reflect.DeepEqual(merged, want) {
				t.Fatalf("post-merge result = %v, want %v", merged, want)
			}
		})
	}
}
