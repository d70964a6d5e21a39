package exec

// Tests of the sort kernel: a seeded property test against the boxed
// reference (sort.SliceStable + CompareRows), the typed-output contract of
// Sort.BindBatch and Window.BindBatch, and the failure paths.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// genValue draws one value of a column kind from a domain of the given size
// (small domains make duplicates); "any" mixes int64 and float64, whose
// cross-kind comparison is a consistent order. Numeric kinds also draw the
// values an int64 image or a radix pass over it can misorder: the int64
// extremes and their neighbours, -1, ±Inf, -0 beside +0, and NaN.
func genValue(rng *rand.Rand, kind string, domain int, nullP float64) any {
	if rng.Float64() < nullP {
		return nil
	}
	d := rng.Intn(domain)
	switch kind {
	case "int64":
		if rng.Intn(8) == 0 {
			return []int64{math.MinInt64, math.MinInt64 + 1, -1, math.MaxInt64 - 1, math.MaxInt64}[rng.Intn(5)]
		}
		return int64(d - domain/2)
	case "float64":
		if rng.Intn(8) == 0 {
			return []float64{math.Inf(-1), math.Inf(1), 0, -math.MaxFloat64}[rng.Intn(4)]
		}
		switch d % 7 {
		case 5:
			return math.NaN()
		case 6:
			return math.Copysign(0, -1)
		}
		return float64(d-domain/2) / 2
	case "string":
		return fmt.Sprintf("s%03d", d)
	case "bool":
		return d%2 == 0
	}
	if d%2 == 0 {
		return int64(d / 2)
	}
	return float64(d) / 2
}

// genInput builds a batched input and its live rows in arrival order. Batches
// are typed, with selection vectors when withSel; column 0 changes kind (to
// float64) halfway through the stream when kindChange.
func genInput(rng *rand.Rand, kinds []string, n, batch, domain int, nullP float64,
	withSel, kindChange bool) ([]*schema.Batch, [][]any) {
	var batches []*schema.Batch
	var rows [][]any
	for made := 0; made < n; {
		phys := min(batch, n-made)
		cols := make([][]any, len(kinds))
		for c, k := range kinds {
			if c == 0 && kindChange && made >= n/2 {
				k = "float64"
			}
			cols[c] = make([]any, phys)
			for r := range cols[c] {
				cols[c][r] = genValue(rng, k, domain, nullP)
			}
		}
		b := &schema.Batch{Len: phys, Seq: int64(len(batches))}
		b.Vecs = make([]*schema.Vector, len(cols))
		for c := range cols {
			b.Vecs[c] = schema.BuildVector(cols[c])
		}
		if withSel {
			b.Sel = []int32{}
			for r := 0; r < phys; r++ {
				if rng.Intn(3) > 0 {
					b.Sel = append(b.Sel, int32(r))
				}
			}
		}
		rows = b.AppendRows(rows)
		batches = append(batches, b)
		made += phys
	}
	return batches, rows
}

// renderSorted boxes a cursor's output; NaN renders equal to itself.
func renderSorted(t *testing.T, bc schema.BatchCursor) []string {
	t.Helper()
	rows, err := drainBatches(nil, bc)
	if err != nil {
		t.Fatal(err)
	}
	return renderBoxed(rows)
}

func renderBoxed(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

func TestSortKernelMatchesBoxedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	allKinds := []string{"int64", "float64", "string", "bool", "any"}
	// Trials 120 to 179 draw run lengths around radixMin.
	for trial := 0; trial < 180; trial++ {
		kinds := make([]string, 2+rng.Intn(3))
		for c := range kinds {
			kinds[c] = allKinds[rng.Intn(len(allKinds))]
		}
		n := 300 + rng.Intn(1500)
		batch := []int{1, 3, 1024}[rng.Intn(3)]
		if batch == 1 {
			n = 100 + rng.Intn(200)
		}
		domain := []int{3, 50, 100000}[rng.Intn(3)]
		nullP := []float64{0, 0.1, 0.5}[rng.Intn(3)]
		kindChange := rng.Intn(4) == 0
		if kindChange {
			// Only numeric kinds order consistently against each other.
			kinds[0] = "int64"
		}
		withSel := rng.Intn(2) == 0
		switch {
		case trial < 120:
		case trial%2 == 0:
			// radixMin-1, radixMin or radixMin+1 live rows: the sort range
			// just below, at and above the radix threshold.
			n, withSel = radixMin-1+rng.Intn(3), false
		default:
			// Three key values (and the odd extreme) over 3.5 × radixMin
			// live rows, a third of them cut by the selection when there is
			// one: runs of equal leading keys around the threshold, each
			// sorted on the next key.
			n, domain = 7*radixMin/2-8+rng.Intn(17), 3
			if withSel {
				n = n * 3 / 2
			}
		}
		batches, rows := genInput(rng, kinds, n, batch, domain, nullP, withSel, kindChange)
		coll := make(trait.Collation, 1+rng.Intn(3))
		for i := range coll {
			coll[i] = trait.FieldCollation{Field: rng.Intn(len(kinds)), Direction: trait.Direction(rng.Intn(2))}
		}
		want := append([][]any(nil), rows...)
		sort.SliceStable(want, func(i, j int) bool { return CompareRows(want[i], want[j], coll) < 0 })
		live := int64(len(rows))
		fetches := []int64{-1, 0, 1, live / 3, live + 5}
		offsets := []int64{0, live / 4, live + 1}
		// Budgets: none; one that cuts a handful of runs; and, every fourth
		// trial (hundreds of run files each), one that cuts more than
		// mergeFanIn runs, so they cascade.
		perRow := vecsBytes(batches[0].Vecs, nil, batches[0].Len)/int64(batches[0].Len) + 4
		budgets := []int64{0, live * perRow / 5}
		if trial%4 == 0 {
			budgets = append(budgets, live*perRow/(3*mergeFanIn))
		}
		for _, budget := range budgets {
			fetch, offset := fetches[rng.Intn(len(fetches))], offsets[rng.Intn(len(offsets))]
			name := fmt.Sprintf("trial %d kinds=%v coll=%v n=%d batch=%d budget=%d offset=%d fetch=%d",
				trial, kinds, coll, live, batch, budget, offset, fetch)
			ctx := NewContext()
			if budget > 0 {
				ctx.Alloc = memory.NewAllocator(nil, max(budget, 16), true)
			}
			limit := int64(-1)
			if fetch >= 0 {
				limit = offset + fetch
			}
			out, err := SortCursor(ctx, "Sort", schema.NewSliceBatchCursor(batches), coll, limit, offset)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := renderSorted(t, out)
			exp := want[min(offset, live):]
			if fetch >= 0 {
				exp = exp[:min(fetch, int64(len(exp)))]
			}
			if wantR := renderBoxed(exp); !reflect.DeepEqual(got, wantR) {
				at := 0
				for at < len(got) && at < len(wantR) && got[at] == wantR[at] {
					at++
				}
				t.Fatalf("%s: %d rows, want %d; first difference at %d:\n got %v\nwant %v",
					name, len(got), len(wantR), at, got[at:min(at+3, len(got))], wantR[at:min(at+3, len(wantR))])
			}
			if ctx.Alloc != nil {
				if budget == live*perRow/(3*mergeFanIn) && fetch < 0 && live > 6*mergeFanIn {
					if st := ctx.Alloc.Snapshot(); len(st) == 0 || st[0].SpillEvents <= mergeFanIn {
						t.Errorf("%s: cascade budget cut too few runs: %+v", name, st)
					}
				}
				checkReleased(t, name, ctx.Alloc)
			}
		}
	}
}

// checkReleased asserts a finished query left no reservation and no spill
// file behind, then closes the allocator.
func checkReleased(t *testing.T, name string, a *memory.Allocator) {
	t.Helper()
	if used := a.Used(); used != 0 {
		t.Errorf("%s: %d bytes still reserved", name, used)
	}
	if dir := a.SpillDir(); dir != "" {
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%s: %d spill files left in %s", name, len(files), dir)
		}
	}
	a.Close()
}

// typedSales is a typed table: int64 id and grp, float64 amt (some NULL),
// string tag.
func typedSales(n int) *schema.MemTable {
	rt := types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "grp", Type: types.BigInt},
		types.Field{Name: "amt", Type: types.Double},
		types.Field{Name: "tag", Type: types.Varchar},
	)
	rows := make([][]any, n)
	for i := range rows {
		var amt any
		if i%11 != 0 {
			amt = float64((i*7919)%1000) / 4
		}
		rows[i] = []any{int64(i), int64(i % 13), amt, fmt.Sprintf("t%d", i%5)}
	}
	return schema.NewMemTable("sales", rt, rows)
}

func kindsOf(b *schema.Batch) []schema.VecKind {
	out := make([]schema.VecKind, len(b.Vecs))
	for i, v := range b.Vecs {
		out[i] = v.Kind
	}
	return out
}

// TestSortAndWindowKeepVectorKinds: blocking operators hand typed batches on,
// so the Project above them and the wire encoder keep their typed paths —
// in memory and after a spill.
func TestSortAndWindowKeepVectorKinds(t *testing.T) {
	tbl := typedSales(5000)
	scan := NewScan(tbl, []string{"sales"})
	input := []schema.VecKind{schema.VecInt64, schema.VecInt64, schema.VecFloat64, schema.VecString}
	srt := NewSort(scan, trait.Collation{{Field: 2, Direction: trait.Descending}, {Field: 0}}, 0, -1)
	win := NewWindow(scan, []rel.WindowGroup{{
		PartitionKeys: []int{1},
		OrderKeys:     trait.Collation{{Field: 0}},
		Frame:         rel.WindowFrame{Rows: true, Lo: -3},
		Calls: []rex.AggCall{
			rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
			rex.NewAggCall(rex.AggRowNumber, nil, false, "rn"),
			rex.NewAggCall(rex.AggLag, []int{3}, false, "lg"),
		},
	}})
	for _, budget := range []int64{0, 96 << 10} {
		for _, tc := range []struct {
			node BatchBound
			want []schema.VecKind
		}{
			{srt, input},
			{win, append(append([]schema.VecKind(nil), input...), schema.VecFloat64, schema.VecInt64, schema.VecString)},
		} {
			ctx := NewContext()
			if budget > 0 {
				ctx.Alloc = memory.NewAllocator(nil, budget, true)
			}
			bc, err := tc.node.BindBatch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				b, err := bc.NextBatch()
				if err == schema.Done {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := kindsOf(b); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s budget=%d: batch kinds %v, want %v", tc.node.Op(), budget, got, tc.want)
				}
				rows += b.NumRows()
			}
			bc.Close()
			if rows != 5000 {
				t.Errorf("%s budget=%d: %d rows, want 5000", tc.node.Op(), budget, rows)
			}
			if ctx.Alloc != nil {
				if ctx.Alloc.Spilled() == 0 {
					t.Errorf("%s: a %d-byte budget did not spill", tc.node.Op(), budget)
				}
				checkReleased(t, tc.node.Op(), ctx.Alloc)
			}
		}
	}
}

// TestWindowGovernedCountsResults: a window charges its results with the rows
// they belong to. Unlimited, it holds the input and the results' bytes once
// bound. Under a budget half the results short of that run's peak, the input
// and the narrow sort would fit; the window must spill to make room for the
// results, return the unlimited answer and leave nothing behind.
func TestWindowGovernedCountsResults(t *testing.T) {
	scan := NewScan(typedSales(5000), []string{"sales"})
	win := NewWindow(scan, []rel.WindowGroup{{
		PartitionKeys: []int{1},
		OrderKeys:     trait.Collation{{Field: 0}},
		Frame:         rel.WindowFrame{Rows: true, Lo: -3},
		Calls: []rex.AggCall{
			rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
			rex.NewAggCall(rex.AggRowNumber, nil, false, "rn"),
			rex.NewAggCall(rex.AggLag, []int{3}, false, "lg"),
		},
	}})
	results := int64(5000 * (9 + 9 + 17)) // SUM, ROW_NUMBER, LAG of a string
	ctx := NewContext()
	ctx.BatchSize = 64 // what an open partition pins stays well under the results
	in, err := scan.BindBatch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var input int64 // what the window's held batches are charged
	for b, err := in.NextBatch(); err != schema.Done; b, err = in.NextBatch() {
		if err != nil {
			t.Fatal(err)
		}
		input += vecsBytes(batchVecs(b), nil, b.Len)
	}
	in.Close()
	run := func(budget int64) ([]string, *memory.Allocator) {
		ctx := NewContext()
		ctx.Alloc = memory.NewAllocator(nil, budget, true)
		ctx.BatchSize = 64
		bc, err := win.BindBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if used := ctx.Alloc.Used(); budget == 1<<30 && used < input+results {
			t.Errorf("the bound window holds %d bytes, want the input's %d and the results' %d", used, input, results)
		}
		rows, err := drainBatches(ctx, bc)
		if err != nil {
			t.Fatal(err)
		}
		return renderBoxed(rows), ctx.Alloc
	}
	want, free := run(1 << 30)
	if free.Spilled() != 0 {
		t.Fatalf("the unlimited run spilled %d bytes", free.Spilled())
	}
	budget := free.Peak() - results/2
	checkReleased(t, "unlimited", free)
	got, a := run(budget)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("budget %d: the window's answer differs from the unlimited run", budget)
	}
	if a.Spilled() == 0 {
		t.Errorf("budget %d, half the results under the unlimited peak, did not spill: the results are not charged", budget)
	}
	checkReleased(t, "governed", a)
}

// TestSortKernelFailurePaths: a denied grant with spilling disabled is a
// clean error, and a consumer that closes a spilled sort or window after its
// first batch leaves nothing reserved and no run file.
func TestSortKernelFailurePaths(t *testing.T) {
	tbl := typedSales(5000)
	scan := NewScan(tbl, []string{"sales"})
	srt := NewSort(scan, trait.Collation{{Field: 2}, {Field: 0}}, 0, -1)
	win := NewWindow(scan, []rel.WindowGroup{{
		PartitionKeys: []int{1},
		OrderKeys:     trait.Collation{{Field: 0}},
		Frame:         rel.WindowFrame{Rows: true, Lo: -3},
		Calls:         []rex.AggCall{rex.NewAggCall(rex.AggSum, []int{2}, false, "s")},
	}})
	for _, node := range []BatchBound{srt, win} {
		ctx := NewContext()
		ctx.Alloc = memory.NewAllocator(nil, 64<<10, false)
		if bc, err := node.BindBatch(ctx); err == nil {
			bc.Close()
			t.Errorf("%s: a 64 KB budget without spill did not fail", node.Op())
		} else if errors.Is(err, schema.Done) {
			t.Errorf("%s: denied grant surfaced as end of stream", node.Op())
		}
		checkReleased(t, node.Op()+" (no spill)", ctx.Alloc)

		ctx = NewContext()
		ctx.Alloc = memory.NewAllocator(nil, 64<<10, true)
		bc, err := node.BindBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bc.NextBatch(); err != nil {
			t.Fatal(err)
		}
		if ctx.Alloc.Spilled() == 0 {
			t.Errorf("%s: a 64 KB budget did not spill", node.Op())
		}
		bc.Close()
		checkReleased(t, node.Op()+" (closed early)", ctx.Alloc)
	}
}
