package exec

// White-box tests of the window frame machinery: direction-aware RANGE
// bounds (the DESC regression), temporal order keys, NULL peer groups,
// empty-frame canonicalization, and the equivalence of the incremental
// evaluators with per-frame recompute.

import (
	"math/rand"
	"reflect"
	"testing"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
)

// taggedRows builds partition rows [v, posSeq, posIdx] from order-key values.
func taggedRows(vals ...any) [][]any {
	rows := make([][]any, len(vals))
	for i, v := range vals {
		rows[i] = []any{v, int64(0), int64(i)}
	}
	return rows
}

func orderOn(dir trait.Direction) trait.Collation {
	return trait.Collation{{Field: 0, Direction: dir}}
}

func boundsOf(t *testing.T, rows [][]any, g rel.WindowGroup) (lo, hi []int) {
	t.Helper()
	lo, hi, err := frameBoundsAll(rows, g)
	if err != nil {
		t.Fatalf("frameBoundsAll: %v", err)
	}
	return lo, hi
}

// Regression for the ascending-only RANGE scan: with a DESC order key the
// seed's "v >= cur - preceding" test walked the wrong direction and returned
// frames anchored at the partition start.
func TestFrameBoundsRangeDesc(t *testing.T) {
	rows := taggedRows(int64(16), int64(8), int64(4), int64(2), int64(1))
	g := rel.WindowGroup{
		OrderKeys: orderOn(trait.Descending),
		Frame:     rel.WindowFrame{Lo: -3},
	}
	lo, hi := boundsOf(t, rows, g)
	// cur=16: [16-(-?).. ] frame holds values in [16, 19] -> {16}; cur=8 ->
	// [8,11] -> {8}; cur=4 -> [4,7] -> {4}; cur=2 -> [2,5] -> {4,2};
	// cur=1 -> [1,4] -> {4,2,1}.
	wantLo := []int{0, 1, 2, 2, 2}
	wantHi := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(lo, wantLo) || !reflect.DeepEqual(hi, wantHi) {
		t.Errorf("DESC RANGE bounds lo=%v hi=%v, want lo=%v hi=%v", lo, hi, wantLo, wantHi)
	}
}

func TestFrameBoundsRangeAsc(t *testing.T) {
	rows := taggedRows(int64(1), int64(2), int64(4), int64(8), int64(16))
	g := rel.WindowGroup{
		OrderKeys: orderOn(trait.Ascending),
		Frame:     rel.WindowFrame{Lo: -3},
	}
	lo, hi := boundsOf(t, rows, g)
	// cur=1 -> [-2,1] -> {1}; cur=2 -> [-1,2] -> {1,2}; cur=4 -> [1,4] ->
	// {1,2,4}; cur=8 -> [5,8] -> {8}; cur=16 -> [13,16] -> {16}.
	wantLo := []int{0, 0, 0, 3, 4}
	wantHi := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(lo, wantLo) || !reflect.DeepEqual(hi, wantHi) {
		t.Errorf("ASC RANGE bounds lo=%v hi=%v, want lo=%v hi=%v", lo, hi, wantLo, wantHi)
	}
}

// Temporal order keys (epoch-millis int64) slide by value; a string key
// under an offset RANGE frame is a clean error, not lo=0.
func TestFrameBoundsTemporalAndUnorderable(t *testing.T) {
	hour := int64(3600 * 1000)
	g := rel.WindowGroup{
		OrderKeys: orderOn(trait.Ascending),
		Frame:     rel.WindowFrame{Lo: -hour},
	}
	rows := taggedRows(int64(0), hour/2, 2*hour)
	lo, _ := boundsOf(t, rows, g)
	if !reflect.DeepEqual(lo, []int{0, 0, 2}) {
		t.Errorf("millis RANGE lo=%v", lo)
	}
	rows = taggedRows("a", "b")
	if _, _, err := frameBoundsAll(rows, g); err == nil {
		t.Error("expected error for RANGE offset over a string order key")
	}
}

// NULL order keys frame exactly their peer NULLs under offset bounds, at the
// low end ascending and the high end descending.
func TestFrameBoundsNullPeers(t *testing.T) {
	g := rel.WindowGroup{
		OrderKeys: orderOn(trait.Ascending),
		Frame:     rel.WindowFrame{Lo: -10},
	}
	rows := taggedRows(nil, nil, int64(5), int64(20))
	lo, hi := boundsOf(t, rows, g)
	if lo[0] != 0 || hi[0] != 1 || lo[1] != 0 || hi[1] != 1 {
		t.Errorf("NULL peers: lo=%v hi=%v", lo, hi)
	}
	if lo[2] != 2 || hi[2] != 2 || lo[3] != 3 || hi[3] != 3 {
		t.Errorf("non-NULL rows should exclude NULLs: lo=%v hi=%v", lo, hi)
	}
	gd := rel.WindowGroup{
		OrderKeys: orderOn(trait.Descending),
		Frame:     rel.WindowFrame{Lo: -10},
	}
	rows = taggedRows(int64(20), int64(5), nil, nil)
	lo, hi = boundsOf(t, rows, gd)
	if lo[2] != 2 || hi[2] != 3 || lo[3] != 2 || hi[3] != 3 {
		t.Errorf("DESC NULL peers: lo=%v hi=%v", lo, hi)
	}
}

// Empty ROWS frames (upper bound before the lower) canonicalize to lo=hi+1
// and evaluate to the empty aggregate.
func TestFrameBoundsEmptyRows(t *testing.T) {
	rows := taggedRows(int64(1), int64(2), int64(3))
	g := rel.WindowGroup{
		OrderKeys: orderOn(trait.Ascending),
		Frame:     rel.WindowFrame{Rows: true, Lo: -2, Hi: -1},
	}
	lo, hi := boundsOf(t, rows, g)
	if lo[0] != hi[0]+1 {
		t.Errorf("row 0 frame should be empty: lo=%d hi=%d", lo[0], hi[0])
	}
	if lo[2] != 0 || hi[2] != 1 {
		t.Errorf("row 2 frame lo=%d hi=%d", lo[2], hi[2])
	}
}

// TestSlidingMatchesRecompute: the incremental frame evaluators evalCall
// picks (slideRetract for SUM/COUNT/AVG, slideDeque for MIN/MAX) must agree
// exactly with aggregating every frame from scratch (recomputeFrames). The
// partitions are seeded: BIGINT and binary-exact DOUBLE arguments with NULLs
// and ties, sizes from one row up, ROWS and RANGE frames in both directions,
// and frames that are empty at a partition's edges.
func TestSlidingMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := []rel.WindowFrame{
		{Rows: true, Lo: -3},
		{Rows: true, Lo: -5, Hi: 2},
		{Rows: true, Lo: -4, Hi: -2}, // empty for the first rows
		{Rows: true, Lo: 2, Hi: 4},   // empty for the last rows
		{Rows: true, LoUnbounded: true},
		{Rows: true, HiUnbounded: true},
		{Rows: true, LoUnbounded: true, Hi: -1},
		{Lo: -7},
		{Lo: -3, Hi: 3},
		{Lo: 1, Hi: 4}, // RANGE, empty wherever no larger peer is near
		{LoUnbounded: true},
	}
	calls := []rex.AggCall{
		rex.NewAggCall(rex.AggSum, []int{0}, false, "s"),
		rex.NewAggCall(rex.AggCount, []int{0}, false, "c"),
		rex.NewAggCall(rex.AggCount, nil, false, "cs"),
		rex.NewAggCall(rex.AggAvg, []int{0}, false, "a"),
		rex.NewAggCall(rex.AggMin, []int{0}, false, "mn"),
		rex.NewAggCall(rex.AggMax, []int{0}, false, "mx"),
	}
	for round := 0; round < 4; round++ {
		for _, dir := range []trait.Direction{trait.Ascending, trait.Descending} {
			for _, frame := range frames {
				n := 1 + rng.Intn(40)
				vals := make([]any, n)
				for i := range vals {
					switch v := rng.Intn(12); {
					case v < 2:
						vals[i] = nil
					case round%2 == 1:
						vals[i] = float64(v) / 4 // ties, exact in binary
					default:
						vals[i] = int64(v)
					}
				}
				rows := taggedRows(vals...)
				g := rel.WindowGroup{OrderKeys: orderOn(dir), Frame: frame, Calls: calls}
				sortPartition(rows, g)
				lo, hi, err := frameBoundsAll(rows, g)
				if err != nil {
					t.Fatal(err)
				}
				for _, call := range calls {
					inc, err := evalCall(rows, g, call, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					rec, err := recomputeFrames(rows, call, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(inc, rec) {
						t.Errorf("%s dir=%v frame=%s n=%d:\n incremental %v\n recompute   %v",
							call.Func, dir, frame, n, inc, rec)
					}
				}
			}
		}
	}
}

// sortPartition orders test rows the way the window pipeline would.
func sortPartition(rows [][]any, g rel.WindowGroup) {
	coll := groupCollation(g, len(rows[0]))
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && CompareRows(rows[j], rows[j-1], coll) < 0; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}
