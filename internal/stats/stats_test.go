package stats

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"calcite/internal/types"
)

// TestHLLAccuracy: the sketch must stay within a few percent of the true
// cardinality across magnitudes (standard error at p=12 is ~1.6%; allow 5%).
func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		var h HLL
		for i := 0; i < n; i++ {
			h.AddHash(HashValue(fmt.Sprintf("value-%d", i)))
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate %.0f, relative error %.3f > 0.05", n, est, relErr)
		}
	}
}

// TestHLLDuplicates: repeated values must not inflate the estimate.
func TestHLLDuplicates(t *testing.T) {
	var h HLL
	for i := 0; i < 100000; i++ {
		h.AddHash(HashValue(int64(i % 10)))
	}
	if est := h.Estimate(); est < 5 || est > 20 {
		t.Errorf("10 distinct values estimated as %.1f", est)
	}
}

// TestHashValueNumericEquivalence: values that compare equal must hash
// equal so NDV matches the engine's equality semantics.
func TestHashValueNumericEquivalence(t *testing.T) {
	if HashValue(int64(3)) != HashValue(float64(3)) {
		t.Error("int64(3) and float64(3) hash differently")
	}
	if HashValue("a") == HashValue("b") {
		t.Error("distinct strings collide")
	}
}

func uniformHistogram(n int) *Histogram {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	return NewHistogram(keys, DefaultBuckets)
}

// TestHistogramRange: range estimates over a uniform column must track the
// true fraction closely.
func TestHistogramRange(t *testing.T) {
	h := uniformHistogram(10000)
	cases := []struct {
		x    float64
		incl bool
		want float64
	}{
		{2500, false, 0.25},
		{5000, false, 0.5},
		{9999, true, 1.0},
		{0, false, 0.0},
		{-5, false, 0.0},
		{20000, true, 1.0},
	}
	for _, c := range cases {
		got := h.FracLess(c.x, c.incl)
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("FracLess(%v, %v) = %.4f, want ~%.4f", c.x, c.incl, got, c.want)
		}
	}
}

// TestHistogramBoundaryInclusive: an inclusive bound landing exactly on a
// bucket's upper edge must not double-count the run at the boundary — the
// fraction stays within [0, 1] and ≈ the true fraction.
func TestHistogramBoundaryInclusive(t *testing.T) {
	h := uniformHistogram(1000)
	for _, b := range h.Buckets {
		got := h.FracLess(b.Hi, true)
		want := (b.Hi + 1) / 1000 // keys 0..999 uniform: |{k <= Hi}| = Hi+1
		if got > 1.0000001 || math.Abs(got-want) > 0.01 {
			t.Errorf("FracLess(%v, true) = %.4f, want ~%.4f", b.Hi, got, want)
		}
	}
	// Degenerate single-bucket case from the review: Lo=1, Hi=100, 100 keys.
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = float64(i + 1)
	}
	one := NewHistogram(keys, 1)
	if got := one.FracLess(100, true); got > 1 {
		t.Errorf("inclusive boundary fraction %v > 1", got)
	}
}

// TestHistogramEquality: point estimates on uniform data ≈ 1/n, and on
// skewed data the heavy bucket must dominate.
func TestHistogramEquality(t *testing.T) {
	h := uniformHistogram(10000)
	if got := h.FracEq(1234); math.Abs(got-1.0/10000) > 0.001 {
		t.Errorf("uniform FracEq = %v, want ~1e-4", got)
	}
	// Skew: 9900 rows of value 0, 100 distinct others.
	keys := make([]float64, 0, 10000)
	for i := 0; i < 9900; i++ {
		keys = append(keys, 0)
	}
	for i := 1; i <= 100; i++ {
		keys = append(keys, float64(i))
	}
	hs := NewHistogram(keys, DefaultBuckets)
	if got := hs.FracEq(0); got < 0.5 {
		t.Errorf("heavy value FracEq = %v, want > 0.5", got)
	}
	if got := hs.FracEq(50); got > 0.1 {
		t.Errorf("light value FracEq = %v, want small", got)
	}
}

// TestHistogramSkewedBuckets: a run of equal keys never splits across
// buckets, so bucket counts reflect the skew.
func TestHistogramSkewedBuckets(t *testing.T) {
	keys := make([]float64, 0, 1000)
	for i := 0; i < 990; i++ {
		keys = append(keys, 7)
	}
	for i := 0; i < 10; i++ {
		keys = append(keys, float64(100+i))
	}
	h := NewHistogram(keys, 8)
	total := 0.0
	for _, b := range h.Buckets {
		total += b.Count
		if b.Lo > b.Hi {
			t.Errorf("inverted bucket %+v", b)
		}
	}
	if total != 1000 {
		t.Errorf("bucket counts sum to %v, want 1000", total)
	}
	if h.FracEq(7) < 0.9 {
		t.Errorf("FracEq(7) = %v, want ~0.99", h.FracEq(7))
	}
}

// TestCollector: null counts, min/max, exact NDV and histogram presence.
func TestCollector(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 1000; i++ {
		var v any
		if i%10 == 0 {
			v = nil // 10% nulls
		} else {
			v = int64(i % 50)
		}
		c.AddRow([]any{int64(i), v, fmt.Sprintf("s%d", i%7)})
	}
	cols, rows := c.Finish()
	if rows != 1000 {
		t.Fatalf("rows = %v", rows)
	}
	// Column 0: dense unique ints.
	if cols[0].NullCount != 0 || cols[0].NDV != 1000 {
		t.Errorf("col0 = %+v", cols[0])
	}
	if cols[0].Min != int64(0) || cols[0].Max != int64(999) {
		t.Errorf("col0 min/max = %v/%v", cols[0].Min, cols[0].Max)
	}
	if cols[0].Histogram == nil {
		t.Error("col0 missing histogram")
	}
	// Column 1: nulls + 45 distinct (i%50 values that are ≡0 mod 10 are
	// exactly the nulled rows, leaving 45 distinct non-null values).
	if cols[1].NullCount != 100 {
		t.Errorf("col1 nulls = %v", cols[1].NullCount)
	}
	if cols[1].NDV != 45 {
		t.Errorf("col1 ndv = %v", cols[1].NDV)
	}
	if cols[1].Histogram == nil || cols[1].Histogram.Rows != 900 {
		t.Errorf("col1 histogram = %+v", cols[1].Histogram)
	}
	// Column 2: strings — NDV but no histogram.
	if cols[2].NDV != 7 {
		t.Errorf("col2 ndv = %v", cols[2].NDV)
	}
	if cols[2].Histogram != nil {
		t.Error("string column grew a histogram")
	}
	if cols[2].Min != "s0" || cols[2].Max != "s6" {
		t.Errorf("col2 min/max = %v/%v", cols[2].Min, cols[2].Max)
	}
}

// TestCollectorBatchPath: AddCol with and without a selection vector must
// match the row path.
func TestCollectorBatchPath(t *testing.T) {
	c := NewCollector(1)
	col := []any{int64(1), int64(2), int64(3), int64(4)}
	c.AddCol(0, col, nil)
	c.AddRows(4)
	c.AddCol(0, col, []int32{0, 2})
	c.AddRows(2)
	cols, rows := c.Finish()
	if rows != 6 {
		t.Fatalf("rows = %v", rows)
	}
	if cols[0].NDV != 4 {
		t.Errorf("ndv = %v", cols[0].NDV)
	}
}

// TestCollectorAddNumbersMatchesRows: the unboxed numeric intake yields the
// statistics the boxed row path does — NULLs, an int64 and a float64 batch
// of one column (they share a key space), a NaN.
func TestCollectorAddNumbersMatchesRows(t *testing.T) {
	ints := []int64{7, -3, 0, 7, 1 << 40}
	intNulls := []bool{false, false, true, false, false}
	floats := []float64{2.5, math.NaN(), 7, -1e9}
	byRows, typed := NewCollector(1), NewCollector(1)
	for r, x := range ints {
		if intNulls[r] {
			byRows.AddRow([]any{nil})
		} else {
			byRows.AddRow([]any{x})
		}
	}
	for _, x := range floats {
		byRows.AddRow([]any{x})
	}
	AddNumbers(typed, 0, ints, intNulls)
	AddNumbers(typed, 0, floats, nil)
	typed.AddRows(len(ints) + len(floats))
	want, wantRows := byRows.Finish()
	got, gotRows := typed.Finish()
	if gotRows != wantRows {
		t.Fatalf("rows = %v, want %v", gotRows, wantRows)
	}
	// NaN != NaN under DeepEqual; the extremes are compared by types.Compare.
	if types.Compare(got[0].Min, want[0].Min) != 0 || types.Compare(got[0].Max, want[0].Max) != 0 {
		t.Errorf("min/max = %v/%v, want %v/%v", got[0].Min, got[0].Max, want[0].Min, want[0].Max)
	}
	got[0].Min, got[0].Max, want[0].Min, want[0].Max = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("typed intake: %+v\nrow intake:   %+v", got[0], want[0])
	}
}
