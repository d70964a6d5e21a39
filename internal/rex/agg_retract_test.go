package rex

import "testing"

// feedRows drives an accumulator with single-column rows.
func feedRows(t *testing.T, acc Accumulator, vals ...any) {
	t.Helper()
	for _, v := range vals {
		if err := acc.Add([]any{v}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRetractSum(t *testing.T) {
	acc := NewAccumulator(NewAggCall(AggSum, []int{0}, false, "s")).(Retractable)
	feedRows(t, acc, int64(3), int64(5), nil, int64(7))
	if got := acc.Result(); got != int64(15) {
		t.Fatalf("sum = %v", got)
	}
	if err := acc.Retract([]any{int64(3)}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Retract([]any{nil}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got != int64(12) {
		t.Fatalf("sum after retract = %v", got)
	}
	// Drain the window completely: SUM over an empty frame is NULL, and a
	// later Add starts from a pristine (exact integer) state.
	for _, v := range []int64{5, 7} {
		if err := acc.Retract([]any{v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := acc.Result(); got != nil {
		t.Fatalf("sum over empty frame = %v, want NULL", got)
	}
	feedRows(t, acc, int64(2))
	if got := acc.Result(); got != int64(2) {
		t.Fatalf("sum after refill = %v", got)
	}
}

func TestRetractMixedIntFloatSum(t *testing.T) {
	acc := NewAccumulator(NewAggCall(AggSum, []int{0}, false, "s")).(Retractable)
	feedRows(t, acc, int64(3), 1.5)
	if err := acc.Retract([]any{int64(3)}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got != 1.5 {
		t.Fatalf("sum = %v", got)
	}
	// Once the last float leaves the frame, the result type must recover to
	// an exact integer — matching what a from-scratch recompute of the
	// remaining frame contents would produce.
	feedRows(t, acc, int64(7))
	if err := acc.Retract([]any{1.5}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got != int64(7) {
		t.Fatalf("sum after floats drained = %v (%T), want int64(7)", got, got)
	}
}

func TestRetractCountAvgAndFilter(t *testing.T) {
	call := NewAggCall(AggCount, nil, false, "c")
	call.FilterArg = 1
	acc := NewAccumulator(call).(Retractable)
	if err := acc.Add([]any{int64(1), true}); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([]any{int64(2), false}); err != nil {
		t.Fatal(err)
	}
	// Retract must apply the same filter: the false row never counted.
	if err := acc.Retract([]any{int64(2), false}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Result(); got != int64(1) {
		t.Fatalf("count = %v", got)
	}

	avg := NewAccumulator(NewAggCall(AggAvg, []int{0}, false, "a")).(Retractable)
	feedRows(t, avg, int64(2), int64(4), int64(9))
	if err := avg.Retract([]any{int64(9)}); err != nil {
		t.Fatal(err)
	}
	if got := avg.Result(); got != 3.0 {
		t.Fatalf("avg = %v", got)
	}
}

func TestRetractUnsupported(t *testing.T) {
	for _, kind := range []AggFuncKind{AggMin, AggMax, AggCollect, AggSingleValue} {
		acc := NewAccumulator(NewAggCall(kind, []int{0}, false, "x"))
		feedRows(t, acc, int64(1))
		if err := acc.(Retractable).Retract([]any{int64(1)}); err == nil {
			t.Errorf("%s: expected retraction error", kind)
		}
	}
	if CanRetract(NewAggCall(AggSum, []int{0}, true, "d")) {
		t.Error("DISTINCT SUM must not claim retraction support")
	}
	if !CanRetract(NewAggCall(AggAvg, []int{0}, false, "a")) {
		t.Error("AVG should support retraction")
	}
}
