package rex

import (
	"reflect"
	"testing"

	"calcite/internal/schema"
	"calcite/internal/types"
)

// fixtureVectors is compileFixtureRows as typed vectors, one per column.
func fixtureVectors(rows [][]any) []*schema.Vector {
	vecs := make([]*schema.Vector, len(rows[0]))
	for c := range vecs {
		col := make([]any, len(rows))
		for r, row := range rows {
			col[r] = row[c]
		}
		vecs[c] = schema.BuildVector(col, schema.VecAny)
	}
	return vecs
}

// param binds a one-parameter expression the way the batch operators do.
func param(t *testing.T, build func(p Node) Node, v any) Node {
	t.Helper()
	bound, err := BindParams(build(&DynamicParam{Index: 0, T: types.Any}), []any{v})
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// TestFilterKernelVecMatchesEvaluator: every kernel-recognized predicate,
// literal or bound parameter, must select exactly the rows the interpreter
// keeps.
func TestFilterKernelVecMatchesEvaluator(t *testing.T) {
	rows := compileFixtureRows()
	vecs := fixtureVectors(rows)
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	i0 := NewInputRef(0, types.BigInt)
	f1 := NewInputRef(1, types.Double)
	s2 := NewInputRef(2, types.Varchar)
	b3 := NewInputRef(3, types.Boolean)
	preds := []Node{
		NewCall(OpGreater, i0, Int(0)),
		NewCall(OpLess, Int(0), i0),
		NewCall(OpEquals, s2, Str("bob")),
		NewCall(OpGreaterEqual, f1, Float(2.0)),
		NewCall(OpNotEquals, i0, Int(2)),
		NewCall(OpIsNull, f1),
		NewCall(OpIsNotNull, i0),
		NewCall(OpLess, i0, i0),
		NewCall(OpEquals, i0, Null()),
		NewCall(OpEquals, b3, Bool(true)),
		NewCall(OpGreater, i0, Float(1.5)), // int column, float constant
		NewCall(OpLessEqual, f1, Int(2)),   // float column, int constant
		And(NewCall(OpGreater, i0, Int(-10)), NewCall(OpIsNotNull, f1), NewCall(OpLess, f1, Float(11))),
		param(t, func(p Node) Node { return NewCall(OpGreater, i0, p) }, int64(1)),
		param(t, func(p Node) Node { return NewCall(OpLess, p, f1) }, int64(3)),
		param(t, func(p Node) Node { return NewCall(OpEquals, s2, p) }, "carol"),
		param(t, func(p Node) Node { return NewCall(OpEquals, i0, p) }, nil),
	}
	ev := &Evaluator{}
	for _, p := range preds {
		kernel, ok := FilterKernelVec(p)
		if !ok {
			t.Fatalf("no kernel for %s", p)
		}
		got, ok := kernel(vecs, sel, nil)
		if !ok {
			t.Fatalf("kernel %s declined typed vectors", p)
		}
		var want []int32
		for r, row := range rows {
			keep, err := ev.EvalBool(p, row)
			if err != nil {
				t.Fatalf("eval %s: %v", p, err)
			}
			if keep {
				want = append(want, int32(r))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel %v vs interp %v", p, got, want)
		}
	}
	// Unrecognized shapes decline at match time, mismatched vectors at run
	// time; neither may misfire.
	for _, p := range []Node{
		NewCall(OpLike, s2, Str("%a%")),
		param(t, func(p Node) Node { return NewCall(OpLess, i0, NewCall(OpPlus, p, p)) }, int64(2)),
	} {
		if _, ok := FilterKernelVec(p); ok {
			t.Errorf("%s should have no kernel", p)
		}
	}
	kernel, _ := FilterKernelVec(NewCall(OpGreater, s2, Int(0)))
	if _, ok := kernel(vecs, sel, nil); ok {
		t.Error("an int comparison must decline a string vector")
	}
}

// TestArithKernelVecMatchesEvaluator checks the projection kernels.
func TestArithKernelVecMatchesEvaluator(t *testing.T) {
	rows := compileFixtureRows()
	vecs := fixtureVectors(rows)
	sel := []int32{0, 1, 2, 4}
	i0 := NewInputRef(0, types.BigInt)
	f1 := NewInputRef(1, types.Double)
	s2 := NewInputRef(2, types.Varchar)
	exprs := []Node{
		i0,
		Str("k"),
		NewCall(OpPlus, i0, Int(100)),
		NewCall(OpTimes, f1, Float(3)),
		NewCall(OpMinus, i0, i0),
		NewCall(OpDivide, f1, Float(4)),
		NewCall(OpPlus, Int(1), f1),
		NewCall(OpGreater, i0, f1),
		NewCall(OpNotEquals, s2, Str("bob")),
		param(t, func(p Node) Node { return NewCall(OpPlus, p, i0) }, int64(7)),
		param(t, func(p Node) Node { return NewCall(OpTimes, f1, p) }, 0.5),
		param(t, func(p Node) Node { return NewCall(OpLess, s2, p) }, "c"),
		param(t, func(p Node) Node { return p }, int64(9)),
	}
	ev := &Evaluator{}
	for _, e := range exprs {
		kernel, ok := ArithKernelVec(e)
		if !ok {
			t.Fatalf("no arith kernel for %s", e)
		}
		out, ok, err := kernel(vecs, sel)
		if err != nil || !ok {
			t.Fatalf("kernel %s: ok=%v err=%v", e, ok, err)
		}
		for k, r := range sel {
			want, err := ev.Eval(e, rows[r])
			if err != nil {
				t.Fatalf("eval %s: %v", e, err)
			}
			if got := out.Get(k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s row %d: kernel %v vs interp %v", e, r, got, want)
			}
		}
	}
	if _, _, err := mustKernel(t, NewCall(OpDivide, i0, Int(0)))(vecs, sel); err == nil {
		t.Error("integer division by zero must fail as it does in the interpreter")
	}
	// A NULL constant has no typed broadcast: the kernel declines at run time.
	if _, ok, _ := mustKernel(t, param(t, func(p Node) Node { return p }, nil))(vecs, sel); ok {
		t.Error("a NULL literal must decline")
	}
}

func mustKernel(t *testing.T, e Node) VecColKernel {
	t.Helper()
	k, ok := ArithKernelVec(e)
	if !ok {
		t.Fatalf("no arith kernel for %s", e)
	}
	return k
}
