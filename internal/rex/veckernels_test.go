package rex

import (
	"math/rand"
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
		vecs[c] = schema.BuildVector(col)
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
		// Nested: a kernel's result feeding a kernel (analytic_scan's project
		// class: qty * amount + k, amount - disc * 0.25), int/float promotion
		// across levels, a sub-expression under a comparison.
		NewCall(OpPlus, NewCall(OpTimes, i0, f1), Int(1)),
		NewCall(OpMinus, f1, NewCall(OpTimes, f1, Float(0.25))),
		NewCall(OpTimes, NewCall(OpPlus, i0, Int(2)), NewCall(OpMinus, i0, Int(2))),
		NewCall(OpDivide, f1, NewCall(OpPlus, i0, Int(10))),
		NewCall(OpGreater, NewCall(OpPlus, i0, f1), Float(3)),
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
	// So must a division by a sub-expression that is zero on a non-NULL row …
	if _, _, err := mustKernel(t, NewCall(OpDivide, i0, NewCall(OpMinus, i0, i0)))(vecs, sel); err == nil {
		t.Error("division by a zero sub-expression must fail")
	}
	// … but a zero division inside a sub-expression is the closure's call: it
	// evaluates left to right and stops at the first NULL, so the division may
	// never be reached. The kernel declines instead of failing.
	inner := NewCall(OpPlus, f1, NewCall(OpDivide, i0, Int(0)))
	if _, ok, err := mustKernel(t, inner)(vecs, sel); ok || err != nil {
		t.Errorf("a failing sub-expression must decline: ok=%v err=%v", ok, err)
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

// TestArithKernelVecMatchesClosureOnRandomTrees is the seeded property behind
// nested kernels: over random arithmetic trees of depth ≤ 3 whose leaves are
// int64 / float64 columns (NULL-masked or not), a VecAny column and literals,
// a kernel that accepts the batch produces, row for row, what the compiled
// closure produces over the same vectors — values, NULLs, int/float kinds —
// a kernel error is the closure's error, and a tree that reads the VecAny
// column declines.
func TestArithKernelVecMatchesClosureOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 64
	cols := make([][]any, 5) // int64, int64 with NULLs, float64, float64 with NULLs, mixed
	for r := 0; r < n; r++ {
		cols[0] = append(cols[0], int64(rng.Intn(7)-3))
		cols[2] = append(cols[2], float64(rng.Intn(9)-4)/2)
		cols[1] = append(cols[1], any(int64(rng.Intn(5)-2)))
		cols[3] = append(cols[3], any(float64(rng.Intn(5)-2)))
		if rng.Intn(4) == 0 {
			cols[1][r] = nil
		}
		if rng.Intn(4) == 0 {
			cols[3][r] = nil
		}
		cols[4] = append(cols[4], []any{int64(r), 0.5, nil}[r%3])
	}
	vecs := make([]*schema.Vector, len(cols))
	for c, col := range cols {
		vecs[c] = schema.BuildVector(col)
	}
	if vecs[1].Nulls == nil || vecs[3].Nulls == nil || vecs[4].Kind != schema.VecAny {
		t.Fatal("fixture lost its NULL masks or its VecAny column")
	}
	colTypes := []*types.Type{types.BigInt, types.BigInt, types.Double, types.Double, types.Double}
	ops := []*Operator{OpPlus, OpMinus, OpTimes, OpDivide}
	var readsAny bool
	var gen func(depth int) Node
	gen = func(depth int) Node {
		if depth == 0 || rng.Intn(4) == 0 {
			switch k := rng.Intn(8); {
			case k < 5:
				c := rng.Intn(9) % 5 // the VecAny column less often
				readsAny = readsAny || c == 4
				return NewInputRef(c, colTypes[c])
			case k == 5:
				return Int(int64(rng.Intn(5) - 2))
			default:
				return Float(float64(rng.Intn(5)-2) / 2)
			}
		}
		return NewCall(ops[rng.Intn(len(ops))], gen(depth-1), gen(depth-1))
	}
	sel := make([]int32, 0, n)
	for r := 0; r < n; r += 1 + r%2 {
		sel = append(sel, int32(r))
	}
	var accepted, declined, failed int
	for i := 0; i < 2000; i++ {
		readsAny = false
		e := NewCall(ops[rng.Intn(len(ops))], gen(2), gen(2))
		kernel := mustKernel(t, e)
		closure, err := CompileCols(e)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]any, len(sel))
		var wantErr error
		for k, r := range sel {
			if want[k], err = closure(vecs, int(r)); err != nil {
				wantErr = err
				break
			}
		}
		out, ok, err := kernel(vecs, sel)
		switch {
		case readsAny && ok:
			t.Fatalf("%s reads the VecAny column but the kernel accepted the batch", e)
		case !ok:
			declined++
		case err != nil:
			failed++
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: kernel error %v, closure error %v", e, err, wantErr)
			}
		case wantErr != nil:
			t.Fatalf("%s: closure fails with %v, kernel returned a vector", e, wantErr)
		default:
			accepted++
			if out.Len() != len(sel) {
				t.Fatalf("%s: kernel produced %d rows for %d selected", e, out.Len(), len(sel))
			}
			for k := range sel {
				if got := out.Get(k); !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("%s row %d: kernel %#v vs closure %#v", e, sel[k], got, want[k])
				}
			}
		}
	}
	if accepted < 200 || declined < 200 || failed < 20 {
		t.Fatalf("property did not cover its cases: %d accepted, %d declined, %d failed", accepted, declined, failed)
	}
}
