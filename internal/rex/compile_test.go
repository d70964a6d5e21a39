package rex

import (
	"reflect"
	"testing"

	"calcite/internal/schema"
	"calcite/internal/types"
)

// compileFixtureRows exercises NULLs, ints, floats, strings and booleans.
func compileFixtureRows() [][]any {
	return [][]any{
		{int64(1), 10.5, "alice", true},
		{int64(2), nil, "bob", false},
		{nil, 3.25, "carol", nil},
		{int64(-7), 0.0, "", true},
		{int64(5), 2.0, "dave", nil},
	}
}

func compileFixtureExprs() []Node {
	ref := func(i int, t *types.Type) Node { return NewInputRef(i, t) }
	i0 := ref(0, types.BigInt)
	f1 := ref(1, types.Double)
	s2 := ref(2, types.Varchar)
	b3 := ref(3, types.Boolean)
	return []Node{
		Int(42),
		i0,
		NewCall(OpEquals, i0, Int(2)),
		NewCall(OpGreater, i0, Int(0)),
		NewCall(OpLessEqual, Int(2), i0),
		NewCall(OpNotEquals, s2, Str("bob")),
		NewCall(OpLess, f1, Float(4.0)),
		NewCall(OpGreaterEqual, f1, f1),
		NewCall(OpPlus, i0, Int(3)),
		NewCall(OpMinus, Float(100), f1),
		NewCall(OpTimes, i0, i0),
		NewCall(OpDivide, f1, Float(2)),
		NewCall(OpIsNull, f1),
		NewCall(OpIsNotNull, i0),
		NewCall(OpNot, b3),
		And(NewCall(OpGreater, i0, Int(0)), NewCall(OpIsNotNull, f1)),
		Or(NewCall(OpEquals, s2, Str("alice")), b3),
		NewCall(OpCase, NewCall(OpGreater, i0, Int(1)), Str("big"), Str("small")),
		NewCall(OpCoalesce, f1, Float(-1)),
		NewCallTyped(OpCast, types.Varchar, i0),
		NewCall(OpUpper, s2),
		NewCall(OpLike, s2, Str("%a%")),
		NewCall(OpConcat, s2, Str("!")),
	}
}

// TestCompileMatchesEvaluator: the compiled closures must agree with the
// tree-walking interpreter on every expression/row pair, over boxed and typed
// vectors alike.
func TestCompileMatchesEvaluator(t *testing.T) {
	rows := compileFixtureRows()
	// Column-major twice: as lifted from rows (all VecAny) and as a typed
	// source would hold them.
	lifted := schema.BatchFromRows(rows, 4).Vecs
	typed := make([]*schema.Vector, len(lifted))
	for c, v := range lifted {
		typed[c] = schema.BuildVector(v.A)
	}
	ev := &Evaluator{}
	for _, e := range compileFixtureExprs() {
		colFn, err := CompileCols(e)
		if err != nil {
			t.Fatalf("CompileCols(%s): %v", e, err)
		}
		for r, row := range rows {
			want, werr := ev.Eval(e, row)
			for _, cols := range [][]*schema.Vector{lifted, typed} {
				cgot, cerr := colFn(cols, r)
				if (werr == nil) != (cerr == nil) || !reflect.DeepEqual(want, cgot) {
					t.Errorf("%s row %d: interp (%v, %v) vs compiled (%v, %v)", e, r, want, werr, cgot, cerr)
				}
			}
		}
	}
}

// TestBindParamsThenCompile: a placeholder never compiles, its bound form
// does, and binding leaves the shared expression untouched.
func TestBindParamsThenCompile(t *testing.T) {
	e := NewCall(OpGreater, NewInputRef(0, types.BigInt), &DynamicParam{Index: 0, T: types.Any})
	if _, err := CompileCols(e); err == nil {
		t.Error("an unbound parameter should not compile")
	}
	if _, err := BindParams(e, nil); err == nil {
		t.Error("binding ?0 with no values should fail")
	}
	digest := e.String()
	for _, k := range []int64{1, 4} {
		bound, err := BindParams(e, []any{k})
		if err != nil {
			t.Fatal(err)
		}
		fn, err := CompileColsBool(bound)
		if err != nil {
			t.Fatalf("CompileColsBool(%s): %v", bound, err)
		}
		three := []*schema.Vector{{Kind: schema.VecInt64, I64: []int64{3}}}
		if keep, err := fn(three, 0); err != nil || keep != (3 > k) {
			t.Errorf("%s on 3: got (%v, %v)", bound, keep, err)
		}
	}
	if e.String() != digest {
		t.Errorf("BindParams modified its input: %s, was %s", e, digest)
	}
	lit := Int(7)
	if bound, err := BindParams(lit, nil); err != nil || bound != Node(lit) {
		t.Errorf("an expression without parameters should come back as is: (%v, %v)", bound, err)
	}
}
