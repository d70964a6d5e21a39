package schema

import (
	"reflect"
	"testing"

	"calcite/internal/types"
)

func TestBuildVectorDetectsKinds(t *testing.T) {
	cases := []struct {
		name string
		vals []any
		want VecKind
	}{
		{"int64", []any{int64(1), int64(2)}, VecInt64},
		{"float64", []any{1.5, nil, 2.5}, VecFloat64},
		{"bool", []any{true, false, nil}, VecBool},
		{"string", []any{"a", "b"}, VecString},
		{"all-null", []any{nil, nil}, VecAny},
		{"mixed", []any{int64(1), "x"}, VecAny},
		{"non-core", []any{[]any{int64(1)}}, VecAny},
	}
	for _, tc := range cases {
		v := BuildVector(tc.vals)
		if v.Kind != tc.want {
			t.Errorf("%s: kind = %v, want %v", tc.name, v.Kind, tc.want)
		}
		if v.Len() != len(tc.vals) {
			t.Errorf("%s: len = %d, want %d", tc.name, v.Len(), len(tc.vals))
		}
		for r, x := range tc.vals {
			if got := v.Get(r); !reflect.DeepEqual(got, x) {
				t.Errorf("%s: Get(%d) = %#v, want %#v", tc.name, r, got, x)
			}
			if v.IsNull(r) != (x == nil) {
				t.Errorf("%s: IsNull(%d) = %v, want %v", tc.name, r, v.IsNull(r), x == nil)
			}
		}
	}
}

func TestVectorsFromRowsDeclaredKindsAndFallback(t *testing.T) {
	fields := []types.Field{
		{Name: "a", Type: types.BigInt},  // conforming, with a NULL
		{Name: "b", Type: types.BigInt},  // contradicted: strings
		{Name: "c", Type: types.Double},  // contradicted: int among floats
		{Name: "d", Type: types.Any},     // no typed kind declared: detection
		{Name: "e", Type: types.Varchar}, // all NULL keeps the declared kind
	}
	rows := [][]any{
		{int64(1), "a", 1.5, true, nil},
		{nil, "b", int64(2), false, nil},
	}
	vecs := VectorsFromRows(rows, fields)
	want := []VecKind{VecInt64, VecString, VecAny, VecBool, VecString}
	for c, k := range want {
		if vecs[c].Kind != k {
			t.Errorf("column %s: kind = %v, want %v", fields[c].Name, vecs[c].Kind, k)
		}
	}
	if got := (&Batch{Len: 2, Vecs: vecs}).AppendRows(nil); !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows back = %v, want %v", got, rows)
	}
	if empty := VectorsFromRows(nil, fields); len(empty) != len(fields) || empty[0].Len() != 0 {
		t.Fatalf("no rows: %v", empty)
	}
}

func TestBuildVectorSharesMixedColumn(t *testing.T) {
	// VecAny keeps the input slice (zero-copy fallback).
	vals := []any{int64(1), "x"}
	v := BuildVector(vals)
	if v.Kind != VecAny || &v.A[0] != &vals[0] {
		t.Fatal("VecAny fallback should share the input slice")
	}
}

func TestVecKindForType(t *testing.T) {
	cases := []struct {
		t    *types.Type
		want VecKind
	}{
		{types.BigInt, VecInt64},
		{types.Integer, VecInt64},
		{types.Double, VecFloat64},
		{types.Boolean, VecBool},
		{types.Varchar, VecString},
		{types.Timestamp, VecInt64},
	}
	for _, tc := range cases {
		if got := VecKindForType(tc.t); got != tc.want {
			t.Errorf("VecKindForType(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestVectorSliceIsZeroCopyWindow(t *testing.T) {
	v := BuildVector([]any{int64(0), nil, int64(2), int64(3)})
	w := v.Slice(1, 3)
	if w.Len() != 2 {
		t.Fatalf("window len = %d, want 2", w.Len())
	}
	if !w.IsNull(0) || w.Get(1) != int64(2) {
		t.Fatalf("window contents wrong: %v %v", w.Get(0), w.Get(1))
	}
	// The window aliases the parent payload.
	v.I64[2] = 99
	if w.Get(1) != int64(99) {
		t.Fatal("Slice should alias the parent payload")
	}
}

func TestVectorGatherAndGatherOrd(t *testing.T) {
	v := BuildVector([]any{"a", nil, "c", "d"})
	g := v.Gather([]int32{3, 1, 0})
	want := []any{"d", nil, "a"}
	for i, x := range want {
		if got := g.Get(i); !reflect.DeepEqual(got, x) {
			t.Errorf("Gather[%d] = %#v, want %#v", i, got, x)
		}
	}
	// GatherOrd pads negative ordinals with NULL (outer-join shape).
	o := v.GatherOrd([]int32{2, -1, 1})
	want = []any{"c", nil, nil}
	for i, x := range want {
		if got := o.Get(i); !reflect.DeepEqual(got, x) {
			t.Errorf("GatherOrd[%d] = %#v, want %#v", i, got, x)
		}
		if o.IsNull(i) != (x == nil) {
			t.Errorf("GatherOrd IsNull(%d) = %v, want %v", i, o.IsNull(i), x == nil)
		}
	}
	// Dense gather of a null-free vector carries no null mask.
	nf := BuildVector([]any{int64(1), int64(2)})
	if g := nf.Gather([]int32{1, 0}); g.Nulls != nil {
		t.Fatal("gather of null-free vector should not allocate a mask")
	}
}

// vecBatch builds a dual-representation batch over typed vectors.
func vecBatch(colVals ...[]any) *Batch {
	b := &Batch{Len: len(colVals[0])}
	b.Vecs = make([]*Vector, len(colVals))
	for c, vals := range colVals {
		b.Vecs[c] = BuildVector(vals)
	}
	return b
}

func TestBatchSelOverVectors(t *testing.T) {
	b := vecBatch(
		[]any{int64(0), int64(1), int64(2), int64(3)},
		[]any{"r0", nil, "r2", "r3"},
	)
	b.Sel = []int32{3, 1}
	if b.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", b.NumRows())
	}
	if got := b.Row(0); !reflect.DeepEqual(got, []any{int64(3), "r3"}) {
		t.Fatalf("Row(0) = %#v", got)
	}
	if got := b.Row(1); !reflect.DeepEqual(got, []any{int64(1), nil}) {
		t.Fatalf("Row(1) = %#v", got)
	}
	rows := b.AppendRows(nil)
	if len(rows) != 2 || !reflect.DeepEqual(rows[1], []any{int64(1), nil}) {
		t.Fatalf("AppendRows = %#v", rows)
	}
}

func TestBatchDetachAndCompactPropagateVectors(t *testing.T) {
	b := vecBatch([]any{int64(0), int64(1), int64(2)})
	b.Sel = []int32{2, 0}
	d := b.Detach()
	if d.Vecs == nil || &d.Vecs[0] == nil {
		t.Fatal("Detach dropped the vectors")
	}
	// Detach copies the selection: recycling the producer's Sel must not
	// change the detached batch.
	b.Sel[0] = 1
	if got := d.Row(0); got[0] != int64(2) {
		t.Fatalf("Detach shares Sel with producer: Row(0) = %#v", got)
	}
	c := d.Compact()
	if c.Sel != nil || c.NumRows() != 2 {
		t.Fatalf("Compact kept a selection: %+v", c)
	}
	if c.Vecs[0].Get(0) != int64(2) || c.Vecs[0].Get(1) != int64(0) {
		t.Fatalf("Compact gathered wrong rows: %v %v", c.Vecs[0].Get(0), c.Vecs[0].Get(1))
	}
}

func TestMixedTypedAndFallbackBatch(t *testing.T) {
	// One typed column, one dynamic (VecAny) column in the same batch.
	b := vecBatch(
		[]any{int64(1), int64(2)},
		[]any{[]any{int64(9)}, nil},
	)
	if b.Vecs[0].Kind != VecInt64 || b.Vecs[1].Kind != VecAny {
		t.Fatalf("kinds = %v, %v", b.Vecs[0].Kind, b.Vecs[1].Kind)
	}
	rows := b.AppendRows(nil)
	if !reflect.DeepEqual(rows[0], []any{int64(1), []any{int64(9)}}) {
		t.Fatalf("rows[0] = %#v", rows[0])
	}
	if rows[1][1] != nil {
		t.Fatalf("rows[1] = %#v", rows[1])
	}
}

func TestMemTableSnapshotBuildsTypedVectors(t *testing.T) {
	mt := NewMemTable("t", types.Row(
		types.Field{Name: "a", Type: types.BigInt},
		types.Field{Name: "b", Type: types.Varchar},
	), [][]any{{int64(1), "x"}, {int64(2), nil}})
	cur, err := mt.ScanBatches(16)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	b, err := cur.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Vecs == nil {
		t.Fatal("MemTable scan produced no typed vectors")
	}
	if b.Vecs[0].Kind != VecInt64 || b.Vecs[1].Kind != VecString {
		t.Fatalf("kinds = %v, %v", b.Vecs[0].Kind, b.Vecs[1].Kind)
	}
	if !b.Vecs[1].IsNull(1) {
		t.Fatal("NULL lost in typed snapshot")
	}
}
