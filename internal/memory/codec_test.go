package memory

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"calcite/internal/schema"
)

func roundTrip(t *testing.T, b *schema.Batch) *schema.Batch {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := EncodeBatch(w, b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestCodecRoundTripAllTypes spills one batch holding every runtime value
// kind and requires an exact round-trip.
func TestCodecRoundTripAllTypes(t *testing.T) {
	rows := [][]any{
		{nil, true, int64(-42), 3.25, "hello", []any{int64(1), "a", nil}, map[string]any{"k": int64(9), "j": "v"}},
		{nil, false, int64(1 << 40), -0.0, "", []any{}, map[string]any{}},
	}
	b := schema.BatchFromRows(rows, 7)
	b.Seq = 17
	got := roundTrip(t, b)
	if got.Seq != 17 {
		t.Fatalf("seq = %d, want 17", got.Seq)
	}
	if got.NumRows() != 2 || got.Width() != 7 {
		t.Fatalf("shape = %dx%d", got.NumRows(), got.Width())
	}
	for i := range rows {
		if !reflect.DeepEqual(got.Row(i), rows[i]) {
			t.Errorf("row %d: got %#v want %#v", i, got.Row(i), rows[i])
		}
	}
}

// TestCodecAppliesSelectionVector: a batch with a selection vector decodes
// as the compacted batch — only live rows, in selection order.
func TestCodecAppliesSelectionVector(t *testing.T) {
	b := schema.BatchFromRows([][]any{{int64(0), "a"}, {int64(1), "b"}, {int64(2), "c"}, {int64(3), "d"}}, 2)
	b.Sel = []int32{3, 1}
	got := roundTrip(t, b)
	if got.Sel != nil {
		t.Fatal("decoded batch should be dense")
	}
	want := [][]any{{int64(3), "d"}, {int64(1), "b"}}
	for i := range want {
		if !reflect.DeepEqual(got.Row(i), want[i]) {
			t.Errorf("row %d: got %#v want %#v", i, got.Row(i), want[i])
		}
	}
}

// TestCodecStreamBatchSize3 writes a stream of batchSize=3 batches (the
// boundary-shakeout configuration) and reads them back through a run file.
func TestCodecStreamBatchSize3(t *testing.T) {
	a := NewAllocator(nil, 0, true)
	defer a.Close()
	w, err := a.NewRun("Sort")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]any
	seq := int64(0)
	for start := 0; start < 10; start += 3 {
		var rows [][]any
		for i := start; i < start+3 && i < 10; i++ {
			row := []any{int64(i), float64(i) / 4, nil}
			rows = append(rows, row)
			want = append(want, row)
		}
		b := schema.BatchFromRows(rows, 3)
		b.Seq = seq
		seq++
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.Rows() != 10 {
		t.Fatalf("run rows = %d, want 10", run.Rows())
	}
	rr, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var got [][]any
	wantSeq := int64(0)
	for {
		b, err := rr.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Seq != wantSeq {
			t.Fatalf("batch seq = %d, want %d", b.Seq, wantSeq)
		}
		wantSeq++
		got = b.AppendRows(got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestCodecRejectsUnspillable: opaque values fail with a clear error
// instead of corrupting the stream.
func TestCodecRejectsUnspillable(t *testing.T) {
	type opaque struct{ x int }
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := EncodeBatch(w, schema.BatchFromRows([][]any{{opaque{1}}}, 1))
	if err == nil {
		t.Fatal("expected error for unspillable value")
	}
}

// TestCodecZeroWidthAndEmpty round-trips degenerate shapes.
func TestCodecZeroWidthAndEmpty(t *testing.T) {
	got := roundTrip(t, schema.BatchFromRows(nil, 2))
	if got.NumRows() != 0 || got.Width() != 2 {
		t.Fatalf("empty batch shape = %dx%d", got.NumRows(), got.Width())
	}
}

// typedPageBatch builds a vector-backed batch with one column per core
// vector kind, each carrying a NULL, so every typed page encoder sees its
// null bitmap.
func typedPageBatch(t *testing.T) (*schema.Batch, [][]any) {
	t.Helper()
	cols := [][]any{
		{int64(-5), nil, int64(1 << 50)},
		{1.25, -0.5, nil},
		{nil, true, false},
		{"alpha", "", nil},
		{[]any{int64(1)}, nil, map[string]any{"k": int64(2)}}, // dynamic → VecAny page
	}
	b := &schema.Batch{Len: 3, Vecs: make([]*schema.Vector, len(cols))}
	for c, col := range cols {
		b.Vecs[c] = schema.BuildVector(col)
	}
	wantKinds := []schema.VecKind{
		schema.VecInt64, schema.VecFloat64, schema.VecBool,
		schema.VecString, schema.VecAny,
	}
	for c, want := range wantKinds {
		if b.Vecs[c].Kind != want {
			t.Fatalf("fixture col %d built as %v, want %v", c, b.Vecs[c].Kind, want)
		}
	}
	return b, cols
}

// TestCodecTypedPagesRoundTrip spills a vector-backed batch and requires
// the decoded batch to come back typed: same kinds, same values, same NULLs.
func TestCodecTypedPagesRoundTrip(t *testing.T) {
	b, cols := typedPageBatch(t)
	got := roundTrip(t, b)
	for c := range cols {
		if got.Vecs[c].Kind != b.Vecs[c].Kind {
			t.Errorf("col %d decoded as %v, want %v", c, got.Vecs[c].Kind, b.Vecs[c].Kind)
		}
	}
	for r := range cols[0] {
		for c := range cols {
			if !reflect.DeepEqual(got.Vecs[c].Get(r), cols[c][r]) {
				t.Errorf("col %d row %d: got %#v want %#v", c, r, got.Vecs[c].Get(r), cols[c][r])
			}
		}
	}
}

// TestCodecTypedPagesStreamBatchSize3 streams a typed run through a spill
// file at batchSize=3 and checks the reassembled rows, exercising page
// framing across many tiny batches.
func TestCodecTypedPagesStreamBatchSize3(t *testing.T) {
	a := NewAllocator(nil, 0, true)
	defer a.Close()
	w, err := a.NewRun("Sort")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]any
	for chunk := 0; chunk < 4; chunk++ {
		cols := make([][]any, 4)
		for i := 0; i < 3; i++ {
			n := chunk*3 + i
			var f any
			if n%3 != 1 {
				f = float64(n) / 4
			}
			row := []any{int64(n), f, "s" + string(rune('a'+n)), n%2 == 0}
			want = append(want, row)
			for c, v := range row {
				cols[c] = append(cols[c], v)
			}
		}
		b := &schema.Batch{Len: 3, Vecs: make([]*schema.Vector, len(cols))}
		for c, col := range cols {
			b.Vecs[c] = schema.BuildVector(col)
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var got [][]any
	for {
		b, err := rr.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = b.AppendRows(got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestCodecAnyPages round-trips the columns that need the per-value
// encoding — a genuinely mixed numeric column (float64 / int64 / NULL), a
// bool among other kinds, and values of non-core types — plus a VecAny
// column of nothing but int64, which the codec writes as a typed page; dense
// and under a selection vector.
func TestCodecAnyPages(t *testing.T) {
	rows := [][]any{
		{1.5, true, []any{"a"}, int64(1)},
		{int64(2), int64(3), []any{int64(1), nil}, nil},
		{nil, nil, map[string]any{"k": 2.5}, int64(2)},
		{2.5, "x", nil, int64(3)},
	}
	wantKinds := []schema.VecKind{schema.VecAny, schema.VecAny, schema.VecAny, schema.VecInt64}
	for _, sel := range [][]int32{nil, {3, 1, 2}} {
		b := schema.BatchFromRows(rows, 4)
		b.Sel = sel
		want := b.AppendRows(nil)
		got := roundTrip(t, b)
		if got.Sel != nil || got.NumRows() != len(want) {
			t.Fatalf("sel %v: decoded %d rows (sel %v), want %d dense", sel, got.NumRows(), got.Sel, len(want))
		}
		for c, k := range wantKinds {
			if got.Vecs[c].Kind != k {
				t.Errorf("sel %v: col %d decoded as %v, want %v", sel, c, got.Vecs[c].Kind, k)
			}
		}
		if rows := got.AppendRows(nil); !reflect.DeepEqual(rows, want) {
			t.Errorf("sel %v:\n got %#v\nwant %#v", sel, rows, want)
		}
	}
}

// TestCodecTypedPageWithSelection spills a typed batch through a selection
// vector: only live rows survive, in selection order, still typed.
func TestCodecTypedPageWithSelection(t *testing.T) {
	b := &schema.Batch{Len: 4, Vecs: []*schema.Vector{
		schema.BuildVector([]any{int64(0), int64(1), nil, int64(3)}),
		schema.BuildVector([]any{"a", "b", "c", "d"}),
	}}
	b.Sel = []int32{3, 2, 0}
	got := roundTrip(t, b)
	if got.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", got.NumRows())
	}
	want := [][]any{{int64(3), "d"}, {nil, "c"}, {int64(0), "a"}}
	for i := range want {
		if !reflect.DeepEqual(got.Row(i), want[i]) {
			t.Errorf("row %d: got %#v want %#v", i, got.Row(i), want[i])
		}
	}
	if got.Vecs[0].Kind != schema.VecInt64 {
		t.Fatal("selection round-trip lost typed representation")
	}
}
