package schema

import (
	"reflect"
	"testing"

	"calcite/internal/types"
)

func testRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{int64(i), "r"}
	}
	return rows
}

func TestBatchFromRowsRoundTrip(t *testing.T) {
	rows := testRows(5)
	b := BatchFromRows(rows, 2)
	if b.Len != 5 || b.Width() != 2 || b.NumRows() != 5 {
		t.Fatalf("batch shape: len=%d width=%d", b.Len, b.Width())
	}
	back := b.AppendRows(nil)
	if !reflect.DeepEqual(rows, back) {
		t.Fatalf("round trip: %v != %v", back, rows)
	}
}

func TestBatchSelectionAndCompact(t *testing.T) {
	b := BatchFromRows(testRows(6), 2)
	b.Sel = []int32{1, 3, 5}
	if b.NumRows() != 3 {
		t.Fatalf("selected rows: %d", b.NumRows())
	}
	if got := b.Row(1); got[0] != int64(3) {
		t.Fatalf("Row(1): %v", got)
	}
	c := b.Compact()
	if c.Sel != nil || c.Len != 3 || c.Vecs[0].Get(2) != int64(5) {
		t.Fatalf("compact: %+v", c)
	}
	// Dense batches compact to themselves.
	if c.Compact() != c {
		t.Fatal("compact of dense batch should be identity")
	}
}

func TestBatchCursorShims(t *testing.T) {
	rows := testRows(10)
	// row cursor -> batches of 4 -> row cursor again.
	bc := BatchCursorFromCursor(NewSliceCursor(rows), 2, 4)
	var sizes []int
	var all [][]any
	for {
		b, err := bc.NextBatch()
		if err == Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, b.NumRows())
		all = b.AppendRows(all)
	}
	if !reflect.DeepEqual(sizes, []int{4, 4, 2}) {
		t.Fatalf("batch sizes: %v", sizes)
	}
	if !reflect.DeepEqual(all, rows) {
		t.Fatalf("batched rows: %v", all)
	}

	rc := RowCursorFromBatches(BatchCursorFromCursor(NewSliceCursor(rows), 2, 3))
	defer rc.Close()
	var back [][]any
	for {
		row, err := rc.Next()
		if err == Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		back = append(back, row)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("row shim: %v", back)
	}
}

func TestMemTableScanBatches(t *testing.T) {
	mt := NewMemTable("t", types.Row(
		types.Field{Name: "a", Type: types.BigInt},
		types.Field{Name: "b", Type: types.Varchar},
	), testRows(7))
	var bt BatchScannableTable = mt // compile-time interface check
	bc, err := bt.ScanBatches(3)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	var all [][]any
	for {
		b, err := bc.NextBatch()
		if err == Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		all = b.AppendRows(all)
	}
	if len(all) != 7 || all[6][0] != int64(6) {
		t.Fatalf("scan batches: %v", all)
	}
	// Zero-width batches still carry a row count.
	zb := BatchFromRows([][]any{{}, {}}, 0)
	if zb.NumRows() != 2 {
		t.Fatalf("zero-width rows: %d", zb.NumRows())
	}
}
