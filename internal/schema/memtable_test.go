package schema

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"calcite/internal/stats"
	"calcite/internal/types"
)

func twoColTable(rows [][]any) *MemTable {
	return NewMemTable("t", types.Row(
		types.Field{Name: "a", Type: types.BigInt},
		types.Field{Name: "b", Type: types.Double},
	), rows)
}

func drainBatches(t *testing.T, cur BatchCursor) [][]any {
	t.Helper()
	defer cur.Close()
	var rows [][]any
	for {
		b, err := cur.NextBatch()
		if err == Done {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = b.AppendRows(rows)
	}
}

func drainRows(t *testing.T, cur Cursor) [][]any {
	t.Helper()
	defer cur.Close()
	var rows [][]any
	for {
		row, err := cur.Next()
		if err == Done {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
}

// scanBothWays returns the table's rows read as batches and through the row
// cursor, failing if they differ.
func scanBothWays(t *testing.T, mt *MemTable, batchSize int) [][]any {
	t.Helper()
	cur, _ := mt.ScanBatches(batchSize)
	batched := drainBatches(t, cur)
	rc, _ := mt.Scan()
	if rows := drainRows(t, rc); !reflect.DeepEqual(batched, rows) {
		t.Fatalf("batch and row scans differ:\n batches %v\n rows    %v", batched, rows)
	}
	return batched
}

// TestMemTableInsertRejectsMalformedRows: a row of the wrong width fails the
// whole insert at the writer instead of panicking a later reader.
func TestMemTableInsertRejectsMalformedRows(t *testing.T) {
	mt := twoColTable([][]any{{int64(1), 1.5}})
	before := mt.Stats()
	for _, bad := range [][][]any{
		{{int64(2), 2.5}, {int64(3)}},
		{{int64(2), 2.5, "extra"}},
	} {
		if err := mt.Insert(bad); err == nil {
			t.Fatalf("insert of %v succeeded", bad)
		}
	}
	if got := mt.Rows(); !reflect.DeepEqual(got, [][]any{{int64(1), 1.5}}) {
		t.Fatalf("failed insert appended rows: %v", got)
	}
	if after := mt.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed insert touched statistics: %+v → %+v", before, after)
	}
	if got := scanBothWays(t, mt, 0); len(got) != 1 {
		t.Fatalf("scan after failed insert: %v", got)
	}
}

// TestNewMemTableRejectsMalformedRows: construction checks width with the
// same helper as Insert; having no error to return, it panics with that
// message at the caller.
func TestNewMemTableRejectsMalformedRows(t *testing.T) {
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "row 1 has 1 values, want 2") {
			t.Fatalf("NewMemTable with a short row: recovered %v", err)
		}
	}()
	twoColTable([][]any{{int64(1), 1.5}, {int64(2)}})
}

// TestMemTableInsertKindDemotion: a value that does not fit its column's
// vector demotes that column alone, a first NULL allocates the mask, batch
// and row scans agree before and after, and a cursor pinned before the insert
// keeps reading the typed arrays it pinned.
func TestMemTableInsertKindDemotion(t *testing.T) {
	kinds := func(cur BatchCursor) [2]VecKind {
		b, err := cur.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		return [2]VecKind{b.Vecs[0].Kind, b.Vecs[1].Kind}
	}
	for _, tc := range []struct {
		name string
		row  []any
		want [2]VecKind
	}{
		{"float into BIGINT", []any{2.5, 2.5}, [2]VecKind{VecAny, VecFloat64}},
		{"string into BIGINT", []any{"x", 2.5}, [2]VecKind{VecAny, VecFloat64}},
		{"int64 into DOUBLE", []any{int64(2), int64(2)}, [2]VecKind{VecInt64, VecAny}},
		{"first NULL", []any{nil, nil}, [2]VecKind{VecInt64, VecFloat64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := [][]any{{int64(1), 1.5}}
			mt := twoColTable(append([][]any(nil), seed...))
			if got := scanBothWays(t, mt, 0); !reflect.DeepEqual(got, seed) {
				t.Fatalf("before insert: %v", got)
			}
			pinned, _ := mt.ScanBatches(0)
			pinnedKinds, _ := mt.ScanBatches(0)
			// A conforming row after the odd one checks the column keeps
			// accepting appends in its new shape.
			tail := []any{int64(3), 3.5}
			if err := mt.Insert([][]any{tc.row, tail}); err != nil {
				t.Fatal(err)
			}
			want := [][]any{seed[0], tc.row, tail}
			if got := scanBothWays(t, mt, 2); !reflect.DeepEqual(got, want) {
				t.Fatalf("after insert: %v, want %v", got, want)
			}
			after, _ := mt.ScanBatches(0)
			if got := kinds(after); got != tc.want {
				t.Fatalf("vector kinds = %v, want %v", got, tc.want)
			}
			if got := drainBatches(t, pinned); !reflect.DeepEqual(got, seed) {
				t.Fatalf("cursor pinned before the insert saw %v", got)
			}
			if got := kinds(pinnedKinds); got != [2]VecKind{VecInt64, VecFloat64} {
				t.Fatalf("cursor pinned before the insert reads kinds %v", got)
			}
		})
	}
}

// TestMemTablePinnedReader: a cursor opened at n rows yields exactly those n
// however many appends (and reallocations, a first NULL, a demotion) follow,
// still from the typed arrays it pinned; a cursor opened afterwards sees them
// all.
func TestMemTablePinnedReader(t *testing.T) {
	const n, more = 3000, 10000
	seed := make([][]any, n)
	for i := range seed {
		seed[i] = []any{int64(i), float64(i)}
	}
	mt := twoColTable(append([][]any(nil), seed...))
	pinned, _ := mt.ScanBatches(7)
	pinnedRows, _ := mt.Scan()

	want := append([][]any(nil), seed...)
	for i := n; i < n+more; i++ {
		row := []any{int64(i), float64(i)}
		switch i {
		case n + 100:
			row[0] = nil
		case n + 5000:
			row[1] = "demoted"
		}
		want = append(want, row)
		if err := mt.Insert([][]any{row}); err != nil {
			t.Fatal(err)
		}
	}

	var got [][]any
	for {
		b, err := pinned.NextBatch()
		if err == Done {
			break
		}
		if b.Vecs[0].Kind != VecInt64 || b.Vecs[1].Kind != VecFloat64 || b.Vecs[0].Nulls != nil {
			t.Fatalf("pinned cursor serves kinds %v/%v (nulls %v) after the demotion",
				b.Vecs[0].Kind, b.Vecs[1].Kind, b.Vecs[0].Nulls != nil)
		}
		got = b.AppendRows(got)
	}
	if !reflect.DeepEqual(got, seed) {
		t.Fatalf("pinned cursor yielded %d rows, want the first %d unchanged", len(got), n)
	}
	if viaRows := drainRows(t, pinnedRows); !reflect.DeepEqual(viaRows, seed) {
		t.Fatalf("pinned row cursor yielded %d rows, want the first %d unchanged", len(viaRows), n)
	}
	if got := scanBothWays(t, mt, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor opened after the appends yielded %d rows, want %d", len(got), n+more)
	}
	if got := mt.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Rows() yielded %d rows, want %d", len(got), n+more)
	}
	if got := mt.Stats().RowCount; got != n+more {
		t.Fatalf("row count = %v, want %d", got, n+more)
	}
}

// TestMemTablePinnedReaderConcurrentInserts races scanners against one
// appender (for -race): every scan must see a whole prefix of the inserts —
// row i holds (i, i) — of a length between the counts before and after it.
// The appender puts a first NULL into b half way and, in the demotion run, a
// value of another kind into a at three quarters, re-boxing the column under
// the scanners' feet.
func TestMemTablePinnedReaderConcurrentInserts(t *testing.T) {
	for _, demote := range []bool{false, true} {
		t.Run(fmt.Sprintf("demote=%v", demote), func(t *testing.T) {
			const n, more = 500, 4000
			seed := make([][]any, n)
			for i := range seed {
				seed[i] = []any{int64(i), float64(i)}
			}
			mt := twoColTable(seed)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := n; i < n+more; i++ {
					var a, b any = int64(i), float64(i)
					if i == n+more/2 {
						b = nil
					}
					if demote && i == n+3*more/4 {
						a = float64(i) // Compare-equal to int64(i), another kind
					}
					if err := mt.Insert([][]any{{a, b}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for g := 0; g < 4; g++ {
				batchSize := []int{3, 0}[g%2]
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						lo := int(mt.Stats().RowCount)
						cur, _ := mt.ScanBatches(batchSize)
						rows, err := scanPrefix(cur)
						hi := int(mt.Stats().RowCount)
						if err != nil {
							t.Error(err)
							return
						}
						if rows < lo || rows > hi {
							t.Errorf("scan saw %d rows, outside [%d, %d]", rows, lo, hi)
							return
						}
					}
				}()
			}
			wg.Wait()
			if kind := mt.vecs[0].Kind; demote != (kind == VecAny) {
				t.Fatalf("column a ended as %v", kind)
			}
		})
	}
}

// scanPrefix drains cur checking that row i is (i, i or NULL), and returns
// the row count.
func scanPrefix(cur BatchCursor) (int, error) {
	defer cur.Close()
	i := 0
	for {
		b, err := cur.NextBatch()
		if err == Done {
			return i, nil
		}
		if err != nil {
			return 0, err
		}
		for r := 0; r < b.Len; r, i = r+1, i+1 {
			if a := b.Vecs[0].Get(r); types.Compare(a, int64(i)) != 0 {
				return 0, fmt.Errorf("row %d holds %v", i, a)
			}
			if bv := b.Vecs[1].Get(r); bv != nil && bv != float64(i) {
				return 0, fmt.Errorf("row %d column b holds %v", i, bv)
			}
		}
	}
}

// TestMemTableLookup: the indexed columns are the declared single-column keys
// and the analyzed near-keys; a lookup returns the key's rows in table order
// as of the call, whatever Insert appends or demotes afterwards; NULL is
// never found.
func TestMemTableLookup(t *testing.T) {
	mt := twoColTable([][]any{{int64(1), 1.0}, {int64(2), 2.0}, {int64(1), 3.0}})
	if mt.Indexed(0) || mt.Indexed(1) {
		t.Fatal("indexed before any statistics named a column")
	}
	near := &stats.ColumnStats{NDV: 9}
	mt.SetStats(Statistics{RowCount: 10, UniqueColumns: [][]int{{1}, {0, 1}},
		Columns: []*stats.ColumnStats{near, {NDV: 8}}})
	if !mt.Indexed(0) || !mt.Indexed(1) {
		t.Fatal("want the near-key (NDV 9 of 10) and the declared key indexed")
	}
	near.NullCount = 1
	mt.SetStats(Statistics{RowCount: 10, Columns: []*stats.ColumnStats{near, {NDV: 8}}})
	if mt.Indexed(0) || mt.Indexed(1) {
		t.Fatal("a column with NULLs or NDV 8 of 10 is indexed")
	}

	mt.SetStats(Statistics{RowCount: 3, UniqueColumns: [][]int{{0}}})
	lookup := func(key any) BatchCursor {
		cur, err := mt.Lookup(0, key)
		if err != nil {
			t.Fatal(err)
		}
		return cur
	}
	pinned := lookup(int64(1))
	if err := mt.Insert([][]any{{int64(1), 4.0}, {nil, 5.0}, {"demotes", 6.0}, {1.0, 7.0}}); err != nil {
		t.Fatal(err)
	}
	if got, want := drainBatches(t, pinned), [][]any{{int64(1), 1.0}, {int64(1), 3.0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned lookup = %v, want %v", got, want)
	}
	want := [][]any{{int64(1), 1.0}, {int64(1), 3.0}, {int64(1), 4.0}, {1.0, 7.0}}
	if got := drainBatches(t, lookup(1.0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup after the appends = %v, want %v", got, want)
	}
	for key, n := range map[any]int{nil: 0, "demotes": 1, int64(3): 0} {
		if got := drainBatches(t, lookup(key)); len(got) != n {
			t.Errorf("lookup of %v = %v, want %d rows", key, got, n)
		}
	}
	if _, err := mt.Lookup(1, 1.0); err == nil {
		t.Error("lookup on a column without an index succeeded")
	}
}
