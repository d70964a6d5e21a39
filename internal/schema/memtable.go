package schema

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"calcite/internal/types"
)

// MemTable is an in-memory table with statistics: the workhorse of tests and
// the mem adapter, and the storage behind CREATE TABLE (§9 DDL support).
//
// Its rows live in exactly one place, the vectors batches are served from:
// one per field, transposed once from the rows NewMemTable is given. A
// column whose values are all of the declared type's runtime kind is stored
// monomorphically; a column whose declared type has no typed kind, or that
// holds a value of another kind, is VecAny. The store is append-only. Insert
// appends each value to its vector in amortised O(1); a scan pins the vector
// headers and the row count n under the read lock and from then on reads
// only indices below n of the arrays it pinned. A writer only ever writes
// indices at or above n of a shared array, or moves the column to a fresh
// one, so a cursor opened at n rows yields exactly those n rows however many
// inserts follow, with no copy-on-write and no snapshot to rebuild. Beside
// the vectors it keeps a hash index on each column its statistics name
// (Statistics.Indexes), built by the column's first Lookup and extended by
// Insert under the lock it already holds.
type MemTable struct {
	name    string
	rowType *types.Type

	mu sync.RWMutex
	// n is the row count; every vector holds exactly n values.
	n    int
	vecs []*Vector
	// stats are the declared or collected statistics, statsRows the row count
	// they describe (see Insert).
	stats     Statistics
	statsRows int
	// indexes holds the hash index of each indexed column, nil until built.
	indexes map[int]*hashIndex
}

// hashIndex maps the canonical key (Vector.AppendKey) of each non-NULL value
// of a column to one past the last position holding it, so a missing key
// reads as position -1; prev[p] is the position before p with the same key,
// or -1.
type hashIndex struct {
	last map[string]int32
	prev []int32
}

// add indexes rows [len(x.prev), v.Len()) of v.
func (x *hashIndex) add(v *Vector) {
	var buf []byte
	for r := len(x.prev); r < v.Len(); r++ {
		p := int32(-1)
		if !v.IsNull(r) {
			buf = v.AppendKey(buf[:0], r)
			p = x.last[string(buf)] - 1
			x.last[string(buf)] = int32(r) + 1
		}
		x.prev = append(x.prev, p)
	}
}

// checkWidth reports the first row that does not have one value per field.
func checkWidth(table string, width int, rows [][]any) error {
	for i, row := range rows {
		if len(row) != width {
			return fmt.Errorf("schema: table %s: row %d has %d values, want %d", table, i, len(row), width)
		}
	}
	return nil
}

// NewMemTable creates an in-memory table holding rows, each of which must
// have one value per field of rowType; a row of another width is a
// programming error and panics here, at the caller, rather than under a later
// reader. The rows are transposed into the table's vectors; the slice is not
// retained.
func NewMemTable(name string, rowType *types.Type, rows [][]any) *MemTable {
	if err := checkWidth(name, len(rowType.Fields), rows); err != nil {
		panic(err)
	}
	return &MemTable{
		name:      name,
		rowType:   rowType,
		n:         len(rows),
		vecs:      VectorsFromRows(rows, rowType.Fields),
		stats:     Statistics{RowCount: float64(len(rows))},
		statsRows: len(rows),
	}
}

// SetStats replaces the table statistics (ANALYZE, tests and benchmarks).
func (t *MemTable) SetStats(s Statistics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Version = t.stats.Version + 1
	t.stats = s
	t.statsRows = t.n
	indexes := map[int]*hashIndex{}
	for c := range t.vecs {
		if s.Indexes(c) {
			indexes[c] = t.indexes[c] // nil until the first lookup builds it
		}
	}
	t.indexes = indexes
}

func (t *MemTable) Name() string         { return t.name }
func (t *MemTable) RowType() *types.Type { return t.rowType }

func (t *MemTable) Stats() Statistics {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.stats.RowCount <= 0 {
		return Statistics{RowCount: float64(t.n), UniqueColumns: t.stats.UniqueColumns, Version: t.stats.Version}
	}
	return t.stats
}

// pin returns a cursor over the rows present now: the vector headers and row
// count are copied under the read lock, which is all the isolation a reader
// of an append-only store needs.
func (t *MemTable) pin(batchSize int) *VectorCursor {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return NewVectorCursor(t.headersLocked(), t.n, batchSize)
}

// headersLocked copies the vector headers; the caller holds the lock.
func (t *MemTable) headersLocked() []*Vector {
	headers := make([]Vector, len(t.vecs))
	vecs := make([]*Vector, len(t.vecs))
	for i, v := range t.vecs {
		headers[i] = *v
		vecs[i] = &headers[i]
	}
	return vecs
}

// Indexed implements IndexedTable.
func (t *MemTable) Indexed(col int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[col]
	return ok
}

// Lookup implements IndexedTable. It pins the vectors and the row count n and
// walks the key's chain under one read lock, so every position it finds is
// below n whatever is appended later; its batch is zero-copy, a selection
// (Sel) over the pinned vectors.
func (t *MemTable) Lookup(col int, key any) (BatchCursor, error) {
	t.mu.RLock()
	x, ok := t.indexes[col]
	if x != nil {
		defer t.mu.RUnlock()
	} else { // the column's first lookup builds its index
		t.mu.RUnlock()
		t.mu.Lock()
		defer t.mu.Unlock()
		if x, ok = t.indexes[col]; ok && x == nil {
			x = &hashIndex{last: make(map[string]int32, t.n), prev: make([]int32, 0, t.n)}
			x.add(t.vecs[col])
			t.indexes[col] = x
		}
	}
	if !ok {
		return nil, fmt.Errorf("schema: table %s has no index on column %d", t.name, col)
	}
	var sel []int32
	for p := x.last[types.HashKey(key)] - 1; p >= 0; p = x.prev[p] {
		sel = append(sel, p)
	}
	if len(sel) == 0 {
		return NewSliceBatchCursor(nil), nil
	}
	slices.Reverse(sel)
	return NewSliceBatchCursor([]*Batch{{Len: t.n, Vecs: t.headersLocked(), Sel: sel}}), nil
}

// ScanBatches implements BatchScannableTable: batches are zero-copy windows
// over the table's vectors as of this call.
func (t *MemTable) ScanBatches(batchSize int) (BatchCursor, error) {
	return t.pin(batchSize), nil
}

// Scan enumerates the rows present now, materializing them from the vectors
// one batch at a time (the ScannableTable contract: lattice builds, Rows).
func (t *MemTable) Scan() (Cursor, error) {
	return RowCursorFromBatches(t.pin(0)), nil
}

// Rows materializes the table contents as of this call.
func (t *MemTable) Rows() [][]any {
	c := t.pin(0)
	return c.window(0, c.n).AppendRows(make([][]any, 0, c.n))
}

// memTableRowsAppended counts rows appended by MemTable.Insert process-wide
// (the calcite_memtable_rows_appended_total metric).
var memTableRowsAppended atomic.Int64

// MemTableRowsAppended returns the number of rows MemTable.Insert has
// appended in this process.
func MemTableRowsAppended() int64 { return memTableRowsAppended.Load() }

// Insert appends rows, all or none: a row whose width differs from the row
// type is an error and leaves the table and its statistics untouched. Each
// value is normalized (types.Normalize) and appended to its vector; a value
// that does not fit the vector's kind demotes that one column to VecAny,
// re-boxing what it holds (as BuildVector would have stored it; readers that
// pinned the typed arrays keep them), and a column's first NULL allocates its
// mask.
//
// Statistics stay live: a declared or collected row count advances by the
// inserted count, and collected column statistics are kept — they are
// fractions and distinct counts of a table that has grown a little. Once the
// table has doubled since they were taken they are dropped (a histogram of
// half the table is worse than the estimator's fallback; re-run ANALYZE) and
// Statistics.Version advances, so statistics turn over O(log n) times in a
// table's life. Built indexes take the new rows (and outlive the statistics
// that chose their columns until the next SetStats).
func (t *MemTable) Insert(rows [][]any) error {
	if err := checkWidth(t.name, len(t.rowType.Fields), rows); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for c, v := range t.vecs {
		for _, row := range rows {
			x := types.Normalize(row[c])
			if !v.AppendValue(x) {
				v.Demote()
				v.AppendValue(x)
			}
		}
	}
	t.n += len(rows)
	for c, x := range t.indexes {
		if x != nil {
			x.add(t.vecs[c])
		}
	}
	memTableRowsAppended.Add(int64(len(rows)))
	if t.stats.RowCount > 0 {
		t.stats.RowCount += float64(len(rows))
	}
	if t.n >= 2*t.statsRows {
		t.stats.Columns, t.stats.Analyzed = nil, false
		t.stats.Version++
		t.statsRows = t.n
	}
	return nil
}
