package schema

// Vectorized data movement: the batch calling convention.
//
// The enumerable convention of the paper pulls one row at a time through
// Cursor. That row-at-a-time discipline pays an interface call, a bounds
// check and usually an allocation per row per operator. The batch convention
// amortizes those costs: operators exchange Batch values — column-major
// groups of up to a few thousand rows with an optional selection vector — so
// per-row work collapses into tight loops over slices.
//
// A batch has one representation: a typed vector per column (Vecs, see
// vector.go). A column of one of the core runtime types is stored
// monomorphically; a column of anything else — mixed dynamic types, a
// non-core type, values lifted from a row cursor that nobody has looked at
// yet — is a VecAny vector, whose payload A is the only place a boxed value
// lives inside the batch engine. Operators read Vecs: a typed kernel where
// the kinds match, else a compiled closure over the same vectors. Values are
// boxed only where rows leave the batch convention (Row, AppendRows,
// RowCursorFromBatches) or enter a VecAny payload.
//
// The two conventions meet only at the table/backend boundary:
// BatchCursorFromCursor lifts the row cursor of a table or backend that
// yields rows into batches of VecAny columns, and RowCursorFromBatches
// flattens a batch-scannable table back into rows for row-at-a-time readers.
// Every operator of the engine consumes and produces batches.

import "calcite/internal/types"

// DefaultBatchSize is the number of rows an operator processes per batch. It
// is chosen so a batch of a few wide columns stays comfortably inside L2.
const DefaultBatchSize = 1024

// Batch is a column-major group of rows. Column c of physical row r is row r
// of Vecs[c]; every vector has Len entries. Sel, when non-nil, is a selection
// vector: the ordered physical row indices that are logically present
// (filters narrow batches by replacing Sel instead of copying columns). A nil
// Sel means all Len rows are live.
type Batch struct {
	// Len is the number of physical rows held by each column.
	Len int
	// Vecs holds the column vectors (empty on a zero-column batch).
	Vecs []*Vector
	// Sel selects the live subset of rows, in order; nil selects all.
	Sel []int32
	// Seq orders batches globally within one source: sources assign
	// increasing sequence numbers, per-batch operators preserve them, and
	// the parallel engine's gather exchange merges partition streams back
	// into Seq order so parallel execution reproduces the serial row order
	// deterministically. Consumers that do not care about order ignore it.
	Seq int64
}

// NumRows returns the number of live (selected) rows.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Vecs) }

// Row materializes the i'th live row (0 ≤ i < NumRows) as a fresh []any.
func (b *Batch) Row(i int) []any {
	r := i
	if b.Sel != nil {
		r = int(b.Sel[i])
	}
	row := make([]any, len(b.Vecs))
	for c, v := range b.Vecs {
		row[c] = v.Get(r)
	}
	return row
}

// AppendRows materializes every live row onto dst and returns it. Row
// storage comes from one arena allocation per batch (full slice expressions
// keep the rows append-safe); values are boxed column-at-a-time (one Kind
// dispatch per column, not per value).
func (b *Batch) AppendRows(dst [][]any) [][]any {
	n := b.NumRows()
	w := b.Width()
	if n == 0 {
		return dst
	}
	if w == 0 {
		for i := 0; i < n; i++ {
			dst = append(dst, nil)
		}
		return dst
	}
	flat := make([]any, n*w)
	for c, v := range b.Vecs {
		v.boxInto(flat[c:], w, b.Sel, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, flat[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// Detach returns a batch that stays valid beyond the producer's next
// NextBatch call. The Cursor contract lets a producer recycle per-batch
// buffers once the next batch is requested — the filter reuses its selection
// vector this way — which is fine for same-goroutine pipelines but not for
// exchanges that buffer batches in channels. Detach copies the selection
// vector (the only buffer operators recycle); column storage is immutable
// once emitted and stays shared.
func (b *Batch) Detach() *Batch {
	if b.Sel == nil {
		return b
	}
	// Not append([]int32(nil), …): an empty selection must stay non-nil, or
	// the batch with no live rows turns into one with all of them.
	sel := make([]int32, len(b.Sel))
	copy(sel, b.Sel)
	return &Batch{Len: b.Len, Vecs: b.Vecs, Sel: sel, Seq: b.Seq}
}

// Compact returns a batch with no selection vector: if b already is dense it
// is returned unchanged, otherwise the selected rows are gathered into fresh
// vectors.
func (b *Batch) Compact() *Batch {
	if b.Sel == nil {
		return b
	}
	vecs := make([]*Vector, len(b.Vecs))
	for c, v := range b.Vecs {
		vecs[c] = v.Gather(b.Sel)
	}
	return &Batch{Len: len(b.Sel), Vecs: vecs, Seq: b.Seq}
}

// BatchFromRows transposes row-major rows into a dense batch of the given
// width (width matters when rows is empty or rows are zero-width). The
// columns are VecAny: nothing inspects the values here; consumers that want
// typed storage (the sort, window and join intake, the spill codec) detect it
// themselves.
func BatchFromRows(rows [][]any, width int) *Batch {
	vecs := make([]*Vector, width)
	for c := range vecs {
		col := make([]any, len(rows))
		for r, row := range rows {
			col[r] = row[c]
		}
		vecs[c] = &Vector{Kind: VecAny, A: col}
	}
	return &Batch{Len: len(rows), Vecs: vecs}
}

// BatchCursor iterates over batches. NextBatch returns (nil, Done) when
// exhausted; returned batches are owned by the consumer until the next call.
type BatchCursor interface {
	NextBatch() (*Batch, error)
	Close() error
}

// BatchScannableTable is a table that can enumerate its rows in column-major
// batches directly, skipping the row-at-a-time shim. MemTable implements it,
// which vectorizes every adapter built on MemTable storage (mem, csvfile).
type BatchScannableTable interface {
	Table
	ScanBatches(batchSize int) (BatchCursor, error)
}

// SliceBatchCursor iterates over pre-built batches.
type SliceBatchCursor struct {
	Batches []*Batch
	pos     int
}

// NewSliceBatchCursor returns a cursor over batches.
func NewSliceBatchCursor(batches []*Batch) *SliceBatchCursor {
	return &SliceBatchCursor{Batches: batches}
}

func (c *SliceBatchCursor) NextBatch() (*Batch, error) {
	if c.pos >= len(c.Batches) {
		return nil, Done
	}
	b := c.Batches[c.pos]
	c.pos++
	return b, nil
}

func (c *SliceBatchCursor) Close() error { return nil }

// VectorCursor serves the first n rows of a set of column vectors as
// zero-copy windows of up to batchSize rows: the scan of a table that keeps
// its rows column-major.
type VectorCursor struct {
	vecs      []*Vector
	n         int
	batchSize int
	pos       int
	seq       int64
}

// NewVectorCursor returns a cursor over rows [0, n) of vecs. The vectors must
// not change under it; an append-only owner hands over copies of the headers.
func NewVectorCursor(vecs []*Vector, n, batchSize int) *VectorCursor {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &VectorCursor{vecs: vecs, n: n, batchSize: batchSize}
}

// window returns rows [lo, hi) as a batch.
func (c *VectorCursor) window(lo, hi int) *Batch {
	vecs := make([]*Vector, len(c.vecs))
	for i, v := range c.vecs {
		vecs[i] = v.Slice(lo, hi)
	}
	return &Batch{Len: hi - lo, Vecs: vecs}
}

func (c *VectorCursor) NextBatch() (*Batch, error) {
	if c.pos >= c.n {
		return nil, Done
	}
	end := min(c.pos+c.batchSize, c.n)
	b := c.window(c.pos, end)
	b.Seq = c.seq
	c.pos = end
	c.seq++
	return b, nil
}

func (c *VectorCursor) Close() error { return nil }

// rowBatchCursor adapts a row Cursor to batches.
type rowBatchCursor struct {
	cur       Cursor
	width     int
	batchSize int
	seq       int64
	done      bool
}

// BatchCursorFromCursor lifts a row cursor into a batch cursor producing
// dense batches of up to batchSize rows of the given width, each column a
// VecAny vector of normalized values (types.Normalize). It is the shim that
// lets tables and backends that yield rows feed the vectorized engine.
func BatchCursorFromCursor(cur Cursor, width, batchSize int) BatchCursor {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &rowBatchCursor{cur: cur, width: width, batchSize: batchSize}
}

func (c *rowBatchCursor) NextBatch() (*Batch, error) {
	if c.done {
		return nil, Done
	}
	vecs := make([]*Vector, c.width)
	for i := range vecs {
		vecs[i] = &Vector{Kind: VecAny, A: make([]any, 0, c.batchSize)}
	}
	n := 0
	for n < c.batchSize {
		row, err := c.cur.Next()
		if err == Done {
			c.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		for i, v := range vecs {
			v.A = append(v.A, types.Normalize(row[i]))
		}
		n++
	}
	if n == 0 {
		return nil, Done
	}
	seq := c.seq
	c.seq++
	return &Batch{Len: n, Vecs: vecs, Seq: seq}, nil
}

func (c *rowBatchCursor) Close() error { return c.cur.Close() }

// batchRowCursor adapts a BatchCursor to the row Cursor interface.
type batchRowCursor struct {
	bc   BatchCursor
	rows [][]any
	pos  int
}

// RowCursorFromBatches flattens a batch cursor into a row cursor, so batch
// producers can feed row-at-a-time consumers (the compatibility shim of the
// Cursor contract).
func RowCursorFromBatches(bc BatchCursor) Cursor {
	return &batchRowCursor{bc: bc}
}

func (c *batchRowCursor) Next() ([]any, error) {
	for c.pos >= len(c.rows) {
		b, err := c.bc.NextBatch()
		if err != nil {
			return nil, err
		}
		// One arena allocation per batch instead of one make per row; the
		// header slice is reused (consumers retain the rows, not the header).
		c.rows, c.pos = b.AppendRows(c.rows[:0]), 0
	}
	row := c.rows[c.pos]
	c.pos++
	return row, nil
}

func (c *batchRowCursor) Close() error { return c.bc.Close() }
