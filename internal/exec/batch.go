package exec

// Batch-mode binding: the vectorized execution path of the enumerable
// convention. Scan, Filter, Project, HashJoin, Aggregate and Sort process
// column-major schema.Batch values — filters narrow selection vectors,
// projections evaluate typed vector kernels or compiled closures per column,
// and the hash join probes a batch at a time. Operators without a batch
// implementation (window, set ops, nested-loop join, adapters' backend
// cursors) keep their row contract and are bridged through the batch/row
// shims in package schema, so any plan executes end-to-end in either mode
// with identical results.
//
// Expressions reach the kernel matcher and the compiler with the statement's
// parameters already substituted as literals (Context.bindParams), so a batch
// expression takes exactly one of two paths, chosen per batch from its vector
// kinds: typed vector kernel, else compiled closure. There is no interpreter
// fallback; an expression that does not compile fails the bind.

import (
	"time"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// BatchBound is a Bound operator that can additionally produce its output as
// column-major batches.
type BatchBound interface {
	Bound
	BindBatch(ctx *Context) (schema.BatchCursor, error)
}

// BindBatch binds a plan node as a batch cursor, lifting row-only nodes
// through the row→batch shim.
func BindBatch(ctx *Context, n rel.Node) (schema.BatchCursor, error) {
	// Span elapsed is inclusive of the subtree (a pull through the wrapper
	// times everything below it), so bind time — where materializing
	// operators like sort and aggregate do their work — is charged the same
	// inclusive way.
	sp := ctx.SpanFor(n)
	start := time.Now()
	if bb, ok := n.(BatchBound); ok {
		bc, err := bb.BindBatch(ctx)
		if err != nil {
			return nil, err
		}
		sp.AddElapsed(time.Since(start))
		return TraceBatch(sp, bc), nil
	}
	cur, err := bindRow(ctx, n)
	if err != nil {
		return nil, err
	}
	bc := schema.BatchCursorFromCursor(cur, rel.FieldCount(n), ctx.batchSize())
	sp.AddElapsed(time.Since(start))
	return TraceBatch(sp, bc), nil
}

// drainBatches materializes every live row of a batch cursor and closes it.
func drainBatches(bc schema.BatchCursor) ([][]any, error) {
	defer bc.Close()
	var rows [][]any
	for {
		b, err := bc.NextBatch()
		if err == schema.Done {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = b.AppendRows(rows)
	}
}

// batchesFromRows re-batches materialized rows (sort output, aggregates).
func batchesFromRows(rows [][]any, width, batchSize int) schema.BatchCursor {
	if batchSize <= 0 {
		batchSize = schema.DefaultBatchSize
	}
	batches := make([]*schema.Batch, 0, (len(rows)+batchSize-1)/batchSize)
	for start := 0; start < len(rows); start += batchSize {
		end := start + batchSize
		if end > len(rows) {
			end = len(rows)
		}
		b := schema.BatchFromRows(rows[start:end], width)
		b.Seq = int64(len(batches)) // chunk order doubles as the batch order
		batches = append(batches, b)
	}
	return schema.NewSliceBatchCursor(batches)
}

// iotaSel returns the dense selection [0, n), reusing buf.
func iotaSel(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// liveSel returns the batch's live row indices, using buf for dense batches.
func liveSel(b *schema.Batch, buf []int32) ([]int32, []int32) {
	if b.Sel != nil {
		return b.Sel, buf
	}
	buf = iotaSel(buf, b.Len)
	return buf, buf
}

// --- Scan ---

// BindBatch scans batch-capable tables column-major and lifts everything
// else through the shim.
func (s *Scan) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	if bt, ok := s.Table.(schema.BatchScannableTable); ok {
		return bt.ScanBatches(ctx.batchSize())
	}
	cur, err := s.Bind(ctx)
	if err != nil {
		return nil, err
	}
	return schema.BatchCursorFromCursor(cur, len(s.Table.RowType().Fields), ctx.batchSize()), nil
}

// --- Filter ---

type filterBatchCursor struct {
	in        schema.BatchCursor
	vecKernel rex.VecSelKernel // nil when the predicate has no kernel shape
	pred      func(cols [][]any, r int) (bool, error)
	selBuf    []int32 // output selection storage, reused batch-over-batch
	dense     []int32 // dense-iota scratch
}

// BindBatch filters by narrowing each batch's selection vector. The
// condition, parameters bound, takes one of two paths per batch: a
// monomorphic vector kernel when it has a kernel shape and the batch carries
// typed columns of the matching kinds, else the compiled closure per live
// row. Columns are never copied.
func (f *Filter) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	cond, err := ctx.bindParams(f.Condition)
	if err != nil {
		return nil, err
	}
	pred, err := rex.CompileColsBool(cond)
	if err != nil {
		return nil, err
	}
	in, err := BindBatch(ctx, f.Inputs()[0])
	if err != nil {
		return nil, err
	}
	c := &filterBatchCursor{in: in, pred: pred}
	c.vecKernel, _ = rex.FilterKernelVec(cond)
	return c, nil
}

func (c *filterBatchCursor) NextBatch() (*schema.Batch, error) {
	for {
		b, err := c.in.NextBatch()
		if err != nil {
			return nil, err
		}
		var sel []int32
		sel, c.dense = liveSel(b, c.dense)
		out := c.selBuf[:0]
		done := false
		if c.vecKernel != nil && b.Vecs != nil {
			if res, ok := c.vecKernel(b.Vecs, sel, out); ok {
				out, done = res, true
			}
		}
		if !done {
			cols := b.BoxedCols()
			for _, r := range sel {
				keep, err := c.pred(cols, int(r))
				if err != nil {
					return nil, err
				}
				if keep {
					out = append(out, r)
				}
			}
		}
		c.selBuf = out
		if len(out) == 0 {
			continue
		}
		return &schema.Batch{Len: b.Len, Cols: b.Cols, Vecs: b.Vecs, Sel: out, Seq: b.Seq}, nil
	}
}

func (c *filterBatchCursor) Close() error { return c.in.Close() }

// --- Project ---

type projExpr struct {
	passthrough int              // input ordinal for plain $i, else -1
	vecKernel   rex.VecColKernel // nil when the expression has no kernel shape
	colFn       rex.ColFn
}

type projectBatchCursor struct {
	in    schema.BatchCursor
	exprs []projExpr
	// allVec reports every expression has a vector kernel, enabling the typed
	// all-columns output path.
	allVec bool
	// pure reports every expression is a plain input reference: the
	// projection only prunes/permutes columns and forwards the input batch's
	// representations and selection vector zero-copy.
	pure  bool
	dense []int32
}

// BindBatch projects each batch column-wise. Every expression, parameters
// bound, compiles to a closure; those with a kernel shape also get a
// monomorphic vector kernel. A batch whose typed vectors satisfy every kernel
// produces a vector-backed batch (pass-throughs are zero-copy on dense
// batches); any other batch evaluates the closures per live row.
func (p *Project) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	c := &projectBatchCursor{exprs: make([]projExpr, len(p.Exprs)), allVec: true, pure: true}
	for i, e := range p.Exprs {
		e, err := ctx.bindParams(e)
		if err != nil {
			return nil, err
		}
		pe := projExpr{passthrough: -1}
		if ref, ok := e.(*rex.InputRef); ok {
			pe.passthrough = ref.Index
		} else {
			c.pure = false
		}
		if pe.colFn, err = rex.CompileCols(e); err != nil {
			return nil, err
		}
		if pe.vecKernel, _ = rex.ArithKernelVec(e); pe.vecKernel == nil {
			c.allVec = false
		}
		c.exprs[i] = pe
	}
	in, err := BindBatch(ctx, p.Inputs()[0])
	if err != nil {
		return nil, err
	}
	c.in = in
	return c, nil
}

func (c *projectBatchCursor) NextBatch() (*schema.Batch, error) {
	b, err := c.in.NextBatch()
	if err != nil {
		return nil, err
	}
	if c.pure {
		// Column pruning/permutation only: forward whichever representations
		// the input carries, selection vector included — no gather, no copy.
		out := &schema.Batch{Len: b.Len, Sel: b.Sel, Seq: b.Seq}
		if b.Vecs != nil {
			out.Vecs = make([]*schema.Vector, len(c.exprs))
			for j, pe := range c.exprs {
				out.Vecs[j] = b.Vecs[pe.passthrough]
			}
		}
		if b.Cols != nil {
			out.Cols = make([][]any, len(c.exprs))
			for j, pe := range c.exprs {
				out.Cols[j] = b.Cols[pe.passthrough]
			}
		}
		return out, nil
	}
	var sel []int32
	sel, c.dense = liveSel(b, c.dense)
	n := len(sel)
	if c.allVec && b.Vecs != nil {
		if out, ok, err := c.projectVec(b, sel, n); err != nil {
			return nil, err
		} else if ok {
			return out, nil
		}
	}
	cols := make([][]any, len(c.exprs))
	boxed := b.BoxedCols()
	for j, pe := range c.exprs {
		if pe.passthrough >= 0 && b.Sel == nil {
			cols[j] = boxed[pe.passthrough]
			continue
		}
		col := make([]any, n)
		for k, r := range sel {
			v, err := pe.colFn(boxed, int(r))
			if err != nil {
				return nil, err
			}
			col[k] = v
		}
		cols[j] = col
	}
	return &schema.Batch{Len: n, Cols: cols, Seq: b.Seq}, nil
}

// projectVec evaluates every projection as a typed vector over the batch.
// ok=false (some kernel met a VecAny column) sends the whole batch down the
// boxed path so the output batch is uniformly represented.
func (c *projectBatchCursor) projectVec(b *schema.Batch, sel []int32, n int) (*schema.Batch, bool, error) {
	vecs := make([]*schema.Vector, len(c.exprs))
	var cols [][]any // boxed pass-through windows, when free
	for j, pe := range c.exprs {
		if pe.passthrough >= 0 && b.Sel == nil {
			// Dense pass-through: reuse the input vector zero-copy, along
			// with its boxed window when the input batch carries one.
			vecs[j] = b.Vecs[pe.passthrough]
			if b.Cols != nil {
				if cols == nil {
					cols = make([][]any, len(c.exprs))
				}
				cols[j] = b.Cols[pe.passthrough]
			}
			continue
		}
		v, ok, err := pe.vecKernel(b.Vecs, sel)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		vecs[j] = v
		cols = nil // a computed column breaks the all-boxed invariant
	}
	// Attach the boxed representation only when every column has a window
	// (pure pass-through projection over a dense, dual-representation batch).
	if cols != nil {
		for _, col := range cols {
			if col == nil {
				cols = nil
				break
			}
		}
	}
	return &schema.Batch{Len: n, Cols: cols, Vecs: vecs, Seq: b.Seq}, true, nil
}

func (c *projectBatchCursor) Close() error { return c.in.Close() }

// --- Sort / Limit ---

type limitBatchCursor struct {
	in       schema.BatchCursor
	offset   int64
	fetch    int64 // -1 = unlimited
	skipped  int64
	returned int64
	dense    []int32
}

func (c *limitBatchCursor) NextBatch() (*schema.Batch, error) {
	for {
		if c.fetch >= 0 && c.returned >= c.fetch {
			return nil, schema.Done
		}
		b, err := c.in.NextBatch()
		if err != nil {
			return nil, err
		}
		var sel []int32
		sel, c.dense = liveSel(b, c.dense)
		// Skip the remaining OFFSET rows.
		if c.skipped < c.offset {
			skip := c.offset - c.skipped
			if skip >= int64(len(sel)) {
				c.skipped += int64(len(sel))
				continue
			}
			c.skipped = c.offset
			sel = sel[skip:]
		}
		// Cap at FETCH.
		if c.fetch >= 0 {
			if remain := c.fetch - c.returned; int64(len(sel)) > remain {
				sel = sel[:remain]
			}
		}
		c.returned += int64(len(sel))
		out := append([]int32(nil), sel...)
		return &schema.Batch{Len: b.Len, Cols: b.Cols, Vecs: b.Vecs, Sel: out, Seq: b.Seq}, nil
	}
}

func (c *limitBatchCursor) Close() error { return c.in.Close() }

// BindBatch sorts the batched input through the columnar sort kernel
// (sortspill.go): typed vectors in, a permutation sort on the key columns,
// typed batches out; under a memory budget the buffer overflows to sorted runs
// that merge back in the same order, and a LIMIT keeps only the rows that can
// still be returned. A pure limit streams batches, trimming selection vectors.
func (s *Sort) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, s.Inputs()[0])
	if err != nil {
		return nil, err
	}
	if len(s.Collation) == 0 {
		return &limitBatchCursor{in: in, offset: s.Offset, fetch: s.Fetch}, nil
	}
	limit := int64(-1)
	if s.Fetch >= 0 && s.Offset+s.Fetch >= 0 {
		limit = s.Offset + s.Fetch
	}
	return SortCursor(ctx, "Sort", in, s.Collation, limit, s.Offset, 0)
}

// --- Aggregate ---

// BindBatch aggregates the batched input through the GroupedAgg engine
// (groupkey.go): typed grouping and pre-unboxed accumulator adds when batches
// carry vectors, the boxed scratch-row path otherwise, spilling partial
// accumulator states to hash partitions when a memory grant is denied.
func (a *Aggregate) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, a.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return NewGroupedAgg(ctx, "Aggregate", a, AggComplete).Drain(in, nil)
}

// --- HashJoin ---

func colsHaveNullAt(cols [][]any, r int, keys []int) bool {
	for _, c := range keys {
		if cols[c][r] == nil {
			return true
		}
	}
	return false
}

// HashJoin.BindBatch lives in joinspill.go: the streaming probe plus the
// Grace/hybrid spill path of the memory governor.
