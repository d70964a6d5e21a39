package exec

// Batch binding: the execution engine of the enumerable convention. Every
// operator processes column-major schema.Batch values — filters and set ops
// narrow selection vectors, projections evaluate typed vector kernels or
// compiled closures per column, and both joins probe a batch at a time. Rows
// are lifted into batches only where a table or an adapter's backend yields
// rows (the shims in package schema), and boxed only where they leave.
//
// Expressions reach the kernel matcher and the compiler with the statement's
// parameters already substituted as literals (Context.bindParams), so a batch
// expression takes exactly one of two paths, chosen per batch from its vector
// kinds: typed vector kernel, else compiled closure. There is no interpreter
// fallback; an expression that does not compile fails the bind.

import (
	"fmt"
	"time"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// BatchBound is an operator that produces its output as column-major
// batches.
type BatchBound interface {
	rel.Node
	BindBatch(ctx *Context) (schema.BatchCursor, error)
}

// BindBatch binds a plan node as a batch cursor, reporting a clear error for
// unexecutable (non-enumerable) nodes.
func BindBatch(ctx *Context, n rel.Node) (schema.BatchCursor, error) {
	bb, ok := n.(BatchBound)
	if !ok {
		return nil, fmt.Errorf("exec: plan node %s is not executable (convention %s); optimize to the enumerable convention first",
			n.Op(), n.Traits().String())
	}
	// Span elapsed is inclusive of the subtree (a pull through the wrapper
	// times everything below it), so bind time — where materializing
	// operators like sort and aggregate do their work — is charged the same
	// inclusive way.
	sp := ctx.SpanFor(n)
	start := time.Now()
	bc, err := bb.BindBatch(ctx)
	if err != nil {
		return nil, err
	}
	sp.AddElapsed(time.Since(start))
	return TraceBatch(sp, bc), nil
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
	st, ok := s.Table.(schema.ScannableTable)
	if !ok {
		return nil, fmt.Errorf("exec: table %s is not scannable", s.Table.Name())
	}
	cur, err := st.Scan()
	if err != nil {
		return nil, err
	}
	return schema.BatchCursorFromCursor(cur, len(s.Table.RowType().Fields), ctx.batchSize()), nil
}

// --- Filter ---

type filterBatchCursor struct {
	in        schema.BatchCursor
	vecKernel rex.VecSelKernel // nil when the predicate has no kernel shape
	pred      func(vecs []*schema.Vector, r int) (bool, error)
	selBuf    []int32 // output selection storage, reused batch-over-batch
	dense     []int32 // dense-iota scratch
}

// BindBatch filters by narrowing each batch's selection vector. The
// condition, parameters bound, takes one of two paths per batch: a
// monomorphic vector kernel when it has a kernel shape and the batch's
// vectors are of the matching kinds, else the compiled closure per live row
// over the same vectors. Columns are never copied.
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
		if c.vecKernel != nil {
			if res, ok := c.vecKernel(b.Vecs, sel, out); ok {
				out, done = res, true
			}
		}
		if !done {
			for _, r := range sel {
				keep, err := c.pred(b.Vecs, int(r))
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
		return &schema.Batch{Len: b.Len, Vecs: b.Vecs, Sel: out, Seq: b.Seq}, nil
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
	// pure reports every expression is a plain input reference: the
	// projection only prunes/permutes columns and forwards the input batch's
	// vectors and selection vector zero-copy.
	pure  bool
	dense []int32
}

// BindBatch projects each batch column-wise. Every expression, parameters
// bound, compiles to a closure; those with a kernel shape also get a
// monomorphic vector kernel. Per batch and column, a kernel whose input
// vectors are of the kinds it expects produces a typed vector; otherwise the
// closure runs per live row and its values form a VecAny column.
func (p *Project) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	c := &projectBatchCursor{exprs: make([]projExpr, len(p.Exprs)), pure: true}
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
		pe.vecKernel, _ = rex.ArithKernelVec(e)
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
	vecs := make([]*schema.Vector, len(c.exprs))
	if c.pure {
		// Column pruning/permutation only: forward the input vectors,
		// selection vector included — no gather, no copy.
		for j, pe := range c.exprs {
			vecs[j] = b.Vecs[pe.passthrough]
		}
		return &schema.Batch{Len: b.Len, Vecs: vecs, Sel: b.Sel, Seq: b.Seq}, nil
	}
	var sel []int32
	sel, c.dense = liveSel(b, c.dense)
	n := len(sel)
	for j, pe := range c.exprs {
		if pe.passthrough >= 0 {
			vecs[j] = b.Vecs[pe.passthrough] // zero-copy when dense
			if b.Sel != nil {
				vecs[j] = vecs[j].Gather(sel)
			}
			continue
		}
		if pe.vecKernel != nil {
			v, ok, err := pe.vecKernel(b.Vecs, sel)
			if err != nil {
				return nil, err
			}
			if ok {
				vecs[j] = v
				continue
			}
		}
		col := make([]any, n)
		for k, r := range sel {
			if col[k], err = pe.colFn(b.Vecs, int(r)); err != nil {
				return nil, err
			}
		}
		vecs[j] = &schema.Vector{Kind: schema.VecAny, A: col}
	}
	return &schema.Batch{Len: n, Vecs: vecs, Seq: b.Seq}, nil
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
		return &schema.Batch{Len: b.Len, Vecs: b.Vecs, Sel: out, Seq: b.Seq}, nil
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
	return SortCursor(ctx, "Sort", in, s.Collation, limit, s.Offset)
}

// --- Aggregate ---

// BindBatch aggregates the batched input through the GroupedAgg engine
// (groupkey.go): typed grouping and one scatter kernel per call into typed
// state columns, spilling the state batch to hash partitions when a memory
// grant is denied.
func (a *Aggregate) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, a.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return NewGroupedAgg(ctx, "Aggregate", a, AggComplete).Drain(in, nil)
}

// HashJoin.BindBatch runs the join kernel of joinspill.go: the streaming
// probe plus the Grace/hybrid spill path of the memory governor.
