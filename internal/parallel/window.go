package parallel

// Partitioned window execution. A single-group window whose OVER clause has
// PARTITION BY keys is embarrassingly parallel across partitions: the
// rewriter places a hash exchange on the partition keys below WindowPar, so
// each worker owns a disjoint set of partitions and runs the full serial
// window pipeline (sort, incremental frames, spill under the shared query
// budget) over just its share. Rows are tagged with their global input
// position (batch Seq, in-batch row index) before windowing; the merge-
// gather above sorts on those hidden columns and strips them, restoring
// exactly the serial engine's output order. Windows without PARTITION BY
// (one global partition) and multi-group windows gather to a single stream
// and run serially.

import (
	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// winHiddenFields are the trailing global-position columns the parallel
// window threads through its workers so the merge-gather can reproduce the
// serial row order.
func winHiddenFields() []types.Field {
	return []types.Field{
		{Name: "$win_seq", Type: types.BigInt},
		{Name: "$win_idx", Type: types.BigInt},
	}
}

// WindowPar runs a single-group window partition-parallel over a hash
// exchange on the group's partition keys.
type WindowPar struct {
	inner *exec.Window
	pool  *Pool
	p     int
}

// NewWindowPar wraps an enumerable window (whose input must already be
// distributed on the group's partition keys) for partitioned execution.
func NewWindowPar(inner *exec.Window, pool *Pool, p int) *WindowPar {
	return &WindowPar{inner: inner, pool: pool, p: p}
}

func (w *WindowPar) Op() string         { return "ParallelWindow" }
func (w *WindowPar) Inputs() []rel.Node { return w.inner.Inputs() }
func (w *WindowPar) Attrs() string      { return w.inner.Attrs() }

func (w *WindowPar) RowType() *types.Type {
	innerT := w.inner.RowType()
	fields := make([]types.Field, 0, len(innerT.Fields)+2)
	fields = append(fields, innerT.Fields...)
	fields = append(fields, winHiddenFields()...)
	return types.Row(fields...)
}

func (w *WindowPar) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.RandomDist())
}

func (w *WindowPar) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewWindowPar(w.inner.WithNewInputs(inputs).(*exec.Window), w.pool, w.p)
}

// BindBatch is the serial fallback: the whole (gathered) input windows as
// one tagged partition stream.
func (w *WindowPar) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	in, err := exec.BindBatch(ctx, w.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return w.inner.BindOverPartition(ctx, in)
}

// BindPartitions windows each hash-exchanged partition independently. The
// sort phase of every worker's pipeline runs eagerly across the pool (the
// window is a pipeline breaker), charging the shared query allocator and
// spilling per worker; frame evaluation streams lazily into the gathering
// merge.
func (w *WindowPar) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, w.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return eachPartition(w.pool, parts, func(rctx ctxT, part schema.BatchCursor) (schema.BatchCursor, error) {
		if err := rctx.Err(); err != nil {
			part.Close()
			return nil, err
		}
		return w.inner.BindOverPartition(ctx, part)
	})
}
