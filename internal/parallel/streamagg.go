package parallel

// Parallel streaming aggregation. A keyed TUMBLE/HOP window runs as one
// operator whose p pane machines share one event-time clock
// (exec.BindStreamAggOver): each input batch is routed by group key into p
// selections that the pool folds concurrently, and each emission round's p
// sorted outputs merge once, inside the operator, into the serial emission
// order. Event-time order is load-bearing — the watermark trails the maximum
// rowtime seen — so the input stays one serial stream, read in arrival
// order.

import (
	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// StreamAggPar is a keyed streaming aggregation whose pane machines fold on
// the pool. It is a singleton node: one stream in, one stream out.
type StreamAggPar struct {
	*exec.StreamAgg
	pool *Pool
	p    int
}

// NewStreamAggPar wraps an enumerable streaming aggregation to run p pane
// machines on pool.
func NewStreamAggPar(inner *exec.StreamAgg, pool *Pool, p int) *StreamAggPar {
	return &StreamAggPar{StreamAgg: inner, pool: pool, p: p}
}

func (a *StreamAggPar) Op() string { return "ParallelStreamAggregate" }

func (a *StreamAggPar) Traits() trait.Set {
	return a.StreamAgg.Traits().WithDistribution(trait.Singleton())
}

func (a *StreamAggPar) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewStreamAggPar(a.StreamAgg.WithNewInputs(inputs).(*exec.StreamAgg), a.pool, a.p)
}

// BindBatch reads the input and hands on the output each through a
// one-partition Gather, so the scan, the folds and the consumer overlap.
func (a *StreamAggPar) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	in, err := exec.BindBatch(ctx, a.Inputs()[0])
	if err != nil {
		return nil, err
	}
	run := func(n int, fold func(i int) error) error {
		return a.pool.Run(nil, n, func(_ ctxT, i int) error { return fold(i) })
	}
	agg := exec.BindStreamAggOver(ctx, a.StreamAggregate, Gather(a.pool, []schema.BatchCursor{in}), a.p, run)
	return Gather(a.pool, []schema.BatchCursor{agg}), nil
}
