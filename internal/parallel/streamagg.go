package parallel

// Partitioned streaming aggregation. A keyed StreamAggregate hash-exchanges
// its input on the group keys: each worker owns a disjoint key range and
// maintains its window state (panes, watermarks, spill) independently,
// charging the shared query budget. Event-time order is load-bearing here —
// the watermark of each partition trails the maximum rowtime *it* has seen —
// so the input below the exchange stays a single serial stream (no morsel
// scan): Scatter preserves the producer's arrival order per partition, and
// every partition's bounded out-of-orderness matches the serial engine's.
// Each partition emits its windows in (window_start, key…, window_end)
// order — window ends only move forward with the watermark — so a merge-
// gather over that collation restores one deterministic global emission
// order with no hidden columns.

import (
	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// StreamAggPar runs a keyed streaming aggregation partition-parallel over a
// hash exchange on the group keys.
type StreamAggPar struct {
	inner *exec.StreamAgg
	pool  *Pool
	p     int
}

// NewStreamAggPar wraps an enumerable streaming aggregation (whose input
// must already be distributed on the group keys) for partitioned execution.
func NewStreamAggPar(inner *exec.StreamAgg, pool *Pool, p int) *StreamAggPar {
	return &StreamAggPar{inner: inner, pool: pool, p: p}
}

func (a *StreamAggPar) Op() string           { return "ParallelStreamAggregate" }
func (a *StreamAggPar) Inputs() []rel.Node   { return a.inner.Inputs() }
func (a *StreamAggPar) Attrs() string        { return a.inner.Attrs() }
func (a *StreamAggPar) RowType() *types.Type { return a.inner.RowType() }

func (a *StreamAggPar) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.RandomDist())
}

func (a *StreamAggPar) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewStreamAggPar(a.inner.WithNewInputs(inputs).(*exec.StreamAgg), a.pool, a.p)
}

// BindBatch is the serial fallback: the whole input streams through one
// window-state machine.
func (a *StreamAggPar) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	in, err := exec.BindBatch(ctx, a.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return exec.BindStreamAggOver(ctx, a.inner.StreamAggregate, in)
}

// BindPartitions gives every hash-exchanged partition its own window-state
// machine; the cursors are lazy, so the per-partition work happens in the
// workers driving the gathering merge above.
func (a *StreamAggPar) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, a.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	results := make([]schema.BatchCursor, len(parts))
	for i, part := range parts {
		bc, err := exec.BindStreamAggOver(ctx, a.inner.StreamAggregate, part)
		if err != nil {
			for _, done := range results {
				if done != nil {
					done.Close()
				}
			}
			for _, rest := range parts[i:] {
				rest.Close()
			}
			return nil, err
		}
		results[i] = bc
	}
	return results, nil
}
