package exec

// Operator tracing: when a query runs with a trace attached, BuildSpans
// creates one obs.Span per plan node and the central binder (BindBatch)
// wraps each node's cursor so the span accumulates rows, batches and elapsed
// time. Wrapping happens only in the central dispatcher — operators that
// bind their children through direct method calls (exchange internals,
// morsel views) stay unwrapped, so every delivered row is counted exactly
// once per operator. Worker partitions of a parallel plan share the
// node's single span; its counters are atomic.

import (
	"strings"
	"time"

	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/schema"
)

// BuildSpans attaches one span per plan node to the trace, mirroring the
// plan tree, and returns the node→span index the binders consult. The
// MemKey ties the span to the memory governor's per-operator reservation
// name (reservations drop the "Enumerable" convention prefix).
//
// Each span is also stamped with its operator's stable path id
// (rel.WalkPaths), so a path computed on the optimized tree lands on the
// matching operator of the prepared tree. est (optional) maps path ids to
// the optimizer's row estimates; matching spans carry the estimate for
// EXPLAIN ANALYZE and the cardinality-feedback harvest; synthetic nodes
// (exchanges, partial-aggregation stages) have no path and carry none.
func BuildSpans(tr *obs.QueryTrace, root rel.Node, est map[string]float64) map[rel.Node]*obs.Span {
	if tr == nil || root == nil {
		return nil
	}
	spans := make(map[rel.Node]*obs.Span)
	rel.WalkPaths(root, func(n, parent rel.Node, path string) {
		sp := tr.NewSpan(spans[parent], n.Op(), n.Attrs(), strings.TrimPrefix(n.Op(), "Enumerable"))
		spans[n] = sp
		if path != "" {
			sp.SetEstimate(path, est[path])
		}
	})
	return spans
}

// SpanFor returns the span attached to n, or nil when the query is untraced
// (every wrapper below tolerates nil).
func (ctx *Context) SpanFor(n rel.Node) *obs.Span {
	if ctx.Spans == nil {
		return nil
	}
	return ctx.Spans[n]
}

// TraceBatch wraps bc so sp accumulates the batches it delivers. Exported
// for the parallel binder, which wraps partition cursors of cloned
// (replicated) operators with the original node's span.
func TraceBatch(sp *obs.Span, bc schema.BatchCursor) schema.BatchCursor {
	if sp == nil {
		return bc
	}
	return &tracedBatchCursor{in: bc, sp: sp}
}

type tracedBatchCursor struct {
	in schema.BatchCursor
	sp *obs.Span
}

func (t *tracedBatchCursor) NextBatch() (*schema.Batch, error) {
	start := time.Now()
	b, err := t.in.NextBatch()
	if err != nil {
		t.sp.AddElapsed(time.Since(start))
		return b, err
	}
	t.sp.Record(int64(b.NumRows()), time.Since(start))
	return b, nil
}

func (t *tracedBatchCursor) Close() error { return t.in.Close() }
