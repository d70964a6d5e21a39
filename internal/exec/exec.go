// Package exec implements the enumerable calling convention of §5 of the
// paper: physical relational operators that "simply operate over tuples via
// an iterator interface". The enumerable convention is how Calcite executes
// operators that are not available in an adapter's backend — e.g. joining
// rows collected from two different engines — and is the default execution
// target of the framework.
//
// Every operator here is a rel.Node in the trait.Enumerable convention that
// additionally implements BatchBound: it produces column-major batches. Rows
// exist only where they leave the engine (Execute's drain, INSERT's write)
// or enter it from a table or backend that yields them.
package exec

import (
	"errors"
	"sync/atomic"

	"calcite/internal/memory"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// ErrCanceled reports that a query was interrupted through its context's
// Interrupt flag (client cancel, server shutdown).
var ErrCanceled = errors.New("exec: query canceled")

// Context carries per-query execution state.
type Context struct {
	// Params holds the prepared statement's parameter values, substituted
	// into expressions as literals before they compile (bindParams).
	Params []any
	// BatchSize overrides the rows-per-batch granularity; <= 0 uses
	// schema.DefaultBatchSize.
	BatchSize int
	// Alloc is the query's memory account. Memory-hungry operators (sort,
	// hash join, aggregate, window) charge their retained state against it
	// and spill to disk when a grant fails; every worker partition of a
	// parallel plan charges the same allocator. A nil Alloc means the query
	// is ungoverned: grants always succeed, nothing is tracked, nothing
	// spills.
	Alloc *memory.Allocator
	// Trace is the query's trace (nil when untraced); Spans indexes its
	// per-operator spans by plan node, built by BuildSpans. The central
	// binders consult Spans to wrap cursors with counting wrappers; both
	// fields nil means tracing adds no per-batch work.
	Trace *obs.QueryTrace
	Spans map[rel.Node]*obs.Span
	// BuildOvershoot, when non-nil, is invoked by the hash join, serial or
	// parallel, once its build side is fully drained with more actual rows
	// than the build child's estimate (span EstRows). The framework's
	// feedback layer uses the signal to record the overshoot and swap
	// build/probe sides on the next planning of the statement.
	BuildOvershoot func(join rel.Node, estRows, actualRows float64)
	// Interrupt, when non-nil and set, interrupts execution cooperatively:
	// the drain loops and long-running operators (streaming aggregation)
	// check it between rows/batches and fail with ErrCanceled. The serving
	// tier arms it for client cancellation and disconnects.
	Interrupt *atomic.Bool
}

// Interrupted reports whether the query's interrupt flag is set.
func (ctx *Context) Interrupted() bool {
	return ctx != nil && ctx.Interrupt != nil && ctx.Interrupt.Load()
}

// NewContext returns an execution context with no parameters.
func NewContext() *Context { return &Context{} }

// bindParams substitutes the statement's parameter values into e as literals.
// Batch operators call it on every expression before matching a kernel or
// compiling, so a prepared statement takes the same path as its literal twin.
func (ctx *Context) bindParams(e rex.Node) (rex.Node, error) {
	return rex.BindParams(e, ctx.Params)
}

// BindPlanParams returns the subtree an adapter is about to render into its
// backend's language with the statement's parameters substituted as literals.
// Adapter-convention nodes are the core rel.Filter/Project/Join structs under
// the adapter's traits, so one rewrite serves every adapter. The cached plan
// is not modified: nodes that hold a parameter are rebuilt, the rest shared.
func BindPlanParams(ctx *Context, n rel.Node) (rel.Node, error) {
	var firstErr error
	bind := func(e rex.Node) rex.Node {
		bound, err := ctx.bindParams(e)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return bound
	}
	bound := rel.TransformUp(n, func(n rel.Node) rel.Node {
		switch x := n.(type) {
		case *rel.Filter:
			if cond := bind(x.Condition); cond != x.Condition {
				return rel.NewFilterTraits(x.Op(), x.Traits(), x.Inputs()[0], cond)
			}
		case *rel.Join:
			if cond := bind(x.Condition); cond != x.Condition {
				return rel.NewJoinTraits(x.Op(), x.Traits(), x.Kind, x.Left(), x.Right(), cond)
			}
		case *rel.Project:
			exprs := make([]rex.Node, len(x.Exprs))
			changed := false
			for i, e := range x.Exprs {
				exprs[i] = bind(e)
				changed = changed || exprs[i] != e
			}
			if changed {
				return rel.NewProjectTraits(x.Op(), x.Traits(), x.Inputs()[0], exprs, x.FieldNames())
			}
		}
		return n
	})
	return bound, firstErr
}

func (ctx *Context) batchSize() int {
	if ctx.BatchSize > 0 {
		return ctx.BatchSize
	}
	return schema.DefaultBatchSize
}

// Execute binds root and drains it into a row slice.
func Execute(ctx *Context, root rel.Node) ([][]any, error) {
	bc, err := BindBatch(ctx, root)
	if err != nil {
		return nil, err
	}
	return drainBatches(ctx, bc)
}

// drainBatches materializes every live row of a batch cursor and closes it,
// checking ctx's interrupt flag between batches (a nil ctx never interrupts).
func drainBatches(ctx *Context, bc schema.BatchCursor) ([][]any, error) {
	defer bc.Close()
	var rows [][]any
	for {
		if ctx.Interrupted() {
			return nil, ErrCanceled
		}
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
