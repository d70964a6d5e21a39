package parallel

// Physical operators of the parallel convention. Each node here is a
// rel.Node that additionally binds as p independent partition cursors
// (PartitionedNode), so a tree of them executes as p workers pulling morsels
// from a shared dispenser through their own copy of the pipeline. Stateless
// stages (filter, project) are not duplicated as new node types: the binder
// replicates the existing enumerable operators once per partition, so the
// serial and parallel engines share one implementation of every expression
// kernel.
//
// Every node also keeps the plain serial BatchBound contract, binding
// straight through to its serial equivalent — a parallel plan handed to the
// serial executor degrades gracefully instead of failing.

import (
	"context"
	"fmt"
	"slices"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// ctxT abbreviates the cancellation context threaded through worker
// callbacks; a nil context means "no cancellation".
type ctxT = context.Context

// PartitionedNode is a physical operator that can produce its output as p
// independent partition cursors, each safe to drive from its own worker.
type PartitionedNode interface {
	rel.Node
	BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error)
}

// BindPartitions binds n as partition cursors: partition-aware nodes bind
// natively, stateless per-batch stages (filter, project) are replicated over
// their input's partitions, and everything else binds serially as a single
// partition.
func BindPartitions(ctx *exec.Context, n rel.Node) ([]schema.BatchCursor, error) {
	if pn, ok := n.(PartitionedNode); ok {
		parts, err := pn.BindPartitions(ctx)
		if err != nil {
			return nil, err
		}
		// All partitions of one operator share its span: counters are
		// atomic, so per-partition wrappers sum into one set of totals.
		if sp := ctx.SpanFor(n); sp != nil {
			for i, part := range parts {
				parts[i] = exec.TraceBatch(sp, part)
			}
		}
		return parts, nil
	}
	switch n.(type) {
	case *exec.Filter, *exec.Project:
		return replicate(ctx, n)
	}
	bc, err := exec.BindBatch(ctx, n)
	if err != nil {
		return nil, err
	}
	return []schema.BatchCursor{bc}, nil
}

// replicate binds a one-input per-batch operator once per input partition:
// the operator node is cloned with a leaf source wrapping the partition
// cursor, so each worker gets private operator state (selection buffers,
// compiled kernels) over shared immutable inputs.
func replicate(ctx *exec.Context, n rel.Node) ([]schema.BatchCursor, error) {
	in := n.Inputs()[0]
	parts, err := BindPartitions(ctx, in)
	if err != nil {
		return nil, err
	}
	out := make([]schema.BatchCursor, len(parts))
	sp := ctx.SpanFor(n) // clones are not in the span index; wrap explicitly
	for i, part := range parts {
		clone := n.WithNewInputs([]rel.Node{&leafSource{cur: part, rowType: in.RowType()}})
		bc, err := exec.BindBatch(ctx, clone)
		if err != nil {
			closeAll(parts[i:])
			closeAll(out[:i])
			return nil, err
		}
		out[i] = exec.TraceBatch(sp, bc)
	}
	return out, nil
}

func closeAll(parts []schema.BatchCursor) {
	for _, p := range parts {
		if p != nil {
			p.Close()
		}
	}
}

// leafSource is a plan leaf over a pre-bound partition cursor, used to
// replicate per-batch operators across partitions.
type leafSource struct {
	cur     schema.BatchCursor
	rowType *types.Type
}

func (l *leafSource) Op() string { return "PartitionSource" }

// SyntheticNode marks the leaf as a post-optimization artifact (rel.Synthetic).
func (l *leafSource) SyntheticNode()                           {}
func (l *leafSource) Inputs() []rel.Node                       { return nil }
func (l *leafSource) RowType() *types.Type                     { return l.rowType }
func (l *leafSource) Traits() trait.Set                        { return trait.NewSet(trait.Enumerable) }
func (l *leafSource) Attrs() string                            { return "" }
func (l *leafSource) WithNewInputs(inputs []rel.Node) rel.Node { return l }

func (l *leafSource) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	return l.cur, nil
}

// --- morsel scan ---

// MorselScan is the parallel table source: it splits the scan of a
// batch-scannable table into morsels that p workers claim dynamically.
type MorselScan struct {
	// Inner is the enumerable scan being parallelized.
	Inner rel.Node
	pool  *Pool
	p     int
}

// NewMorselScan wraps an enumerable scan as a morsel source for p workers.
func NewMorselScan(inner rel.Node, pool *Pool, p int) *MorselScan {
	return &MorselScan{Inner: inner, pool: pool, p: p}
}

func (s *MorselScan) Op() string           { return "MorselScan" }
func (s *MorselScan) Inputs() []rel.Node   { return nil }
func (s *MorselScan) RowType() *types.Type { return s.Inner.RowType() }
func (s *MorselScan) Traits() trait.Set {
	return s.Inner.Traits().WithDistribution(trait.RandomDist())
}
func (s *MorselScan) Attrs() string {
	return fmt.Sprintf("%s, workers=%d", s.Inner.Attrs(), s.p)
}
func (s *MorselScan) WithNewInputs(inputs []rel.Node) rel.Node { return s }

// Unwrap makes the morsel scan a rel.Wrapped over the scan it splits, so
// what reads a plan's tables (rel.ScannedTables, per-table plan eviction)
// sees through it.
func (s *MorselScan) Unwrap() rel.Node { return s.Inner }

// BindBatch is the serial fallback: a plain scan.
func (s *MorselScan) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	return s.Inner.(exec.BatchBound).BindBatch(ctx)
}

func (s *MorselScan) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	bc, err := s.Inner.(exec.BatchBound).BindBatch(ctx)
	if err != nil {
		return nil, err
	}
	return MorselsOn(s.pool, bc, s.p), nil
}

// --- exchange ---

// Exchange is the gather the parallel planner inserts wherever a serial
// operator reads a partitioned input: it merges the input's partitions into
// one stream in morsel (Seq) order.
type Exchange struct {
	input rel.Node
	pool  *Pool
}

// NewGatherExchange merges the partitions of input into a single stream.
func NewGatherExchange(input rel.Node, pool *Pool) *Exchange {
	return &Exchange{input: input, pool: pool}
}

func (e *Exchange) Op() string           { return "GatherExchange" }
func (e *Exchange) Inputs() []rel.Node   { return []rel.Node{e.input} }
func (e *Exchange) RowType() *types.Type { return e.input.RowType() }

// SyntheticNode marks exchanges as post-optimization artifacts
// (rel.Synthetic): they carry no optimizer estimate of their own.
func (e *Exchange) SyntheticNode() {}

func (e *Exchange) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.Singleton())
}

func (e *Exchange) Attrs() string { return "dist=" + trait.Singleton().String() }

func (e *Exchange) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewGatherExchange(inputs[0], e.pool)
}

func (e *Exchange) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, e.input)
	if err != nil {
		return nil, err
	}
	return Gather(e.pool, parts), nil
}

// --- partitioned hash join ---

// HashJoinPar is the partitioned hash join: the build partitions are drained
// in parallel into one exec.JoinBuild — the serial join's table, charging and
// spill logic — then each probe partition streams against the completed
// table, which is read-only during the probe phase. Probe-local emission
// preserves the probe side's partitioning and batch order, so the join output
// stays deterministic. Right/full joins need cross-partition unmatched
// tracking and stay serial.
type HashJoinPar struct {
	*exec.HashJoin
	pool *Pool
	p    int
}

// NewHashJoinPar wraps an enumerable hash join for partitioned execution.
func NewHashJoinPar(j *exec.HashJoin, pool *Pool, p int) *HashJoinPar {
	return &HashJoinPar{HashJoin: j, pool: pool, p: p}
}

func (j *HashJoinPar) Op() string { return "ParallelHashJoin" }

func (j *HashJoinPar) Traits() trait.Set {
	return j.HashJoin.Traits().WithDistribution(trait.RandomDist())
}

func (j *HashJoinPar) WithNewInputs(inputs []rel.Node) rel.Node {
	inner := j.HashJoin.WithNewInputs(inputs).(*exec.HashJoin)
	return NewHashJoinPar(inner, j.pool, j.p)
}

// BindPartitions drains the build side across the pool and returns one probe
// cursor per probe partition. When the build outgrows its memory grant, the
// join continues on the serial Grace path over the gathered remainder of both
// sides (still produced in parallel below the gathers) and yields a single
// partition.
func (j *HashJoinPar) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	buildParts, err := BindPartitions(ctx, j.Right())
	if err != nil {
		return nil, err
	}
	build, err := exec.NewJoinBuild(ctx, j.Join, j.Info, "ParallelHashJoin")
	if err != nil {
		closeAll(buildParts)
		return nil, err
	}
	exhausted := make([]bool, len(buildParts))
	err = j.pool.Run(nil, len(buildParts), func(_ ctxT, w int) error {
		var err error
		exhausted[w], err = build.Drain(buildParts[w], w)
		return err
	})
	var rest []schema.BatchCursor // Drain closes only the partitions it exhausts
	for w, part := range buildParts {
		if !exhausted[w] {
			rest = append(rest, part)
		}
	}
	if err != nil {
		closeAll(rest)
		build.Abandon()
		return nil, err
	}
	var parts []schema.BatchCursor
	if len(rest) > 0 {
		cur, err := build.Grace(Gather(j.pool, rest), func() (schema.BatchCursor, error) {
			probeParts, err := BindPartitions(ctx, j.Left())
			if err != nil {
				return nil, err
			}
			return Gather(j.pool, probeParts), nil
		})
		if err != nil {
			return nil, err
		}
		parts = []schema.BatchCursor{cur}
	} else {
		probeParts, err := BindPartitions(ctx, j.Left())
		if err != nil {
			build.Abandon()
			return nil, err
		}
		parts = build.Probes(probeParts)
	}
	j.NoteBuildOvershoot(ctx)
	return parts, nil
}

// --- partitioned aggregate ---

// PartialAgg is the thread-local pre-aggregation stage: each worker drains
// its partition into private groups and emits its state batch [group keys…,
// typed state columns…, first-seen position] to the final stage.
type PartialAgg struct {
	inner *exec.Aggregate
	pool  *Pool
	p     int
}

// NewPartialAgg wraps an enumerable aggregate as its partial stage.
func NewPartialAgg(inner *exec.Aggregate, pool *Pool, p int) *PartialAgg {
	return &PartialAgg{inner: inner, pool: pool, p: p}
}

func (a *PartialAgg) Op() string         { return "ParallelPartialAggregate" }
func (a *PartialAgg) Inputs() []rel.Node { return a.inner.Inputs() }
func (a *PartialAgg) Attrs() string      { return a.inner.Attrs() }

// SyntheticNode marks the partial stage as a post-optimization artifact
// (rel.Synthetic): the optimized plan's Aggregate corresponds to the final
// stage above it.
func (a *PartialAgg) SyntheticNode() {}

// RowType appends the first-seen position columns the final stage orders
// its groups by.
func (a *PartialAgg) RowType() *types.Type {
	fields := append(slices.Clip(a.inner.RowType().Fields),
		types.Field{Name: "$fs_seq", Type: types.BigInt},
		types.Field{Name: "$fs_idx", Type: types.BigInt})
	return types.Row(fields...)
}

func (a *PartialAgg) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.RandomDist())
}

func (a *PartialAgg) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewPartialAgg(a.inner.WithNewInputs(inputs).(*exec.Aggregate), a.pool, a.p)
}

// BindBatch is the serial fallback: partial rows from a single partition.
func (a *PartialAgg) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	parts, err := a.BindPartitions(ctx)
	if err != nil {
		return nil, err
	}
	return Gather(a.pool, parts), nil
}

// BindPartitions runs the pre-aggregation eagerly across the pool (the
// aggregate is a pipeline breaker): one exec.GroupedAgg per worker, each
// charging its group table against the shared query budget and spilling its
// state batch when a grant fails. The final stage's merge folds the duplicate
// groups the workers (and their flushes) produce.
func (a *PartialAgg) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, a.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	out := make([]schema.BatchCursor, len(parts))
	err = a.pool.Run(nil, len(parts), func(rctx ctxT, w int) error {
		var err error
		agg := exec.NewGroupedAgg(ctx, "ParallelPartialAggregate", a.inner, exec.AggPartial)
		out[w], err = agg.Drain(parts[w], rctx.Err)
		return err
	})
	if err != nil {
		closeAll(out)
		return nil, err
	}
	return out, nil
}

// FinalAgg merges the gathered partial rows of every worker into the final
// groups, once, on the singleton path. The partials carry each group's
// first-seen position, so the merge emits the groups in the serial order.
type FinalAgg struct {
	inner *exec.Aggregate
	input rel.Node
}

// NewFinalAgg builds the final stage over the gathered partial stream.
func NewFinalAgg(inner *exec.Aggregate, input rel.Node) *FinalAgg {
	return &FinalAgg{inner: inner, input: input}
}

func (a *FinalAgg) Op() string           { return "ParallelFinalAggregate" }
func (a *FinalAgg) Inputs() []rel.Node   { return []rel.Node{a.input} }
func (a *FinalAgg) Attrs() string        { return a.inner.Attrs() }
func (a *FinalAgg) RowType() *types.Type { return a.inner.RowType() }

func (a *FinalAgg) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.Singleton())
}

func (a *FinalAgg) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewFinalAgg(a.inner, inputs[0])
}

// BindBatch merges every partial row of the gathered input into the final
// groups.
func (a *FinalAgg) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	in, err := exec.BindBatch(ctx, a.input)
	if err != nil {
		return nil, err
	}
	return exec.NewGroupedAgg(ctx, "ParallelFinalAggregate", a.inner, exec.AggFinal).Drain(in, nil)
}
