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
	"strings"

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

// ExchangeKind selects the data movement pattern of an Exchange node.
type ExchangeKind int

const (
	// GatherKind merges p partitions into one stream in morsel order.
	GatherKind ExchangeKind = iota
	// MergeGatherKind merges p sorted partitions into one sorted stream.
	MergeGatherKind
	// HashKind repartitions rows by a hash of key columns.
	HashKind
)

func (k ExchangeKind) String() string {
	switch k {
	case GatherKind:
		return "GatherExchange"
	case MergeGatherKind:
		return "MergeGatherExchange"
	}
	return "HashExchange"
}

// Exchange is the explicit data-movement operator the parallel planner
// inserts wherever a node's required distribution is not satisfied by its
// input's distribution.
type Exchange struct {
	input rel.Node
	Kind  ExchangeKind
	// Keys are the hash partitioning columns (HashKind).
	Keys []int
	// Collation is the merge order (MergeGatherKind); it may reference
	// hidden trailing columns that DropTail strips from the output.
	Collation trait.Collation
	// DropTail hidden ordering columns are removed after the merge.
	DropTail int
	// Offset/Fetch apply after a merge-gather (parallel sort's limit).
	Offset, Fetch int64
	dist          trait.Distribution
	pool          *Pool
	p             int
}

// NewGatherExchange merges the partitions of input into a single stream.
func NewGatherExchange(input rel.Node, pool *Pool, p int) *Exchange {
	return &Exchange{input: input, Kind: GatherKind, Fetch: -1,
		dist: trait.Singleton(), pool: pool, p: p}
}

// NewMergeGatherExchange merges sorted partitions by collation, stripping
// dropTail hidden columns and applying offset/fetch.
func NewMergeGatherExchange(input rel.Node, collation trait.Collation, dropTail int,
	offset, fetch int64, pool *Pool, p int) *Exchange {
	return &Exchange{input: input, Kind: MergeGatherKind, Collation: collation,
		DropTail: dropTail, Offset: offset, Fetch: fetch,
		dist: trait.Singleton(), pool: pool, p: p}
}

// NewHashExchange repartitions input rows by a hash of the key columns.
func NewHashExchange(input rel.Node, keys []int, pool *Pool, p int) *Exchange {
	return &Exchange{input: input, Kind: HashKind, Keys: keys, Fetch: -1,
		dist: trait.Hashed(keys...), pool: pool, p: p}
}

func (e *Exchange) Op() string         { return e.Kind.String() }
func (e *Exchange) Inputs() []rel.Node { return []rel.Node{e.input} }

// SyntheticNode marks exchanges as post-optimization artifacts
// (rel.Synthetic): they carry no optimizer estimate of their own.
func (e *Exchange) SyntheticNode() {}

func (e *Exchange) RowType() *types.Type {
	t := e.input.RowType()
	if e.DropTail > 0 {
		return types.Row(t.Fields[:len(t.Fields)-e.DropTail]...)
	}
	return t
}

func (e *Exchange) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(e.dist)
}

func (e *Exchange) Attrs() string {
	var parts []string
	parts = append(parts, "dist="+e.dist.String())
	if e.Kind == HashKind {
		keys := make([]string, len(e.Keys))
		for i, k := range e.Keys {
			keys[i] = fmt.Sprintf("$%d", k)
		}
		parts = append(parts, "keys=["+strings.Join(keys, ", ")+"]")
	}
	if e.Kind == MergeGatherKind && len(e.Collation) > 0 {
		parts = append(parts, "order="+e.Collation.String())
	}
	return strings.Join(parts, ", ")
}

func (e *Exchange) WithNewInputs(inputs []rel.Node) rel.Node {
	c := *e
	c.input = inputs[0]
	return &c
}

// BindBatch binds the gathering exchanges as single cursors; for the hash
// exchange it is the serial fallback (a pass-through).
func (e *Exchange) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	switch e.Kind {
	case GatherKind:
		parts, err := BindPartitions(ctx, e.input)
		if err != nil {
			return nil, err
		}
		return Gather(e.pool, parts), nil
	case MergeGatherKind:
		parts, err := BindPartitions(ctx, e.input)
		if err != nil {
			return nil, err
		}
		return MergeGather(e.pool, parts, e.Collation, e.Offset, e.Fetch, e.DropTail, batchSize(ctx)), nil
	}
	return exec.BindBatch(ctx, e.input)
}

// BindPartitions implements the hash exchange, the one scattering kind. The
// gathering kinds present their single stream as one partition.
func (e *Exchange) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	if e.Kind == HashKind {
		parts, err := BindPartitions(ctx, e.input)
		if err != nil {
			return nil, err
		}
		return Scatter(parts, e.p, e.Keys), nil
	}
	bc, err := e.BindBatch(ctx)
	if err != nil {
		return nil, err
	}
	return []schema.BatchCursor{bc}, nil
}

func batchSize(ctx *exec.Context) int {
	if ctx.BatchSize > 0 {
		return ctx.BatchSize
	}
	return schema.DefaultBatchSize
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
		return []schema.BatchCursor{cur}, nil
	}
	probeParts, err := BindPartitions(ctx, j.Left())
	if err != nil {
		build.Abandon()
		return nil, err
	}
	return build.Probes(probeParts), nil
}

// --- partitioned aggregate ---

// aggHiddenFields are the trailing first-seen position columns the parallel
// aggregate threads through its stages to reproduce the serial group order.
func aggHiddenFields() []types.Field {
	return []types.Field{
		{Name: "$fs_seq", Type: types.BigInt},
		{Name: "$fs_idx", Type: types.BigInt},
	}
}

// PartialAgg is the thread-local pre-aggregation stage: each worker drains
// its partition into private groups and emits one batch of partial rows
// [group keys…, accumulator states…, first-seen position]. The accumulator
// objects travel as ordinary column values to the final stage.
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

func (a *PartialAgg) RowType() *types.Type {
	innerT := a.inner.RowType()
	fields := make([]types.Field, 0, len(innerT.Fields)+2)
	fields = append(fields, innerT.Fields...)
	fields = append(fields, aggHiddenFields()...)
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
// charging its group table against the shared query budget and spilling
// dehydrated partial states when a grant fails. The final stage's merge folds
// the duplicate groups the workers (and their flushes) produce.
func (a *PartialAgg) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, a.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return eachPartition(a.pool, parts, func(rctx ctxT, part schema.BatchCursor) (schema.BatchCursor, error) {
		agg := exec.NewGroupedAgg(ctx, "ParallelPartialAggregate", a.inner, exec.AggPartial)
		return agg.Drain(part, rctx.Err)
	})
}

// eachPartition runs fn over every partition on the pool — the eager half of
// a pipeline-breaking operator — and returns the per-partition outputs. fn
// owns its input partition; if any worker fails, the outputs already produced
// are closed.
func eachPartition(pool *Pool, parts []schema.BatchCursor,
	fn func(rctx ctxT, part schema.BatchCursor) (schema.BatchCursor, error)) ([]schema.BatchCursor, error) {
	results := make([]schema.BatchCursor, len(parts))
	err := pool.Run(nil, len(parts), func(rctx ctxT, w int) error {
		var err error
		results[w], err = fn(rctx, parts[w])
		return err
	})
	if err != nil {
		closeAll(results)
		return nil, err
	}
	return results, nil
}

// FinalAgg merges partial rows into final groups. With group keys it is
// partitioned — each worker merges the (hash-exchanged) partials of its key
// range and emits value rows still carrying the first-seen position, which
// the merge-gather above uses to restore the serial group order. Without
// keys it is a singleton merge of the per-worker global states.
type FinalAgg struct {
	inner *exec.Aggregate
	input rel.Node
	pool  *Pool
	p     int
}

// NewFinalAgg builds the final stage over the (exchanged) partial stream.
func NewFinalAgg(inner *exec.Aggregate, input rel.Node, pool *Pool, p int) *FinalAgg {
	return &FinalAgg{inner: inner, input: input, pool: pool, p: p}
}

func (a *FinalAgg) global() bool       { return len(a.inner.GroupKeys) == 0 }
func (a *FinalAgg) Op() string         { return "ParallelFinalAggregate" }
func (a *FinalAgg) Inputs() []rel.Node { return []rel.Node{a.input} }
func (a *FinalAgg) Attrs() string      { return a.inner.Attrs() }

func (a *FinalAgg) RowType() *types.Type {
	if a.global() {
		return a.inner.RowType()
	}
	innerT := a.inner.RowType()
	fields := make([]types.Field, 0, len(innerT.Fields)+2)
	fields = append(fields, innerT.Fields...)
	fields = append(fields, aggHiddenFields()...)
	return types.Row(fields...)
}

func (a *FinalAgg) Traits() trait.Set {
	if a.global() {
		return trait.NewSet(trait.Enumerable).WithDistribution(trait.Singleton())
	}
	// Output rows lead with the group key columns, so the hash keys are the
	// first len(GroupKeys) output ordinals (not the input ordinals).
	keys := make([]int, len(a.inner.GroupKeys))
	for i := range keys {
		keys[i] = i
	}
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.Hashed(keys...))
}

func (a *FinalAgg) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewFinalAgg(a.inner, inputs[0], a.pool, a.p)
}

func (a *FinalAgg) engine(ctx *exec.Context) *exec.GroupedAgg {
	return exec.NewGroupedAgg(ctx, "ParallelFinalAggregate", a.inner, exec.AggFinal)
}

// BindBatch is the singleton path: merge every partial row of the gathered
// input into the final groups (the global-aggregate back end and the serial
// fallback).
func (a *FinalAgg) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	in, err := exec.BindBatch(ctx, a.input)
	if err != nil {
		return nil, err
	}
	return a.engine(ctx).Drain(in, nil)
}

// BindPartitions merges each hash-exchanged partition independently.
func (a *FinalAgg) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	if a.global() {
		bc, err := a.BindBatch(ctx)
		if err != nil {
			return nil, err
		}
		return []schema.BatchCursor{bc}, nil
	}
	parts, err := BindPartitions(ctx, a.input)
	if err != nil {
		return nil, err
	}
	out := make([]schema.BatchCursor, len(parts))
	for i, part := range parts {
		out[i] = &finalAggCursor{agg: a.engine(ctx), in: part}
	}
	return out, nil
}

// finalAggCursor lazily merges one partition's partials when first pulled,
// so the merge work runs on whichever worker drives this partition.
type finalAggCursor struct {
	agg *exec.GroupedAgg
	in  schema.BatchCursor // nil once drained into out
	out schema.BatchCursor
}

func (c *finalAggCursor) NextBatch() (*schema.Batch, error) {
	if c.in != nil {
		in := c.in
		c.in = nil
		out, err := c.agg.Drain(in, nil)
		if err != nil {
			return nil, err
		}
		c.out = out
	}
	if c.out == nil {
		return nil, schema.Done
	}
	return c.out.NextBatch()
}

func (c *finalAggCursor) Close() error {
	if c.in != nil {
		return c.in.Close()
	}
	if c.out != nil {
		return c.out.Close()
	}
	return nil
}

// --- partitioned sort ---

// sortHiddenFields are the trailing global-position columns the parallel
// sort appends so the merge-gather can reproduce the serial stable order.
func sortHiddenFields() []types.Field {
	return []types.Field{
		{Name: "$pos_seq", Type: types.BigInt},
		{Name: "$pos_idx", Type: types.BigInt},
	}
}

// SortPar sorts each partition locally (worker-private sort of its morsels,
// truncated to OFFSET+FETCH when a limit applies) and emits sorted runs
// tagged with each row's global input position; the merge-gather above
// k-way-merges the runs into the exact order of the serial stable sort.
type SortPar struct {
	inner *exec.Sort
	pool  *Pool
	p     int
}

// NewSortPar wraps an enumerable sort as its partition-local stage.
func NewSortPar(inner *exec.Sort, pool *Pool, p int) *SortPar {
	return &SortPar{inner: inner, pool: pool, p: p}
}

func (s *SortPar) Op() string         { return "ParallelSort" }
func (s *SortPar) Inputs() []rel.Node { return s.inner.Inputs() }
func (s *SortPar) Attrs() string      { return s.inner.Attrs() }

func (s *SortPar) RowType() *types.Type {
	innerT := s.inner.RowType()
	fields := make([]types.Field, 0, len(innerT.Fields)+2)
	fields = append(fields, innerT.Fields...)
	fields = append(fields, sortHiddenFields()...)
	return types.Row(fields...)
}

func (s *SortPar) Traits() trait.Set {
	return trait.NewSet(trait.Enumerable).WithDistribution(trait.RandomDist())
}

func (s *SortPar) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewSortPar(s.inner.WithNewInputs(inputs).(*exec.Sort), s.pool, s.p)
}

// MergeCollation returns the collation the gathering merge must use: the
// sort's collation extended by the hidden position columns.
func (s *SortPar) MergeCollation() trait.Collation {
	w := len(s.inner.RowType().Fields)
	coll := append(trait.Collation(nil), s.inner.Collation...)
	coll = append(coll,
		trait.FieldCollation{Field: w, Direction: trait.Ascending},
		trait.FieldCollation{Field: w + 1, Direction: trait.Ascending})
	return coll
}

// BindBatch is the serial fallback: one gathered sorted run.
func (s *SortPar) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	parts, err := s.BindPartitions(ctx)
	if err != nil {
		return nil, err
	}
	return MergeGather(s.pool, parts, s.MergeCollation(), 0, -1, 0, batchSize(ctx)), nil
}

// BindPartitions sorts every partition eagerly across the pool (sort is a
// pipeline breaker) and returns the sorted runs. Each worker tags its batches
// with their rows' global input position and feeds the sort kernel
// (exec.SortCursor) on the merge collation — the sort's keys, then position,
// a total order over all partitions — keeping only the OFFSET+FETCH rows the
// merge could emit; its rows accumulate against the shared query budget and
// overflow to sorted on-disk runs that the returned cursor merges back (the
// per-worker half of the parallel external sort; the merge-gather above
// combines the workers).
func (s *SortPar) BindPartitions(ctx *exec.Context) ([]schema.BatchCursor, error) {
	parts, err := BindPartitions(ctx, s.inner.Inputs()[0])
	if err != nil {
		return nil, err
	}
	keep := int64(-1)
	if s.inner.Fetch >= 0 && s.inner.Offset+s.inner.Fetch >= 0 {
		keep = s.inner.Offset + s.inner.Fetch
	}
	coll := s.MergeCollation()
	return eachPartition(s.pool, parts, func(rctx ctxT, part schema.BatchCursor) (schema.BatchCursor, error) {
		return exec.SortCursor(ctx, "ParallelSort", &positionedCursor{in: part, rctx: rctx}, coll, keep, 0)
	})
}

// positionedCursor tags a partition's batches with their rows' global input
// position and stops at the first batch after the run was cancelled.
type positionedCursor struct {
	in   schema.BatchCursor
	rctx ctxT
}

func (c *positionedCursor) NextBatch() (*schema.Batch, error) {
	if err := c.rctx.Err(); err != nil {
		return nil, err
	}
	b, err := c.in.NextBatch()
	if err != nil {
		return nil, err
	}
	return exec.WithPositions(b), nil
}

func (c *positionedCursor) Close() error { return c.in.Close() }
