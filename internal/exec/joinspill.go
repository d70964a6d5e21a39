package exec

// Grace/hybrid hash join: the memory-governed join path. The build side is
// drained under a reservation; while it fits, the join degenerates to the
// classic in-memory hash join with a streaming probe. When the build grant
// is exhausted mid-drain, the join switches to Grace mode: both sides are
// hash-partitioned to disk (the rows already in memory are flushed first),
// and each partition is then joined independently — recursively
// re-partitioned with a different hash seed if it still does not fit.
// Every join kind is supported: unmatched-build tracking (right/full) is
// per partition, which is sound because partitioning covers every build row
// exactly once.

import (
	"sort"
	"sync"
	"sync/atomic"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

const (
	// spillFanOut is the fan-out of one hash-partitioning pass (Grace join
	// and spilled aggregation alike).
	spillFanOut = 8
	// spillMaxDepth bounds recursive re-partitioning. A partition that still
	// exceeds the grant at max depth (pathological key skew: one giant key
	// group) is processed in memory anyway — the budget is a governance
	// target, and proceeding degraded beats failing a query that spilling
	// was meant to save.
	spillMaxDepth = 3
	// joinRowOverhead approximates the hash-table cost of one build row
	// beyond the row itself (map entry, candidate-list slot, key string).
	joinRowOverhead = 64
)

// joinSpec carries the static shape of a hash join shared by the in-memory
// and Grace paths.
type joinSpec struct {
	kind       rel.JoinKind
	info       JoinInfo
	leftWidth  int
	rightWidth int
	rightType  *types.Type // build-side row type: the kinds its output vectors are built in
	emitRight  bool
	residual   func(row []any) (bool, error)
}

func newJoinSpec(ctx *Context, j *HashJoin) (*joinSpec, error) {
	spec := &joinSpec{
		kind:       j.Kind,
		info:       j.Info,
		leftWidth:  rel.FieldCount(j.Left()),
		rightWidth: rel.FieldCount(j.Right()),
		rightType:  j.Right().RowType(),
		emitRight:  j.Kind != rel.SemiJoin && j.Kind != rel.AntiJoin,
	}
	if j.Info.Residual != nil {
		cond, err := ctx.bindParams(j.Info.Residual)
		if err != nil {
			return nil, err
		}
		if spec.residual, err = rex.CompileBool(cond); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

func (s *joinSpec) outWidth() int {
	if s.emitRight {
		return s.leftWidth + s.rightWidth
	}
	return s.leftWidth
}

// BindBatch executes the hash join with a streaming probe: the build
// (right) side is drained into a hash table — spilling to Grace partitions
// when the memory grant runs out — then probe batches stream through,
// emitting one output batch per probe batch. Unmatched build rows
// (right/full joins) follow after the probe is exhausted.
func (j *HashJoin) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	buildBC, err := BindBatch(ctx, j.Right())
	if err != nil {
		return nil, err
	}
	b, err := NewJoinBuild(ctx, j, "HashJoin")
	if err != nil {
		buildBC.Close()
		return nil, err
	}
	exhausted, err := b.Drain(buildBC, 0)
	if err != nil {
		buildBC.Close()
		b.Abandon()
		return nil, err
	}
	bindProbe := func() (schema.BatchCursor, error) { return BindBatch(ctx, j.Left()) }
	if !exhausted {
		cur, err := b.Grace(buildBC, bindProbe)
		if err == nil {
			// The Grace path drains the rest of the build stream into partitions
			// at bind time, so the build child's span rows are complete here too.
			j.noteBuildOvershoot(ctx)
		}
		return cur, err
	}
	j.noteBuildOvershoot(ctx)
	probeBC, err := bindProbe()
	if err != nil {
		b.Abandon()
		return nil, err
	}
	return b.Probes([]schema.BatchCursor{probeBC})[0], nil
}

// JoinBuild is the build phase of one hash join execution, shared by the
// serial join (one build partition, one probe) and the parallel one (a Drain
// per build partition on its own worker, a probe cursor per probe partition).
// Build rows are charged batch-wise to one reservation; the first denied
// grant halts every Drain and the join finishes on the Grace path.
type JoinBuild struct {
	ctx  *Context
	op   string // reservation and spill-run tag
	spec *joinSpec

	halt atomic.Bool // a grant was denied or a Drain failed: stop draining

	mu     sync.Mutex // guards res and chunks across concurrent Drains
	res    *memory.Reservation
	chunks []buildChunk

	open atomic.Int32 // probe cursors still reading the table
}

// buildChunk is the materialized rows of one build batch, tagged with the
// position a gather of the build partitions would have delivered it at.
type buildChunk struct {
	seq  int64
	part int
	rows [][]any
}

// NewJoinBuild opens the build phase of j, charging the context's allocator
// under the operator tag op.
func NewJoinBuild(ctx *Context, j *HashJoin, op string) (*JoinBuild, error) {
	spec, err := newJoinSpec(ctx, j)
	if err != nil {
		return nil, err
	}
	return &JoinBuild{ctx: ctx, op: op, spec: spec, res: memory.Reserve(ctx.Alloc, op)}, nil
}

// Drain buffers the batches of build partition idx until it is exhausted —
// the only case in which Drain closes it — or the build halts: a denied grant
// or an error, here or in a concurrent Drain. A halted partition stays open
// for the Grace path (or the caller's cleanup).
func (b *JoinBuild) Drain(part schema.BatchCursor, idx int) (exhausted bool, err error) {
	for !b.halt.Load() {
		batch, err := part.NextBatch()
		if err == schema.Done {
			return true, part.Close()
		}
		if err != nil {
			b.halt.Store(true)
			return false, err
		}
		rows := batch.AppendRows(make([][]any, 0, batch.NumRows()))
		var size int64
		if b.res != nil {
			for _, row := range rows {
				size += types.SizeOfRow(row) + joinRowOverhead
			}
		}
		b.mu.Lock()
		err = b.res.Grow(size)
		// A denied batch stays buffered: the Grace path takes over from the
		// next batch of the build cursor.
		b.chunks = append(b.chunks, buildChunk{seq: batch.Seq, part: idx, rows: rows})
		b.mu.Unlock()
		if err != nil {
			b.halt.Store(true)
			if !b.res.SpillAllowed() {
				return false, err
			}
		}
	}
	return false, nil
}

// buildRows returns the buffered rows in the order a gather of the build
// partitions would have delivered them — batch Seq, ties to the lower
// partition, then arrival — so candidate lists match a serial build exactly.
// (A single partition arrives in Seq order already: the sort is the identity.)
func (b *JoinBuild) buildRows() [][]any {
	sort.SliceStable(b.chunks, func(i, k int) bool {
		if b.chunks[i].seq != b.chunks[k].seq {
			return b.chunks[i].seq < b.chunks[k].seq
		}
		return b.chunks[i].part < b.chunks[k].part
	})
	n := 0
	for _, c := range b.chunks {
		n += len(c.rows)
	}
	rows := make([][]any, 0, n)
	for _, c := range b.chunks {
		rows = append(rows, c.rows...)
	}
	b.chunks = nil
	return rows
}

// Probes completes the in-memory build and returns one cursor per probe
// partition over the shared, read-only table. The build's memory is released
// when the last of them finishes.
func (b *JoinBuild) Probes(probes []schema.BatchCursor) []schema.BatchCursor {
	side := newBuildSide(b.spec, b.buildRows())
	b.open.Store(int32(len(probes)))
	release := func() {
		if b.open.Add(-1) == 0 {
			b.res.Free()
		}
	}
	out := make([]schema.BatchCursor, len(probes))
	for i, probe := range probes {
		out[i] = newHashProbeCursor(b.spec, side, probe, release)
	}
	return out
}

// Abandon releases the build's memory (error paths).
func (b *JoinBuild) Abandon() {
	b.chunks = nil
	b.res.Free()
}

// noteBuildOvershoot reports the build side's actual vs estimated rows to
// the feedback hook once the build is fully drained. The hook (and the
// estimate, stamped on the build child's span) exists only on traced
// executions with feedback enabled; thresholds live in the feedback store.
func (j *HashJoin) noteBuildOvershoot(ctx *Context) {
	if ctx.BuildOvershoot == nil {
		return
	}
	sp := ctx.SpanFor(j.Right())
	if sp == nil {
		return
	}
	if est := sp.EstRows(); est > 0 {
		if actual := float64(sp.Rows()); actual > est {
			ctx.BuildOvershoot(j, est, actual)
		}
	}
}

// --- in-memory probe ---

// buildSide is a completed hash-join build: the rows, their key index and
// their columnar transpose for gather-based output. It is read-only, so any
// number of probe cursors share one.
type buildSide struct {
	rows  [][]any
	table *joinTable
	vecs  []*schema.Vector // transpose of rows; nil when the join emits no build columns
}

func newBuildSide(spec *joinSpec, rows [][]any) *buildSide {
	s := &buildSide{rows: rows, table: buildJoinTable(rows, spec.info.RightKeys)}
	if spec.emitRight {
		s.vecs = schema.VectorsFromRows(rows, spec.rightType.Fields)
	}
	return s
}

// hashProbeCursor probes a completed build with streaming input batches.
// done (optional) runs exactly once when the cursor finishes or closes.
type hashProbeCursor struct {
	spec     *joinSpec
	build    *buildSide
	matched  []bool // build rows matched so far (right/full)
	probe    schema.BatchCursor
	dense    []int32
	gatherL  []int32 // scratch: probe row per output row
	gatherR  []int32 // scratch: build ordinal per output row (-1 = NULL pad)
	combined []any
	keyBuf   []byte // composite probe-key encoding scratch
	seq      int64  // sequence number of the unmatched-build tail batch
	tailSent bool
	closed   bool
	done     func()
}

func newHashProbeCursor(spec *joinSpec, build *buildSide, probe schema.BatchCursor, done func()) *hashProbeCursor {
	c := &hashProbeCursor{spec: spec, build: build, probe: probe, done: done}
	if spec.kind == rel.RightJoin || spec.kind == rel.FullJoin {
		c.matched = make([]bool, len(build.rows))
	}
	return c
}

func (c *hashProbeCursor) finish() {
	if c.closed {
		return
	}
	c.closed = true
	c.probe.Close()
	if c.done != nil {
		c.done()
		c.done = nil
	}
}

func (c *hashProbeCursor) NextBatch() (*schema.Batch, error) {
	if c.closed {
		return nil, schema.Done
	}
	spec := c.spec
	for {
		b, err := c.probe.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			c.finish()
			return nil, err
		}
		out, err := c.probeBatch(b)
		if err != nil {
			c.finish()
			return nil, err
		}
		if out != nil {
			return out, nil
		}
	}
	// Probe exhausted: emit unmatched build rows for right/full joins, the
	// probe columns all NULL.
	if c.matched != nil && !c.tailSent {
		c.tailSent = true
		var ords []int32
		for ri, m := range c.matched {
			if !m {
				ords = append(ords, int32(ri))
			}
		}
		if len(ords) > 0 {
			vecs := make([]*schema.Vector, spec.outWidth())
			for col := 0; col < spec.leftWidth; col++ {
				vecs[col] = &schema.Vector{Kind: schema.VecAny, A: make([]any, len(ords))}
			}
			for col := 0; col < spec.rightWidth; col++ {
				vecs[spec.leftWidth+col] = c.build.vecs[col].Gather(ords)
			}
			return &schema.Batch{Len: len(ords), Vecs: vecs, Seq: c.seq}, nil
		}
	}
	c.finish()
	return nil, schema.Done
}

// probeBatch joins one probe batch against the table; a nil batch means no
// output rows (caller keeps pulling).
func (c *hashProbeCursor) probeBatch(b *schema.Batch) (*schema.Batch, error) {
	spec := c.spec
	// Pass 1 records the output as (probe row, build ordinal) pairs — a
	// build ordinal of -1 is the outer-join NULL pad — so pass 2 can gather
	// whole columns at once instead of appending boxed values row by row.
	gl := c.gatherL[:0]
	gr := c.gatherR[:0]
	if c.combined == nil {
		c.combined = make([]any, spec.leftWidth+spec.rightWidth)
	}
	var sel []int32
	sel, c.dense = liveSel(b, c.dense)
	for _, li := range sel {
		l := int(li)
		var candidates []int32
		candidates, c.keyBuf = c.build.table.probe(b.Vecs, l, spec.info.LeftKeys, c.keyBuf)
		matched := false
		for _, ri := range candidates {
			if spec.residual != nil {
				for col := 0; col < spec.leftWidth; col++ {
					c.combined[col] = b.Vecs[col].Get(l)
				}
				copy(c.combined[spec.leftWidth:], c.build.rows[ri])
				ok, err := spec.residual(c.combined)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			if c.matched != nil {
				c.matched[ri] = true
			}
			if spec.kind == rel.SemiJoin || spec.kind == rel.AntiJoin {
				break
			}
			gl = append(gl, li)
			gr = append(gr, ri)
		}
		switch spec.kind {
		case rel.SemiJoin:
			if matched {
				gl = append(gl, li)
				gr = append(gr, -1)
			}
		case rel.AntiJoin:
			if !matched {
				gl = append(gl, li)
				gr = append(gr, -1)
			}
		case rel.LeftJoin, rel.FullJoin:
			if !matched {
				gl = append(gl, li)
				gr = append(gr, -1)
			}
		}
	}
	c.gatherL, c.gatherR = gl, gr
	nRows := len(gl)
	if nRows == 0 {
		return nil, nil
	}
	// The output keeps the probe batch's sequence number (a streaming probe
	// is a per-batch operator), which is what lets a gather over partitioned
	// probes restore the serial output order.
	out := &schema.Batch{Len: nRows, Seq: b.Seq}
	c.seq = b.Seq + 1
	// Pass 2: gather whole columns, each in the kind its source vector has.
	vecs := make([]*schema.Vector, spec.outWidth())
	for col := 0; col < spec.leftWidth; col++ {
		vecs[col] = b.Vecs[col].Gather(gl)
	}
	if spec.emitRight {
		for col := 0; col < spec.rightWidth; col++ {
			vecs[spec.leftWidth+col] = c.build.vecs[col].GatherOrd(gr)
		}
	}
	out.Vecs = vecs
	return out, nil
}

func (c *hashProbeCursor) Close() error {
	c.finish()
	return nil
}

// --- Grace partitioning ---

// partitionWriter spreads rows across the spill partitions of one pass,
// buffering a small chunk per partition between codec writes.
type partitionWriter struct {
	writers []*memory.RunWriter
	bufs    [][][]any
	keys    []int
	seed    int
	width   int
}

func newPartitionWriter(alloc *memory.Allocator, op string, keys []int, seed, width int) (*partitionWriter, error) {
	pw := &partitionWriter{
		writers: make([]*memory.RunWriter, spillFanOut),
		bufs:    make([][][]any, spillFanOut),
		keys:    keys,
		seed:    seed,
		width:   width,
	}
	for i := range pw.writers {
		w, err := alloc.NewRun(op)
		if err != nil {
			pw.abandon()
			return nil, err
		}
		pw.writers[i] = w
	}
	return pw, nil
}

func (pw *partitionWriter) add(row []any) error {
	// NULL-inclusive routing: unlike a join's match key, partitioning must
	// place NULL-key rows too (they are emitted by outer joins).
	p := memory.Partition(types.HashRowKey(row, pw.keys), spillFanOut, pw.seed)
	pw.bufs[p] = append(pw.bufs[p], row)
	if len(pw.bufs[p]) >= spillWriteChunk {
		return pw.flush(p)
	}
	return nil
}

func (pw *partitionWriter) flush(p int) error {
	if len(pw.bufs[p]) == 0 {
		return nil
	}
	err := pw.writers[p].WriteRows(pw.bufs[p], pw.width)
	pw.bufs[p] = pw.bufs[p][:0]
	return err
}

// finish flushes all buffers and returns the finished runs.
func (pw *partitionWriter) finish() ([]*memory.Run, error) {
	runs := make([]*memory.Run, spillFanOut)
	for p := range pw.writers {
		if err := pw.flush(p); err != nil {
			pw.abandon()
			return nil, err
		}
		run, err := pw.writers[p].Finish()
		pw.writers[p] = nil
		if err != nil {
			pw.abandon()
			return nil, err
		}
		runs[p] = run
	}
	return runs, nil
}

func (pw *partitionWriter) abandon() {
	for _, w := range pw.writers {
		if w != nil {
			w.Abandon()
		}
	}
}

// drainToPartitions routes every remaining row of a batch cursor (closing it)
// into pw and finishes its runs; on error the writer is abandoned.
func drainToPartitions(pw *partitionWriter, bc schema.BatchCursor) ([]*memory.Run, error) {
	defer bc.Close()
	var rows [][]any // per-batch staging, reused
	for {
		b, err := bc.NextBatch()
		if err == schema.Done {
			return pw.finish()
		}
		if err != nil {
			pw.abandon()
			return nil, err
		}
		rows = b.AppendRows(rows[:0])
		for _, row := range rows {
			if err := pw.add(row); err != nil {
				pw.abandon()
				return nil, err
			}
		}
	}
}

// joinPartition is one pending unit of Grace work: matching build/probe
// runs at a recursion depth.
type joinPartition struct {
	build, probe *memory.Run
	depth        int
}

// Grace finishes a halted build on the Grace path: the buffered rows, then
// rest — the remainder of the build stream — are partitioned to disk, then
// the probe side, and the returned cursor joins the partitions one at a time.
func (b *JoinBuild) Grace(rest schema.BatchCursor, bindProbe func() (schema.BatchCursor, error)) (schema.BatchCursor, error) {
	ctx, spec, res := b.ctx, b.spec, b.res
	res.NoteSpillEvent()
	buildPW, err := newPartitionWriter(ctx.Alloc, b.op, spec.info.RightKeys, 0, spec.rightWidth)
	if err != nil {
		rest.Close()
		b.Abandon()
		return nil, err
	}
	for _, row := range b.buildRows() {
		if err := buildPW.add(row); err != nil {
			buildPW.abandon()
			rest.Close()
			res.Free()
			return nil, err
		}
	}
	res.Shrink(res.Held())
	buildRuns, err := drainToPartitions(buildPW, rest)
	if err != nil {
		res.Free()
		return nil, err
	}
	// Probe side: fully partitioned to disk before any partition is joined.
	probeBC, err := bindProbe()
	if err != nil {
		res.Free()
		return nil, err
	}
	probePW, err := newPartitionWriter(ctx.Alloc, b.op, spec.info.LeftKeys, 0, spec.leftWidth)
	if err != nil {
		probeBC.Close()
		res.Free()
		return nil, err
	}
	probeRuns, err := drainToPartitions(probePW, probeBC)
	if err != nil {
		res.Free()
		return nil, err
	}
	parts := make([]joinPartition, 0, spillFanOut)
	for p := 0; p < spillFanOut; p++ {
		parts = append(parts, joinPartition{build: buildRuns[p], probe: probeRuns[p], depth: 1})
	}
	return &graceJoinCursor{ctx: ctx, op: b.op, spec: spec, res: res, parts: parts}, nil
}

// graceJoinCursor joins spilled partitions one at a time, re-partitioning
// any whose build side still exceeds the grant.
type graceJoinCursor struct {
	ctx   *Context
	op    string
	spec  *joinSpec
	res   *memory.Reservation
	parts []joinPartition
	cur   *hashProbeCursor
	seq   int64
	done  bool
}

func (g *graceJoinCursor) NextBatch() (*schema.Batch, error) {
	for {
		if g.done {
			return nil, schema.Done
		}
		if g.cur != nil {
			b, err := g.cur.NextBatch()
			if err == nil {
				b.Seq = g.seq
				g.seq++
				return b, nil
			}
			g.cur = nil
			if err != schema.Done {
				g.fail()
				return nil, err
			}
		}
		if len(g.parts) == 0 {
			g.Close()
			return nil, schema.Done
		}
		part := g.parts[0]
		g.parts = g.parts[1:]
		if err := g.startPartition(part); err != nil {
			g.fail()
			return nil, err
		}
	}
}

// startPartition loads one partition's build rows (re-partitioning on
// overflow below max depth) and opens its probe stream.
func (g *graceJoinCursor) startPartition(part joinPartition) error {
	if part.build.Rows() == 0 && part.probe.Rows() == 0 {
		g.removePart(part)
		return nil
	}
	rr, err := part.build.Open()
	if err != nil {
		return err
	}
	var rows [][]any
	overflowed := false
	for {
		b, err := rr.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			rr.Close()
			return err
		}
		n := b.NumRows()
		for i := 0; i < n; i++ {
			row := b.Row(i)
			if !overflowed {
				if gerr := g.res.Grow(types.SizeOfRow(row) + joinRowOverhead); gerr != nil {
					if part.depth < spillMaxDepth {
						rr.Close()
						return g.repartition(part)
					}
					// Max depth: this key range will not subdivide (skewed
					// keys). Proceed in memory; the planner's budget becomes
					// best-effort for this partition.
					overflowed = true
				}
			}
			rows = append(rows, row)
		}
	}
	rr.Close()
	probeReader, err := part.probe.Open()
	if err != nil {
		return err
	}
	held := g.res.Held()
	res := g.res
	g.cur = newHashProbeCursor(g.spec, newBuildSide(g.spec, rows), probeReader, func() {
		res.Shrink(held)
		part.build.Remove()
		part.probe.Remove()
	})
	return nil
}

// repartition splits an oversized partition into sub-partitions under the
// next hash seed, replaying both of its runs from disk, and queues them ahead
// of the remaining work.
func (g *graceJoinCursor) repartition(part joinPartition) error {
	g.res.Shrink(g.res.Held())
	g.res.NoteSpillEvent()
	split := func(run *memory.Run, keys []int, width int) ([]*memory.Run, error) {
		pw, err := newPartitionWriter(g.ctx.Alloc, g.op, keys, part.depth, width)
		if err != nil {
			return nil, err
		}
		rr, err := run.Open()
		if err != nil {
			pw.abandon()
			return nil, err
		}
		return drainToPartitions(pw, rr)
	}
	buildRuns, err := split(part.build, g.spec.info.RightKeys, g.spec.rightWidth)
	if err != nil {
		return err
	}
	probeRuns, err := split(part.probe, g.spec.info.LeftKeys, g.spec.leftWidth)
	if err != nil {
		return err
	}
	g.removePart(part)
	sub := make([]joinPartition, 0, spillFanOut)
	for p := 0; p < spillFanOut; p++ {
		sub = append(sub, joinPartition{build: buildRuns[p], probe: probeRuns[p], depth: part.depth + 1})
	}
	g.parts = append(sub, g.parts...)
	return nil
}

func (g *graceJoinCursor) removePart(part joinPartition) {
	part.build.Remove()
	part.probe.Remove()
}

func (g *graceJoinCursor) fail() {
	g.done = true
	if g.cur != nil {
		g.cur.Close()
		g.cur = nil
	}
	for _, p := range g.parts {
		g.removePart(p)
	}
	g.parts = nil
	g.res.Free()
}

func (g *graceJoinCursor) Close() error {
	if !g.done {
		g.fail()
	}
	return nil
}
