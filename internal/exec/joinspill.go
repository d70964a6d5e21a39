package exec

// Grace/hybrid hash join: the memory-governed join path. The build side is
// drained as typed vectors under a reservation; while it fits, the join is
// the classic in-memory hash join with a streaming probe. When the build
// grant is exhausted mid-drain, the join switches to Grace mode: both sides
// are hash-partitioned to disk as typed pages (the vectors already in memory
// first), and each partition is then joined independently — recursively
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
	// beyond what its vectors hold (map entry, candidate-list slot, key
	// string): a build is charged vecsBytes plus this per row.
	joinRowOverhead = 64
	// residualChunk bounds the candidate pairs a probe gathers for one
	// evaluation of the residual (one probe row's candidates may exceed it).
	residualChunk = 4096
)

// joinSpec carries the static shape of a hash join shared by the in-memory
// and Grace paths.
type joinSpec struct {
	kind       rel.JoinKind
	info       JoinInfo
	leftWidth  int
	rightWidth int
	emitRight  bool
	residual   func(vecs []*schema.Vector, r int) (bool, error)
}

// BindBatch runs the join with a streaming probe: the build (right) side is
// drained into a hash table on the equi keys — with none, every build row is
// a candidate of every probe row — spilling to Grace partitions when the
// memory grant runs out; then probe batches stream through, emitting one
// output batch per probe batch. Unmatched build rows (right/full joins)
// follow after the probe is exhausted.
func (j *HashJoin) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	buildBC, err := BindBatch(ctx, j.Right())
	if err != nil {
		return nil, err
	}
	b, err := NewJoinBuild(ctx, j.Join, j.Info, "HashJoin")
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
	var cur schema.BatchCursor
	if exhausted {
		probeBC, err := bindProbe()
		if err != nil {
			b.Abandon()
			return nil, err
		}
		cur = b.Probes([]schema.BatchCursor{probeBC})[0]
	} else if cur, err = b.Grace(buildBC, bindProbe); err != nil {
		return nil, err
	}
	j.NoteBuildOvershoot(ctx)
	return cur, nil
}

// JoinBuild is the build phase of one hash join execution, shared by the
// serial join (one build partition, one probe) and the parallel one (a Drain
// per build partition on its own worker, a probe cursor per probe partition).
// Build batches are kept as compacted, typed vectors (the intake of sort and
// window) and charged to one reservation; the first denied grant halts every
// Drain and the join finishes on the Grace path — unless the build is
// inMemory.
type JoinBuild struct {
	ctx  *Context
	op   string // reservation and spill-run tag
	spec *joinSpec

	// inMemory builds cannot be split further: a join without equi keys
	// (Grace partitions by key) and a Grace partition at the maximum depth.
	// A denied grant does not halt them; they finish in memory, uncharged
	// from then on, and write no run.
	inMemory bool

	halt atomic.Bool // a grant was denied or a Drain failed: stop draining

	mu        sync.Mutex // guards res, uncharged and chunks across concurrent Drains
	res       *memory.Reservation
	uncharged bool // an inMemory build was denied a grant: charge nothing more
	chunks    []buildChunk

	open atomic.Int32 // probe cursors still reading the table
}

// buildChunk is one build batch's live rows, compacted and typed; its Seq and
// source partition order the chunks as a gather of the partitions would.
type buildChunk struct {
	*schema.Batch
	part int
}

// NewJoinBuild opens the build phase of j, split by info into equi keys and
// residual, charging the context's allocator under the operator tag op.
func NewJoinBuild(ctx *Context, j *rel.Join, info JoinInfo, op string) (*JoinBuild, error) {
	spec := &joinSpec{
		kind:       j.Kind,
		info:       info,
		leftWidth:  rel.FieldCount(j.Left()),
		rightWidth: rel.FieldCount(j.Right()),
		emitRight:  j.Kind != rel.SemiJoin && j.Kind != rel.AntiJoin,
	}
	if info.Residual != nil {
		cond, err := ctx.bindParams(info.Residual)
		if err == nil {
			spec.residual, err = rex.CompileColsBool(cond)
		}
		if err != nil {
			return nil, err
		}
	}
	return &JoinBuild{ctx: ctx, op: op, spec: spec, res: memory.Reserve(ctx.Alloc, op),
		inMemory: len(info.RightKeys) == 0}, nil
}

// Drain buffers the batches of build partition idx until it is exhausted —
// the only case in which Drain closes it — or the build halts: a denied grant
// (of a build that is not inMemory) or an error, here or in a concurrent
// Drain. A halted partition stays open for the Grace path (or the caller's
// cleanup).
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
		live := batch.Compact()
		if live.Len == 0 {
			continue
		}
		c := buildChunk{&schema.Batch{Len: live.Len, Vecs: batchVecs(live), Seq: batch.Seq}, idx}
		b.mu.Lock()
		if !b.uncharged {
			err = b.res.Grow(vecsBytes(c.Vecs, nil, c.Len) + joinRowOverhead*int64(c.Len))
			if err != nil && b.inMemory && b.res.SpillAllowed() {
				b.uncharged, err = true, nil
			}
		}
		// A denied batch stays buffered: the Grace path takes over from the
		// next batch of the build cursor.
		b.chunks = append(b.chunks, c)
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

// takeChunks returns the buffered chunks in the order a gather of the build
// partitions would have delivered them — batch Seq, ties to the lower
// partition, then arrival — so candidate lists match a serial build exactly.
// (A single partition arrives in Seq order already: the sort is the identity.)
func (b *JoinBuild) takeChunks() []buildChunk {
	chunks := b.chunks
	b.chunks = nil
	sort.SliceStable(chunks, func(i, k int) bool {
		if chunks[i].Seq != chunks[k].Seq {
			return chunks[i].Seq < chunks[k].Seq
		}
		return chunks[i].part < chunks[k].part
	})
	return chunks
}

// Probes completes the in-memory build and returns one cursor per probe
// partition over the shared, read-only table. The build's memory is released
// when the last of them finishes.
func (b *JoinBuild) Probes(probes []schema.BatchCursor) []schema.BatchCursor {
	side := newBuildSide(b.spec, b.res, b.takeChunks())
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

// NoteBuildOvershoot reports the build side's actual vs estimated rows to
// the feedback hook; the serial and the parallel join call it once per
// execution, after binding, when the build is fully drained (the Grace path
// drains the rest of the build stream into partitions at bind time). The
// hook (and the estimate, stamped on the build child's span) exists only on
// traced executions with feedback enabled; thresholds live in the feedback
// store.
func (j *HashJoin) NoteBuildOvershoot(ctx *Context) {
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

// buildSide is a completed hash-join build: the build rows, one vector per
// column, and their key index. It is read-only, so any number of probe
// cursors share one.
type buildSide struct {
	vecs  []*schema.Vector
	n     int
	table *joinTable
}

// newBuildSide concatenates the chunks into the build's vectors, settles res
// on what they hold, and indexes them.
func newBuildSide(spec *joinSpec, res *memory.Reservation, chunks []buildChunk) *buildSide {
	s := &buildSide{vecs: make([]*schema.Vector, spec.rightWidth)}
	for _, c := range chunks {
		s.n += c.Len
	}
	for col := range s.vecs {
		v := &schema.Vector{}
		for i, c := range chunks {
			if i == 0 {
				v.Kind = c.Vecs[col].Kind
				v.Grow(s.n)
			}
			v.Append(c.Vecs[col], nil)
		}
		s.vecs[col] = v
	}
	settle(res, vecsBytes(s.vecs, nil, s.n)+joinRowOverhead*int64(s.n))
	s.table = newJoinTable(s.vecs, s.n, spec.info.RightKeys)
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
	pairL    []int32 // scratch: probe row per candidate pair (residual)
	pairR    []int32 // scratch: build row per candidate pair (residual)
	gatherL  []int32 // scratch: probe row per output row
	gatherR  []int32 // scratch: build ordinal per output row (-1 = NULL pad)
	keyBuf   []byte  // composite probe-key encoding scratch
	seq      int64   // sequence number of the unmatched-build tail batch
	tailSent bool
	closed   bool
	done     func()
}

func newHashProbeCursor(spec *joinSpec, build *buildSide, probe schema.BatchCursor, done func()) *hashProbeCursor {
	c := &hashProbeCursor{spec: spec, build: build, probe: probe, done: done}
	if spec.kind == rel.RightJoin || spec.kind == rel.FullJoin {
		c.matched = make([]bool, build.n)
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
			return &schema.Batch{Len: len(ords), Vecs: c.columns(nil, nil, ords, true), Seq: c.seq}, nil
		}
	}
	c.finish()
	return nil, schema.Done
}

// probeBatch joins one probe batch against the table; a nil batch means no
// output rows (caller keeps pulling). The output is recorded as (probe row,
// build ordinal) pairs — a build ordinal of -1 is the outer-join NULL pad —
// and then gathered. A residual is evaluated over the candidate pairs of a
// run of probe rows at a time, gathered as its input rows: a run ends once it
// holds residualChunk pairs, so a join without equi keys, where every build
// row is a candidate, never gathers a whole batch's cross product.
func (c *hashProbeCursor) probeBatch(b *schema.Batch) (*schema.Batch, error) {
	spec := c.spec
	var sel []int32
	sel, c.dense = liveSel(b, c.dense)
	gl, gr := c.gatherL[:0], c.gatherR[:0]
	for len(sel) > 0 {
		run := sel
		var pairs []*schema.Vector // the run's candidate pairs (residual only)
		if spec.residual != nil {
			c.pairL, c.pairR = c.pairL[:0], c.pairR[:0]
			for k, li := range sel {
				if len(c.pairL) >= residualChunk {
					run = sel[:k]
					break
				}
				var cands []int32
				cands, c.keyBuf = c.build.table.probe(b.Vecs, int(li), spec.info.LeftKeys, c.keyBuf)
				for _, ri := range cands {
					c.pairL, c.pairR = append(c.pairL, li), append(c.pairR, ri)
				}
			}
			pairs = c.columns(b, c.pairL, c.pairR, true)
		}
		sel = sel[len(run):]
		p := 0 // the pair of the current probe row's first candidate
		for _, li := range run {
			var cands []int32
			cands, c.keyBuf = c.build.table.probe(b.Vecs, int(li), spec.info.LeftKeys, c.keyBuf)
			matched := false
			for k, ri := range cands {
				if spec.residual != nil {
					ok, err := spec.residual(pairs, p+k)
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
				gl, gr = append(gl, li), append(gr, ri)
			}
			p += len(cands)
			// A semi join emits a matched probe row once; anti, left and full
			// joins an unmatched one.
			switch k := spec.kind; {
			case k == rel.SemiJoin && matched, !matched && (k == rel.AntiJoin || k == rel.LeftJoin || k == rel.FullJoin):
				gl, gr = append(gl, li), append(gr, -1)
			}
		}
	}
	c.gatherL, c.gatherR = gl, gr
	if len(gl) == 0 {
		return nil, nil
	}
	// The output keeps the probe batch's sequence number (a streaming probe
	// is a per-batch operator), which is what lets a gather over partitioned
	// probes restore the serial output order.
	c.seq = b.Seq + 1
	return &schema.Batch{Len: len(gl), Vecs: c.columns(b, gl, gr, spec.emitRight), Seq: b.Seq}, nil
}

// columns gathers rows whole columns at a time, each in the kind its source
// vector has: probe row gl[i] of b (NULL when b is nil) and, with build, build
// row gr[i] (NULL where gr[i] is -1).
func (c *hashProbeCursor) columns(b *schema.Batch, gl, gr []int32, build bool) []*schema.Vector {
	vecs := make([]*schema.Vector, 0, c.spec.leftWidth+c.spec.rightWidth)
	for col := 0; col < c.spec.leftWidth; col++ {
		if b == nil {
			vecs = append(vecs, &schema.Vector{Kind: schema.VecAny, A: make([]any, len(gr))})
		} else {
			vecs = append(vecs, b.Vecs[col].Gather(gl))
		}
	}
	for _, v := range c.build.vecs {
		if build {
			vecs = append(vecs, v.GatherOrd(gr))
		}
	}
	return vecs
}

func (c *hashProbeCursor) Close() error {
	c.finish()
	return nil
}

// --- Grace partitioning ---

// partitionWriter spreads the live rows of batches across the spill
// partitions of one pass, buffering a page per partition between codec
// writes.
type partitionWriter struct {
	writers []*memory.RunWriter
	pages   []*schema.Batch // per partition: the page being filled, or nil
	keys    []int
	seed    int
	sels    [][]int32 // scratch: the rows of the current batch per partition
	dense   []int32
	keyBuf  []byte
}

func newPartitionWriter(alloc *memory.Allocator, op string, keys []int, seed int) (*partitionWriter, error) {
	pw := &partitionWriter{
		writers: make([]*memory.RunWriter, spillFanOut),
		pages:   make([]*schema.Batch, spillFanOut),
		keys:    keys,
		seed:    seed,
		sels:    make([][]int32, spillFanOut),
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

// add routes every live row of b to the partition of its key encoding, and
// writes each page that fills up. Routing is NULL-inclusive: unlike a join's
// match key, partitioning must place NULL-key rows too (outer joins emit
// them).
func (pw *partitionWriter) add(b *schema.Batch) error {
	var sel []int32
	sel, pw.dense = liveSel(b, pw.dense)
	for _, r := range sel {
		pw.keyBuf = schema.RowKey(pw.keyBuf[:0], b.Vecs, int(r), pw.keys)
		p := memory.Partition(pw.keyBuf, spillFanOut, pw.seed)
		pw.sels[p] = append(pw.sels[p], r)
	}
	for p, rows := range pw.sels {
		pw.sels[p] = rows[:0]
		for len(rows) > 0 {
			page := pw.pages[p]
			if page == nil {
				page = &schema.Batch{Vecs: make([]*schema.Vector, len(b.Vecs))}
				for c := range page.Vecs {
					page.Vecs[c] = &schema.Vector{}
				}
				pw.pages[p] = page
			}
			take := rows[:min(len(rows), spillWriteChunk-page.Len)]
			for c, v := range b.Vecs {
				page.Vecs[c].Append(v, take)
			}
			page.Len += len(take)
			rows = rows[len(take):]
			if page.Len == spillWriteChunk {
				if err := pw.flush(p); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (pw *partitionWriter) flush(p int) error {
	if pw.pages[p] == nil {
		return nil
	}
	err := pw.writers[p].WriteBatch(pw.pages[p])
	pw.pages[p] = nil
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
	for {
		b, err := bc.NextBatch()
		if err == schema.Done {
			return pw.finish()
		}
		if err == nil {
			err = pw.add(b)
		}
		if err != nil {
			pw.abandon()
			return nil, err
		}
	}
}

// joinPartition is one pending unit of Grace work: matching build/probe
// runs at a recursion depth.
type joinPartition struct {
	build, probe *memory.Run
	depth        int
}

// Grace finishes a halted build on the Grace path: the buffered chunks, then
// rest — the remainder of the build stream — are partitioned to disk, then
// the probe side, and the returned cursor joins the partitions one at a time.
func (b *JoinBuild) Grace(rest schema.BatchCursor, bindProbe func() (schema.BatchCursor, error)) (_ schema.BatchCursor, err error) {
	ctx, spec, res := b.ctx, b.spec, b.res
	defer func() {
		if err != nil {
			res.Free()
		}
	}()
	res.NoteSpillEvent()
	chunks := b.takeChunks()
	buildPW, err := newPartitionWriter(ctx.Alloc, b.op, spec.info.RightKeys, 0)
	if err != nil {
		rest.Close()
		return nil, err
	}
	for _, c := range chunks {
		if err = buildPW.add(c.Batch); err != nil {
			buildPW.abandon()
			rest.Close()
			return nil, err
		}
	}
	res.Shrink(res.Held())
	buildRuns, err := drainToPartitions(buildPW, rest)
	if err != nil {
		return nil, err
	}
	// Probe side: fully partitioned to disk before any partition is joined.
	probeBC, err := bindProbe()
	if err != nil {
		return nil, err
	}
	probeRuns, err := partitionRuns(ctx.Alloc, b.op, probeBC, spec.info.LeftKeys, 0)
	if err != nil {
		return nil, err
	}
	return &graceJoinCursor{ctx: ctx, op: b.op, spec: spec, res: res, parts: joinParts(buildRuns, probeRuns, 1)}, nil
}

// partitionRuns routes every row of bc (closing it) into the runs of one
// partitioning pass.
func partitionRuns(alloc *memory.Allocator, op string, bc schema.BatchCursor, keys []int, seed int) ([]*memory.Run, error) {
	pw, err := newPartitionWriter(alloc, op, keys, seed)
	if err != nil {
		bc.Close()
		return nil, err
	}
	return drainToPartitions(pw, bc)
}

// joinParts pairs the build and probe runs of one partitioning pass.
func joinParts(build, probe []*memory.Run, depth int) []joinPartition {
	parts := make([]joinPartition, len(build))
	for p := range parts {
		parts[p] = joinPartition{build: build[p], probe: probe[p], depth: depth}
	}
	return parts
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
	// At max depth this key range will not subdivide (skewed keys): it is
	// joined in memory, and the budget becomes best-effort for it.
	build := &JoinBuild{spec: g.spec, res: g.res, inMemory: part.depth >= spillMaxDepth}
	exhausted, err := build.Drain(rr, 0)
	if err == nil && !exhausted {
		rr.Close()
		return g.repartition(part)
	}
	if err != nil {
		rr.Close()
		return err
	}
	probeReader, err := part.probe.Open()
	if err != nil {
		return err
	}
	side := newBuildSide(g.spec, g.res, build.takeChunks())
	held := g.res.Held()
	res := g.res
	g.cur = newHashProbeCursor(g.spec, side, probeReader, func() {
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
	split := func(run *memory.Run, keys []int) ([]*memory.Run, error) {
		rr, err := run.Open()
		if err != nil {
			return nil, err
		}
		return partitionRuns(g.ctx.Alloc, g.op, rr, keys, part.depth)
	}
	buildRuns, err := split(part.build, g.spec.info.RightKeys)
	if err != nil {
		return err
	}
	probeRuns, err := split(part.probe, g.spec.info.LeftKeys)
	if err != nil {
		return err
	}
	g.removePart(part)
	g.parts = append(joinParts(buildRuns, probeRuns, part.depth+1), g.parts...)
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
