package exec

// Spilling for the hash aggregation engine (GroupedAgg, groupkey.go). When a
// grant fails, every group's accumulators are dehydrated
// (rex.DehydrateAccumulator) into plain value rows [key…, state…, (position)]
// and flushed to hash-partitioned spill runs, and the table restarts empty.
// After the input is drained, an engine that never flushed emits straight
// from memory (same first-seen group order as an ungoverned run); one that
// flushed also flushes its tail and then re-reads one partition at a time,
// folding duplicate groups with rex.MergeAccumulators through a nested engine
// in partial-row mode. Partitions that still exceed the grant flush again
// under the next hash seed, mirroring the Grace join.

import (
	"calcite/internal/memory"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// aggGroupOverhead approximates the fixed footprint of one group: map entry,
// key string, accumulator headers.
const aggGroupOverhead = 96

// aggRetainedBytes estimates the bytes a row permanently adds to its
// group's accumulators: value-retaining aggregates (COLLECT, SINGLE_VALUE,
// DISTINCT) hold their argument, everything else only mutates fixed state.
func aggRetainedBytes(calls []rex.AggCall, row []any) int64 {
	var n int64
	for _, c := range calls {
		if len(c.Args) == 0 {
			continue
		}
		if c.Distinct || c.Func == rex.AggCollect || c.Func == rex.AggSingleValue {
			n += types.SizeOfValue(row[c.Args[0]]) + 16
		}
	}
	return n
}

// aggGroupCharge estimates the fixed footprint of creating one group for
// the given row: map entry, canonical key string (keyLen), key values and
// accumulator headers.
func aggGroupCharge(keys []int, calls []rex.AggCall, row []any, keyLen int) int64 {
	charge := aggGroupOverhead + int64(keyLen) + int64(96*len(calls))
	for _, gk := range keys {
		charge += types.SizeOfValue(row[gk])
	}
	return charge
}

// flush dehydrates every in-memory group into the spill partitions, handing
// the group rows over as one batch, and resets the table.
func (g *GroupedAgg) flush() error {
	width := g.stateWidth()
	if g.flushW == nil {
		w, err := newPartitionWriter(g.ctx.Alloc, g.op, g.ident, g.depth)
		if err != nil {
			return err
		}
		g.flushW = w
		g.res.NoteSpillEvent()
	}
	n := len(g.groups)
	b := &schema.Batch{Len: n, Vecs: make([]*schema.Vector, width)}
	for c := range b.Vecs {
		b.Vecs[c] = &schema.Vector{Kind: schema.VecAny, A: make([]any, n)}
	}
	nKeys := len(g.ident)
	for i, gr := range g.groups {
		for k, v := range gr.key {
			b.Vecs[k].A[i] = v
		}
		for ci, acc := range gr.accs {
			st, err := rex.DehydrateAccumulator(acc)
			if err != nil {
				return err
			}
			b.Vecs[nKeys+ci].A[i] = st
		}
		if g.pos {
			b.Vecs[width-2].A[i], b.Vecs[width-1].A[i] = gr.fsSeq, gr.fsIdx
		}
	}
	if err := g.flushW.add(b); err != nil {
		return err
	}
	g.resetTable()
	g.res.Shrink(g.res.Held())
	return nil
}

// Abandon releases the reservation and the open spill writers (error paths).
func (g *GroupedAgg) Abandon() {
	if g.flushW != nil {
		g.flushW.abandon()
		g.flushW = nil
	}
	g.res.Free()
}

// Drain folds every batch of in (closing it) and returns the finished output.
// stop, when non-nil, is polled between batches so a failed sibling worker
// ends this one early.
func (g *GroupedAgg) Drain(in schema.BatchCursor, stop func() error) (schema.BatchCursor, error) {
	defer in.Close()
	fail := func(err error) (schema.BatchCursor, error) {
		g.Abandon()
		return nil, err
	}
	for {
		if stop != nil {
			if err := stop(); err != nil {
				return fail(err)
			}
		}
		b, err := in.NextBatch()
		if err == schema.Done {
			return g.Finish()
		}
		if err != nil {
			return fail(err)
		}
		if err := g.AddBatch(b); err != nil {
			return fail(err)
		}
	}
}

// Finish returns the aggregated output. An engine that never flushed emits
// from memory; a global aggregate over empty input still yields its one row.
// One that flushed spills its tail too and merges partition by partition.
func (g *GroupedAgg) Finish() (schema.BatchCursor, error) {
	if g.flushW == nil {
		if len(g.keys) == 0 && len(g.groups) == 0 {
			g.newGroup(nil, nil)
		}
		out := batchesFromRows(g.rows(), g.outWidth(), g.ctx.batchSize())
		if g.emitStates {
			// The rows carry the live accumulators: stay charged until the
			// next stage has taken them over.
			return &closingBatchCursor{BatchCursor: out, close: g.res.Free}, nil
		}
		g.res.Free()
		return out, nil
	}
	parts, err := g.finishFlush()
	if err != nil {
		g.Abandon()
		return nil, err
	}
	return &spillAggCursor{agg: g, parts: parts}, nil
}

// remerge returns a nested engine that folds the partial rows this engine
// flushed, at the given spill depth, into this engine's output; it shares the
// reservation.
func (g *GroupedAgg) remerge(depth int) *GroupedAgg {
	m := newStateAgg(g.ctx, g.op, len(g.ident), g.calls)
	m.emitStates, m.pos, m.depth, m.res = g.emitStates, g.pos, depth, g.res
	return m
}

// finishFlush spills the tail of a flushed engine and closes its writers,
// returning the partitions to re-merge one level down.
func (g *GroupedAgg) finishFlush() ([]aggPartition, error) {
	if err := g.flush(); err != nil {
		return nil, err
	}
	runs, err := g.flushW.finish()
	g.flushW = nil
	if err != nil {
		return nil, err
	}
	parts := make([]aggPartition, len(runs))
	for i, r := range runs {
		parts[i] = aggPartition{run: r, depth: g.depth + 1}
	}
	return parts, nil
}

// aggPartition is one pending spilled partition.
type aggPartition struct {
	run   *memory.Run
	depth int
}

// spillAggCursor re-reads the partitions a flushed engine spilled, one at a
// time, merging duplicate groups and emitting the engine's output rows.
type spillAggCursor struct {
	agg   *GroupedAgg // the flushed engine: configuration and reservation
	parts []aggPartition
	out   schema.BatchCursor // finished rows of the current partition
	seq   int64
	done  bool
}

func (c *spillAggCursor) NextBatch() (*schema.Batch, error) {
	for !c.done {
		if c.out != nil {
			b, err := c.out.NextBatch()
			if err == nil {
				b.Seq = c.seq
				c.seq++
				return b, nil
			}
			c.out = nil
			c.agg.res.Shrink(c.agg.res.Held())
		}
		if len(c.parts) == 0 {
			break
		}
		part := c.parts[0]
		c.parts = c.parts[1:]
		if err := c.mergePartition(part); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.Close()
	return nil, schema.Done
}

// mergePartition folds one partition's partial rows through a nested engine
// and stages the finished rows; a partition that outgrows the grant is
// re-split under the next seed and queued ahead of the remaining work.
func (c *spillAggCursor) mergePartition(part aggPartition) error {
	defer part.run.Remove()
	if part.run.Rows() == 0 {
		return nil
	}
	merge := c.agg.remerge(part.depth)
	rr, err := part.run.Open()
	if err != nil {
		return err
	}
	defer rr.Close()
	for {
		b, err := rr.NextBatch()
		if err == schema.Done {
			break
		}
		if err == nil {
			err = merge.AddBatch(b)
		}
		if err != nil {
			merge.Abandon()
			return err
		}
	}
	if merge.flushW == nil {
		c.out = batchesFromRows(merge.rows(), merge.outWidth(), c.agg.ctx.batchSize())
		return nil
	}
	sub, err := merge.finishFlush()
	if err != nil {
		merge.Abandon()
		return err
	}
	c.parts = append(sub, c.parts...)
	return nil
}

func (c *spillAggCursor) Close() error {
	if c.done {
		return nil
	}
	c.done = true
	for _, p := range c.parts {
		p.run.Remove()
	}
	c.parts, c.out = nil, nil
	c.agg.res.Free()
	return nil
}
