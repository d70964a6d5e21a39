package exec

// Spilling for the hash aggregation engine (GroupedAgg, groupkey.go). When a
// grant fails, the table — one state batch [key…, state columns…,
// (position)] — is written to hash-partitioned spill runs through the spill
// codec's typed pages, the boxed calls' columns as the value lists their
// accumulators hold, and the table restarts empty. After the input is
// drained, an engine that never flushed emits straight from memory (same
// first-seen group order as an ungoverned run); one that flushed also flushes
// its tail and then re-reads one partition at a time, folding duplicate
// groups with the merge kernels of a nested engine. Partitions that still
// exceed the grant flush again under the next hash seed, mirroring the Grace
// join.

import (
	"calcite/internal/memory"
	"calcite/internal/schema"
)

// flush writes the table to the spill partitions as one state batch and
// resets it.
func (g *GroupedAgg) flush() error {
	if g.flushW == nil {
		w, err := newPartitionWriter(g.ctx.Alloc, g.op, g.ident, g.depth)
		if err != nil {
			return err
		}
		g.flushW = w
		g.res.NoteSpillEvent()
	}
	if err := g.flushW.add(g.stateBatch()); err != nil {
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
		if len(g.keys) == 0 && g.n == 0 {
			g.grow(nil, nil, []int32{0})
			if g.pos {
				w := len(g.state)
				g.state[w-2].I64, g.state[w-1].I64 = []int64{0}, []int64{0}
			}
		}
		out := g.output()
		if g.emitStates {
			// The batches are the table's columns: stay charged until the
			// next stage has folded them.
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

// remerge returns a nested engine that folds the state rows this engine
// flushed, at the given spill depth, into this engine's output; it shares the
// reservation.
func (g *GroupedAgg) remerge(depth int) *GroupedAgg {
	m := &GroupedAgg{ctx: g.ctx, op: g.op, calls: g.calls, ident: make([]int, len(g.ident)), fromStates: true,
		emitStates: g.emitStates, pos: g.pos, depth: depth, res: g.res}
	m.init()
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
// time, merging duplicate groups and emitting the engine's output.
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

// mergePartition folds one partition's state rows through a nested engine
// and stages its output; a partition that outgrows the grant is
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
		c.out = merge.output()
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
