package parallel

// Morsel-driven work distribution. A morsel is one batch of a table scan
// (schema.DefaultBatchSize rows by default); instead of statically slicing
// the input per worker, all workers pull morsels from one shared dispenser,
// so fast workers naturally steal work from slow ones (the dynamic load
// balancing of morsel-driven parallelism). Each morsel carries a global
// sequence number, which is what lets the gather exchange reassemble the
// serial row order deterministically.

import (
	"sync"

	"calcite/internal/schema"
)

// dispenser hands the batches of one shared cursor to competing workers.
// MemTable batches are zero-copy slice windows over the pinned columns,
// so the critical section is a few slice-header writes per morsel.
type dispenser struct {
	mu     sync.Mutex
	cur    schema.BatchCursor
	seq    int64
	err    error
	closed bool
	views  int   // open partition views; the last Close closes the cursor
	pool   *Pool // claim counter target; nil in pool-less tests
}

func (d *dispenser) next() (*schema.Batch, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	b, err := d.cur.NextBatch()
	if err != nil {
		d.err = err // Done or a real error: all views see it
		return nil, err
	}
	b.Seq = d.seq
	d.seq++
	d.pool.noteMorsel()
	return b, nil
}

func (d *dispenser) closeView() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.views--
	if d.views == 0 && !d.closed {
		d.closed = true
		return d.cur.Close()
	}
	return nil
}

// dispenserView is one worker's handle onto a shared dispenser.
type dispenserView struct{ d *dispenser }

func (v dispenserView) NextBatch() (*schema.Batch, error) { return v.d.next() }
func (v dispenserView) Close() error                      { return v.d.closeView() }

// MorselsOn splits a batch cursor into p cursors that collectively consume
// it: each NextBatch atomically claims the next morsel, counted in pool's
// dispatch statistics (pool may be nil). The p views together own the
// underlying cursor; it is closed when the last view closes.
func MorselsOn(pool *Pool, cur schema.BatchCursor, p int) []schema.BatchCursor {
	d := &dispenser{cur: cur, views: p, pool: pool}
	out := make([]schema.BatchCursor, p)
	for i := range out {
		out[i] = dispenserView{d}
	}
	return out
}
