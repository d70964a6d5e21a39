package parallel

// Exchange plumbing: the operators that move batches between the partitions
// of a parallel plan over channels. Three movement patterns cover every plan
// shape the rewriter produces:
//
//   - gather: p partition streams → one stream, merged back into morsel
//     (Seq) order, so a parallel pipeline drains into exactly the row order
//     the serial engine would have produced. Every pipeline breaker but one
//     finishes serially above a gather: sorts, windows, set operations and
//     the final merge of a parallel aggregate's partial states;
//   - scatter and merge-gather, used only by the keyed TUMBLE/HOP stream
//     aggregate: scatter splits one input into p output partitions by a
//     hash of key columns, and merge-gather merges the p window streams,
//     each sorted on (window start, keys, window end), into one (k-way merge
//     on the collation's key vectors).
//
// Every exchange is context-driven: the first error (or a Close from a
// consumer that has not drained its partition) cancels the exchange context,
// producers and consumers observe it on their next channel operation and
// unwind, and the error surfaces at the consuming cursor as soon as it is
// recorded. A failing worker therefore tears the whole pipeline down cleanly,
// upstream exchanges included: a gather's producer closes the partition it
// was draining, which cancels the scatter that partition reads from.

import (
	"context"
	"errors"
	"sync"

	"calcite/internal/exec"
	"calcite/internal/memory"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// exchChanBuf is the per-partition channel depth: enough to decouple
// producer and consumer scheduling hiccups without buffering the world.
const exchChanBuf = 2

// exchState is the shared control block of one exchange: the cancellation
// context, the first error, and the count of still-open consumer handles.
type exchState struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu   sync.Mutex
	err  error
	open int
}

func newExchState(consumers int) *exchState {
	ctx, cancel := context.WithCancel(context.Background())
	return &exchState{ctx: ctx, cancel: cancel, open: consumers}
}

func (s *exchState) fail(err error) {
	if err == nil || err == schema.Done {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cancel()
}

func (s *exchState) firstErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// errTornDown is what the surviving consumers of an exchange read after a
// sibling closed its partition undrained without recording an error of its
// own: their streams are truncated, which must never look like end-of-stream.
var errTornDown = errors.New("parallel: exchange torn down before its partitions were drained")

// closeOne releases one consumer handle. The last one cancels the exchange so
// producers blocked on sends unwind — and so does any handle closed before
// its partition was drained: that consumer failed or was torn down, nobody
// will read its channel again, and producers parked on it would otherwise
// starve the surviving partitions forever. The consumer's own error reaches
// the query through whatever was reading from it (pump records it before it
// closes the partition); the siblings read errTornDown.
func (s *exchState) closeOne(drained bool) {
	s.mu.Lock()
	s.open--
	last := s.open <= 0
	s.mu.Unlock()
	if !drained {
		s.fail(errTornDown)
	} else if last {
		s.cancel()
	}
}

// send delivers b unless the exchange has been torn down.
func send(st *exchState, ch chan<- *schema.Batch, b *schema.Batch) bool {
	select {
	case ch <- b:
		return true
	case <-st.ctx.Done():
		return false
	}
}

// recv takes the next batch of one partition channel. ok is false when the
// partition has ended or the exchange was torn down; err is the exchange's
// first error, reported as soon as it is recorded rather than after every
// partition has ended.
func recv(st *exchState, ch <-chan *schema.Batch) (b *schema.Batch, ok bool, err error) {
	if st.ctx.Err() == nil {
		select {
		case b, ok = <-ch:
		case <-st.ctx.Done():
		}
	}
	if !ok {
		err = st.firstErr()
	}
	return b, ok, err
}

// pump is the producer loop shared by the gathering exchanges: it drains
// one partition into its channel, detaching each batch (channel buffering
// outlives the producer's ownership window), reporting the first error and
// unwinding on teardown. It closes both the channel and the partition.
func pump(st *exchState, ch chan *schema.Batch, part schema.BatchCursor) {
	defer close(ch)
	defer part.Close()
	for {
		b, err := part.NextBatch()
		if err == schema.Done {
			return
		}
		if err != nil {
			st.fail(err)
			return
		}
		if !send(st, ch, b.Detach()) {
			return
		}
	}
}

// --- gather ---

// gatherCursor merges p partition streams back into Seq order. Each
// partition emits batches with increasing Seq (a consequence of pulling
// morsels from the shared dispenser in claim order), so a k-way merge on the
// stream heads reproduces the global morsel order exactly.
type gatherCursor struct {
	st    *exchState
	chans []chan *schema.Batch
	heads []*schema.Batch
	live  []bool
	done  bool
}

// Gather drains the given partitions concurrently on the pool and returns a
// single cursor over their batches, restored to Seq order.
func Gather(pool *Pool, parts []schema.BatchCursor) schema.BatchCursor {
	st := newExchState(1)
	g := &gatherCursor{
		st:    st,
		chans: make([]chan *schema.Batch, len(parts)),
		heads: make([]*schema.Batch, len(parts)),
		live:  make([]bool, len(parts)),
	}
	for i := range parts {
		ch := make(chan *schema.Batch, exchChanBuf)
		g.chans[i] = ch
		g.live[i] = true
		part := parts[i]
		pool.Go(func() { pump(st, ch, part) })
	}
	return g
}

func (g *gatherCursor) NextBatch() (*schema.Batch, error) {
	if g.done {
		return nil, schema.Done
	}
	// Fill every live head, then emit the smallest Seq (ties by partition
	// index, which makes the merge deterministic even for unset Seqs).
	best := -1
	for i := range g.chans {
		if !g.live[i] {
			continue
		}
		if g.heads[i] == nil {
			b, ok, err := recv(g.st, g.chans[i])
			if err != nil {
				g.done = true
				return nil, err
			}
			if !ok {
				g.live[i] = false
				continue
			}
			g.heads[i] = b
		}
		if best < 0 || g.heads[i].Seq < g.heads[best].Seq {
			best = i
		}
	}
	if best < 0 {
		g.done = true
		return nil, schema.Done
	}
	b := g.heads[best]
	g.heads[best] = nil
	return b, nil
}

func (g *gatherCursor) Close() error {
	g.done = true
	g.st.closeOne(true)
	return nil
}

// --- merge-gather ---

// MergeGather drains p partitions, each sorted on coll, concurrently and
// merges them into one sorted stream with the engine's one merge
// (exec.MergeCursor: batch to batch on the key vectors, ties to the lowest
// partition, typed columns stay typed; batchSize <= 0 is the default size).
// The merge owns each received batch until the output batch that gathers from
// it has been built.
func MergeGather(pool *Pool, parts []schema.BatchCursor, coll trait.Collation, batchSize int) schema.BatchCursor {
	st := newExchState(len(parts))
	srcs := make([]schema.BatchCursor, len(parts))
	for i, part := range parts {
		ch := make(chan *schema.Batch, exchChanBuf)
		srcs[i] = &chanCursor{st: st, ch: ch}
		pool.Go(func() { pump(st, ch, part) })
	}
	return exec.NewMergeCursor(srcs, coll, 0, -1, batchSize, nil)
}

// --- scatter ---

// chanCursor is one output partition of a scatter exchange.
type chanCursor struct {
	st   *exchState
	ch   chan *schema.Batch
	done bool
}

func (c *chanCursor) NextBatch() (*schema.Batch, error) {
	if c.done {
		return nil, schema.Done
	}
	b, ok, err := recv(c.st, c.ch)
	if !ok {
		c.done = true
		if err != nil {
			return nil, err
		}
		return nil, schema.Done
	}
	return b, nil
}

func (c *chanCursor) Close() error {
	c.st.closeOne(c.done)
	c.done = true
	return nil
}

// Scatter repartitions the input partitions into p output partitions: rows
// are split by a hash of the key columns, zero-copy via selection vectors.
// The routing key is the shared canonical encoding (schema.RowKey),
// NULL-inclusive: unlike a join's match key, routing must place NULL keys
// too, so all NULLs of a key land in one partition like any other group.
// Producers run on dedicated goroutines — they only move data, so the pool's
// workers stay available for the compute-heavy consumers downstream.
func Scatter(inParts []schema.BatchCursor, p int, keys []int) []schema.BatchCursor {
	st := newExchState(p)
	outs := make([]chan *schema.Batch, p)
	for i := range outs {
		outs[i] = make(chan *schema.Batch, exchChanBuf)
	}
	var wg sync.WaitGroup
	for _, part := range inParts {
		part := part
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer part.Close()
			var key []byte // routing-key scratch: only the key vectors are read
			for {
				b, err := part.NextBatch()
				if err == schema.Done {
					return
				}
				if err != nil {
					st.fail(err)
					return
				}
				// One selection vector per target partition over the
				// shared columns.
				sels := make([][]int32, p)
				route := func(r int32) {
					key = schema.RowKey(key[:0], b.Vecs, int(r), keys)
					k := memory.Partition(key, p, 0)
					sels[k] = append(sels[k], r)
				}
				if b.Sel != nil {
					for _, r := range b.Sel {
						route(r)
					}
				} else {
					for r := 0; r < b.Len; r++ {
						route(int32(r))
					}
				}
				for i, sel := range sels {
					if len(sel) == 0 {
						continue
					}
					sub := &schema.Batch{Len: b.Len, Vecs: b.Vecs, Sel: sel, Seq: b.Seq}
					if !send(st, outs[i], sub) {
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		for _, ch := range outs {
			close(ch)
		}
	}()
	cursors := make([]schema.BatchCursor, p)
	for i := range cursors {
		cursors[i] = &chanCursor{st: st, ch: outs[i]}
	}
	return cursors
}
