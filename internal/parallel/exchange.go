package parallel

// Exchange plumbing: the gather, the one operator that moves batches between
// the partitions of a parallel plan. It drains p partition streams into one,
// merged back into morsel (Seq) order, so a parallel pipeline drains into
// exactly the row order the serial engine would have produced. Every
// pipeline breaker finishes serially above a gather: sorts, windows, set
// operations and the final merge of a parallel aggregate's partial states.
// A stream window needs none: it is the serial operator over its stream scan.
//
// A gather is context-driven: the first error, or the consumer's Close,
// cancels its context; the producers observe it on their next send and
// unwind, closing the partitions they drain, and the error surfaces at the
// consuming cursor as soon as it is recorded. A failing worker therefore
// tears the whole pipeline down cleanly, gathers below it included.

import (
	"context"
	"sync"

	"calcite/internal/schema"
)

// exchChanBuf is the per-partition channel depth: enough to decouple
// producer and consumer scheduling hiccups without buffering the world.
const exchChanBuf = 2

// exchState is the shared control block of one gather: the cancellation
// context and the first error.
type exchState struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

func newExchState() *exchState {
	ctx, cancel := context.WithCancel(context.Background())
	return &exchState{ctx: ctx, cancel: cancel}
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

// pump is the producer loop of a gather: it drains
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
	st := newExchState()
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
	g.st.cancel()
	return nil
}
