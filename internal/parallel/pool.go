package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// poolIdleTimeout is how long a resident worker lingers waiting for the next
// task before exiting. Long enough to amortize goroutine startup across the
// queries of a busy connection, short enough that idle frameworks shed their
// workers.
const poolIdleTimeout = 250 * time.Millisecond

// Pool is the shared worker pool of a Framework: every parallel query of the
// connection schedules its pipeline-driver tasks here, so concurrent queries
// share one set of resident workers instead of each spawning its own.
//
// Submission never waits for a running task: a task is handed to an idle
// resident worker when one has reported itself idle and started on a fresh
// goroutine otherwise (the worker then lingers briefly as a resident).
// Bounding residency instead of concurrency keeps the pool deadlock-free by
// construction — a task blocked on an exchange channel can never prevent the
// task that would unblock it from starting.
type Pool struct {
	parallelism int
	tasks       chan func() // unbuffered hand-off to idle resident workers
	// idle counts the resident workers that have finished their task and not
	// been claimed since. Go claims one by decrementing it, which obliges some
	// parked (or about to park) worker to receive the task; a worker whose
	// idle window ends leaves only by taking its own count back.
	idle atomic.Int64

	// spawned and handoffs count goroutine starts and resident reuses, for
	// tests and introspection.
	spawned  atomic.Int64
	handoffs atomic.Int64
	// busy counts workers currently inside a task; tasksDone counts
	// completed tasks; morsels counts morsel claims across all dispensers
	// created on this pool. Plain atomics — the metrics registry samples
	// them through function-backed instruments.
	busy      atomic.Int64
	tasksDone atomic.Int64
	morsels   atomic.Int64
}

// NewPool returns a pool whose default degree of parallelism is n (floored
// at 1). The degree is advisory — it sizes partition counts, not a hard cap
// on concurrent goroutines.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{parallelism: n, tasks: make(chan func())}
}

// Parallelism returns the pool's default degree of parallelism.
func (p *Pool) Parallelism() int { return p.parallelism }

// Stats reports how many worker goroutines were spawned and how many tasks
// were handed to an already-resident worker.
func (p *Pool) Stats() (spawned, handoffs int64) {
	return p.spawned.Load(), p.handoffs.Load()
}

// Busy returns the number of workers currently executing a task.
func (p *Pool) Busy() int64 {
	if p == nil {
		return 0
	}
	return p.busy.Load()
}

// TasksDone returns the cumulative count of completed tasks.
func (p *Pool) TasksDone() int64 {
	if p == nil {
		return 0
	}
	return p.tasksDone.Load()
}

// MorselsDispatched returns the cumulative count of morsels claimed by
// workers across every scan driven through this pool.
func (p *Pool) MorselsDispatched() int64 {
	if p == nil {
		return 0
	}
	return p.morsels.Load()
}

// noteMorsel counts one morsel claim (nil-safe: dispensers can be built
// without a pool in tests).
func (p *Pool) noteMorsel() {
	if p == nil {
		return
	}
	p.morsels.Add(1)
}

// claimIdle takes one idle worker's count, reporting false when there is none.
func (p *Pool) claimIdle() bool {
	for n := p.idle.Load(); n > 0; n = p.idle.Load() {
		if p.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
	return false
}

// Go schedules fn without waiting for any running task: an idle resident
// worker takes it, else a fresh goroutine.
func (p *Pool) Go(fn func()) {
	if p.claimIdle() {
		p.tasks <- fn // the claimed worker is at, or a few instructions from, its receive
		p.handoffs.Add(1)
		return
	}
	p.spawned.Add(1)
	go p.worker(fn)
}

// worker runs fn, then lingers as a resident worker for a short idle window.
func (p *Pool) worker(fn func()) {
	for {
		p.busy.Add(1)
		fn()
		p.busy.Add(-1)
		p.tasksDone.Add(1)
		p.idle.Add(1)
		timer := time.NewTimer(poolIdleTimeout)
		select {
		case fn = <-p.tasks:
			timer.Stop()
		case <-timer.C:
			if p.claimIdle() {
				return
			}
			// Every idle count is claimed, this worker's included: a task is
			// on its way.
			fn = <-p.tasks
		}
	}
}

// Run executes fn(0..n-1) concurrently on the pool and waits for all of
// them. The first non-nil error is returned and cancels ctx-aware siblings
// via the returned group context pattern: fn implementations should poll ctx
// between morsels. A nil ctx runs without cancellation.
func (p *Pool) Run(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		p.Go(func() {
			defer wg.Done()
			if err := fn(runCtx, i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				cancel() // tear the sibling workers down
			}
		})
	}
	wg.Wait()
	if first == nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return first
}
