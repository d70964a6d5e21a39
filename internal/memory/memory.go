// Package memory is the framework's memory governor: a per-Framework Pool
// holding the global budget, per-query Allocators that draw grants from it,
// and the spill machinery (temp-file registry plus a batch codec) that lets
// operators overflow to disk instead of failing when their grant is
// exhausted.
//
// The design follows the usual two-level budget scheme of analytic engines:
//
//   - Pool: one per Framework, sized by SetMemoryLimit. Every concurrent
//     query reserves against it, so a burst of heavy queries degrades into
//     spilling (or clean budget errors) instead of an OOM kill.
//   - Allocator: one per query execution, optionally capped below the pool
//     by a per-query limit. It is handed down the operator tree through the
//     execution context; every worker partition of a parallel plan charges
//     the same Allocator, so parallelism does not multiply the budget.
//   - Reservation: one per memory-hungry operator instance. It tags grants
//     with the operator name for the per-operator peak/spill counters that
//     EXPLAIN ANALYZE reports, and releases everything on Free.
//
// All Reservation and Allocator methods are nil-receiver safe: an ungoverned
// query (no limits configured) passes a nil *Allocator down the tree and
// every charge is a no-op, which keeps the operators' fast paths free of
// conditionals.
package memory

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrBudgetExceeded is the sentinel cause of every budget failure. Operators
// that can spill treat it as the signal to overflow to disk; with spilling
// disabled it surfaces to the client wrapped with the operator and sizes.
var ErrBudgetExceeded = errors.New("memory budget exceeded")

// Pool is the framework-wide memory budget shared by all concurrent queries.
// A Pool may also be a child carved from a parent pool (NewChildPool): every
// grant then charges both budgets, which is how the serving tier gives each
// tenant a private cap inside the global budget.
type Pool struct {
	// parent, when set, is charged for every reservation this pool grants,
	// so a child can never exceed the budget it was carved from. Immutable
	// after construction (no lock needed).
	parent *Pool

	mu    sync.Mutex
	limit int64 // <= 0: unlimited
	used  int64

	// Cumulative accounting, kept as plain atomics so this package stays
	// free of observability imports; the metrics registry samples them
	// through function-backed counters at scrape time.
	grantedBytes  atomic.Int64
	deniedBytes   atomic.Int64
	releasedBytes atomic.Int64
	denials       atomic.Int64
	spillEvents   atomic.Int64
	spillBytes    atomic.Int64
	spillFiles    atomic.Int64
}

// NewPool returns a pool with the given byte limit (<= 0 means unlimited).
func NewPool(limit int64) *Pool { return &Pool{limit: limit} }

// NewChildPool carves a sub-budget out of parent: reservations must fit under
// the child's own limit (<= 0: bounded by the parent only) AND succeed against
// the parent, so the sum of all children can never exceed the parent's budget.
// Used by the serving tier for per-tenant budgets — one tenant's spill storm
// exhausts its child pool and degrades that tenant only.
func NewChildPool(parent *Pool, limit int64) *Pool {
	return &Pool{parent: parent, limit: limit}
}

// SetLimit replaces the pool's byte limit (<= 0 means unlimited). Grants
// already outstanding are unaffected.
func (p *Pool) SetLimit(limit int64) {
	p.mu.Lock()
	p.limit = limit
	p.mu.Unlock()
}

// Limit returns the configured byte limit (<= 0 means unlimited).
func (p *Pool) Limit() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.limit
}

// Used returns the bytes currently reserved by all queries.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Reserve charges n bytes against the pool. A nil pool is unlimited. For a
// child pool the grant must also succeed against the parent; a parent denial
// rolls the child's charge back, so the two budgets never drift apart.
func (p *Pool) Reserve(n int64) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.limit > 0 && p.used+n > p.limit {
		p.denials.Add(1)
		p.deniedBytes.Add(n)
		err := fmt.Errorf("%w: pool limit %s, in use %s, requested %s",
			ErrBudgetExceeded, FormatBytes(p.limit), FormatBytes(p.used), FormatBytes(n))
		p.mu.Unlock()
		return err
	}
	p.used += n
	p.mu.Unlock()
	if err := p.parent.Reserve(n); err != nil {
		p.mu.Lock()
		p.used -= n
		if p.used < 0 {
			p.used = 0
		}
		p.mu.Unlock()
		p.denials.Add(1)
		p.deniedBytes.Add(n)
		return err
	}
	p.grantedBytes.Add(n)
	return nil
}

// Release returns n bytes to the pool (and, for a child, to its parent).
func (p *Pool) Release(n int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.used -= n
	if p.used < 0 {
		p.used = 0
	}
	p.mu.Unlock()
	p.parent.Release(n)
	p.releasedBytes.Add(n)
}

// noteSpill accumulates the pool-wide spill totals (and the parent's, so the
// global counters cover every tenant).
func (p *Pool) noteSpill(bytes int64, files, events int) {
	if p == nil {
		return
	}
	p.spillBytes.Add(bytes)
	p.spillFiles.Add(int64(files))
	p.spillEvents.Add(int64(events))
	p.parent.noteSpill(bytes, files, events)
}

// PoolCounters is a point-in-time read of the pool's cumulative accounting.
type PoolCounters struct {
	GrantedBytes  int64
	DeniedBytes   int64
	ReleasedBytes int64
	Denials       int64
	SpillEvents   int64
	SpillBytes    int64
	SpillFiles    int64
}

// Counters returns the cumulative grant/denial/spill totals since the pool
// was created.
func (p *Pool) Counters() PoolCounters {
	if p == nil {
		return PoolCounters{}
	}
	return PoolCounters{
		GrantedBytes:  p.grantedBytes.Load(),
		DeniedBytes:   p.deniedBytes.Load(),
		ReleasedBytes: p.releasedBytes.Load(),
		Denials:       p.denials.Load(),
		SpillEvents:   p.spillEvents.Load(),
		SpillBytes:    p.spillBytes.Load(),
		SpillFiles:    p.spillFiles.Load(),
	}
}

// OpStats are the per-operator memory counters of one query execution,
// surfaced by EXPLAIN ANALYZE.
type OpStats struct {
	Name         string
	PeakBytes    int64
	SpilledBytes int64
	SpillFiles   int
	SpillEvents  int

	cur int64
}

// Allocator is the per-query memory account. It draws grants from the
// framework pool (when one is configured), enforces the optional per-query
// cap, and owns the query's spill directory so that every temp file is
// removed when the query ends — success, error or cancellation alike.
type Allocator struct {
	pool         *Pool
	queryLimit   int64 // <= 0: bounded by the pool only
	spillEnabled bool

	mu      sync.Mutex
	used    int64
	peak    int64
	ops     map[string]*OpStats
	opOrder []string
	dir     string
	nfiles  int
	closed  bool
}

// NewAllocator opens a per-query account against pool (which may be nil)
// with an optional per-query cap. spillEnabled controls whether operators
// may overflow to disk when a grant fails.
func NewAllocator(pool *Pool, queryLimit int64, spillEnabled bool) *Allocator {
	return &Allocator{
		pool:         pool,
		queryLimit:   queryLimit,
		spillEnabled: spillEnabled,
		ops:          map[string]*OpStats{},
	}
}

// SpillAllowed reports whether operators may overflow to disk. A nil
// allocator never spills (it also never fails a grant).
func (a *Allocator) SpillAllowed() bool { return a != nil && a.spillEnabled }

// Used returns the bytes currently granted.
func (a *Allocator) Used() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak returns the high-water mark of granted bytes.
func (a *Allocator) Peak() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

func (a *Allocator) op(name string) *OpStats {
	st, ok := a.ops[name]
	if !ok {
		st = &OpStats{Name: name}
		a.ops[name] = st
		a.opOrder = append(a.opOrder, name)
	}
	return st
}

// grant charges n bytes on behalf of operator op.
func (a *Allocator) grant(op string, n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	a.mu.Lock()
	if a.queryLimit > 0 && a.used+n > a.queryLimit {
		used := a.used
		a.mu.Unlock()
		return fmt.Errorf("%s: %w: query limit %s, in use %s, requested %s",
			op, ErrBudgetExceeded, FormatBytes(a.queryLimit), FormatBytes(used), FormatBytes(n))
	}
	a.mu.Unlock()
	// Pool reservation happens outside the allocator lock: concurrent
	// queries contend on the pool's own mutex only.
	if err := a.pool.Reserve(n); err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	a.mu.Lock()
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	st := a.op(op)
	st.cur += n
	if st.cur > st.PeakBytes {
		st.PeakBytes = st.cur
	}
	a.mu.Unlock()
	return nil
}

// release returns n bytes granted on behalf of operator op.
func (a *Allocator) release(op string, n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.pool.Release(n)
	a.mu.Lock()
	a.used -= n
	if a.used < 0 {
		a.used = 0
	}
	st := a.op(op)
	st.cur -= n
	a.mu.Unlock()
}

// noteSpill records spilled bytes/files for operator op.
func (a *Allocator) noteSpill(op string, bytes int64, files, events int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	st := a.op(op)
	st.SpilledBytes += bytes
	st.SpillFiles += files
	st.SpillEvents += events
	a.mu.Unlock()
	a.pool.noteSpill(bytes, files, events)
}

// Snapshot returns the per-operator counters in first-registration order.
func (a *Allocator) Snapshot() []OpStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]OpStats, 0, len(a.opOrder))
	for _, name := range a.opOrder {
		out = append(out, *a.ops[name])
	}
	return out
}

// Spilled reports the total bytes this query wrote to spill files.
func (a *Allocator) Spilled() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, st := range a.ops {
		n += st.SpilledBytes
	}
	return n
}

// Close ends the query's memory account: every remaining grant is returned
// to the pool and the spill directory (with all temp files in it) is
// removed. It is safe to call more than once and must run on every exit
// path — success, error and cancellation.
func (a *Allocator) Close() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	leak := a.used
	a.used = 0
	dir := a.dir
	a.dir = ""
	a.mu.Unlock()
	a.pool.Release(leak)
	return removeSpillDir(dir)
}

// Reservation is one operator's handle on the query budget: grants are
// accumulated so a single Free returns everything the operator held.
type Reservation struct {
	a    *Allocator
	op   string
	held int64
}

// Reserve opens a reservation tagged with the operator name. A nil
// allocator yields a nil reservation, whose methods are all no-ops that
// always grant.
func Reserve(a *Allocator, op string) *Reservation {
	if a == nil {
		return nil
	}
	return &Reservation{a: a, op: op}
}

// Grow charges n more bytes; on failure the reservation is unchanged.
func (r *Reservation) Grow(n int64) error {
	if r == nil {
		return nil
	}
	if err := r.a.grant(r.op, n); err != nil {
		return err
	}
	r.held += n
	return nil
}

// Shrink returns n bytes (capped at the held amount).
func (r *Reservation) Shrink(n int64) {
	if r == nil {
		return
	}
	if n > r.held {
		n = r.held
	}
	r.a.release(r.op, n)
	r.held -= n
}

// Held returns the bytes currently held by this reservation.
func (r *Reservation) Held() int64 {
	if r == nil {
		return 0
	}
	return r.held
}

// Free returns everything the reservation holds.
func (r *Reservation) Free() {
	if r == nil {
		return
	}
	r.a.release(r.op, r.held)
	r.held = 0
}

// SpillAllowed reports whether the owning allocator permits spilling.
func (r *Reservation) SpillAllowed() bool {
	return r != nil && r.a.SpillAllowed()
}

// NoteSpillEvent counts one spill decision (bytes and file counts are
// recorded by the run writers themselves).
func (r *Reservation) NoteSpillEvent() {
	if r == nil {
		return
	}
	r.a.noteSpill(r.op, 0, 0, 1)
}

// Alloc returns the owning allocator (nil for the no-op reservation).
func (r *Reservation) Alloc() *Allocator {
	if r == nil {
		return nil
	}
	return r.a
}

// Partition routes a canonical key encoding to one of p partitions (FNV-1a):
// exchange routing uses seed 0, and spill partitioning varies the seed
// between Grace-join/aggregation recursion levels so a partition that would
// not subdivide under one hash splits under the next.
func Partition(key []byte, p, seed int) int {
	h := uint32(2166136261) ^ uint32(seed)*0x9e3779b9
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(p))
}

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return strconv.FormatFloat(float64(n)/(1<<30), 'f', 1, 64) + "GiB"
	case n >= 1<<20:
		return strconv.FormatFloat(float64(n)/(1<<20), 'f', 1, 64) + "MiB"
	case n >= 1<<10:
		return strconv.FormatFloat(float64(n)/(1<<10), 'f', 1, 64) + "KiB"
	}
	return strconv.FormatInt(n, 10) + "B"
}

// ParseBytes parses a human byte size: a plain integer (bytes) or an
// integer/decimal with a KB/MB/GB/KiB/MiB/GiB suffix (binary multiples
// either way, matching the shell flag convention).
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("memory: empty size")
	}
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(t, suf.text) {
			mult = suf.mult
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.text))
			break
		}
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("memory: cannot parse size %q", s)
	}
	if f < 0 {
		return 0, fmt.Errorf("memory: negative size %q", s)
	}
	return int64(f * float64(mult)), nil
}
