package exec

import (
	"fmt"
	"math"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// Window is the enumerable window operator (§4's window operator: partition,
// order, frame bounds, and the functions to execute on each window). It runs
// columnar, as a chain of sorts through the sort kernel (sortspill.go), so
// oversized inputs spill instead of blowing the query budget: batches are
// tagged with their rows' input position, then for each window group sorted
// on (partition keys, order keys, position) and evaluated one partition at a
// time with incremental frame maintenance (retractable accumulators for
// SUM/COUNT/AVG, a monotonic deque for MIN/MAX, O(n·frame) recompute only for
// the rest). The evaluator sees boxed rows of just the columns the group's
// order keys and calls read; every other column travels as the typed vector
// it arrived in, and the results come back as new vectors beside them. A last
// sort on the position restores the input row order, so the operator's output
// order is identical serial and parallel.
type Window struct {
	*rel.Window
}

// NewWindow creates an enumerable window operator.
func NewWindow(input rel.Node, groups []rel.WindowGroup) *Window {
	return &Window{Window: rel.NewWindowTraits("EnumerableWindow", enumerableTraits(), input, groups)}
}

func (w *Window) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewWindow(inputs[0], w.Groups)
}

func (w *Window) Unwrap() rel.Node { return rel.NewWindow(w.Inputs()[0], w.Groups) }

// BindBatch is the vectorized path: the input subtree stays columnar and the
// window emits columnar batches.
func (w *Window) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, w.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return w.pipe(ctx, in, false)
}

// BindOverPartition runs the window pipeline over one worker's partition
// stream, tagging each row with its global input position (batch Seq,
// physical in-batch index). The output keeps the two hidden position
// columns — the parallel merge-gather above interleaves the workers'
// position-sorted streams on them and strips them itself.
func (w *Window) BindOverPartition(ctx *Context, in schema.BatchCursor) (schema.BatchCursor, error) {
	return w.pipe(ctx, in, true)
}

// withColumns returns b with extra (physically indexed) columns appended.
func withColumns(b *schema.Batch, extra ...*schema.Vector) *schema.Batch {
	vecs := batchVecs(b)
	return &schema.Batch{Len: b.Len, Vecs: append(vecs[:len(vecs):len(vecs)], extra...), Sel: b.Sel, Seq: b.Seq}
}

// WithPositions returns b with its rows' global input position appended as
// two int64 columns, (batch Seq, physical row index): Seqs are globally unique
// and ordered by the serial drain order, and a selection vector's entries are
// the physical indices of the surviving rows, so the pair sorts back to
// exactly the serial row order even after hash exchanges split batches across
// workers.
func WithPositions(b *schema.Batch) *schema.Batch {
	seq, idx := make([]int64, b.Len), make([]int64, b.Len)
	for r := range idx {
		seq[r], idx[r] = b.Seq, int64(r)
	}
	return withColumns(b, &schema.Vector{Kind: schema.VecInt64, I64: seq}, &schema.Vector{Kind: schema.VecInt64, I64: idx})
}

// tagCursor appends the position columns to each input batch: WithPositions
// under a parallel worker, else one running row counter (a serial stream's
// batches need not carry distinct Seqs).
type tagCursor struct {
	in      schema.BatchCursor
	bySeq   bool
	counter int64
	dense   []int32
}

func (c *tagCursor) NextBatch() (*schema.Batch, error) {
	b, err := c.in.NextBatch()
	if err != nil {
		return nil, err
	}
	if c.bySeq {
		return WithPositions(b), nil
	}
	var live []int32
	live, c.dense = liveSel(b, c.dense)
	ord := make([]int64, b.Len)
	for _, r := range live {
		ord[r] = c.counter
		c.counter++
	}
	return withColumns(b, &schema.Vector{Kind: schema.VecInt64, I64: ord}), nil
}

func (c *tagCursor) Close() error { return c.in.Close() }

// ascending is the collation sorting the given columns in ascending order.
func ascending(fields ...int) trait.Collation {
	coll := make(trait.Collation, len(fields))
	for i, f := range fields {
		coll[i] = trait.FieldCollation{Field: f, Direction: trait.Ascending}
	}
	return coll
}

// positionOrder sorts on the npos trailing position columns of width columns.
func positionOrder(width, npos int) trait.Collation {
	if npos == 1 {
		return ascending(width - 1)
	}
	return ascending(width-2, width-1)
}

// pipe chains the per-group sort+evaluate stages and the final position
// sort, every sort through the memory-governed kernel. The final sort
// restores position order; a worker's partitions hold position ranges that
// interleave with other workers', so the parallel path needs it too — the
// merge-gather above can only interleave streams that are each
// position-sorted — and keeps the position columns in its output.
func (w *Window) pipe(ctx *Context, in schema.BatchCursor, parallel bool) (schema.BatchCursor, error) {
	npos, dropTail := 1, 1
	if parallel {
		npos, dropTail = 2, 0
	}
	width := rel.FieldCount(w.Inputs()[0]) + npos
	var cur schema.BatchCursor = &tagCursor{in: in, bySeq: parallel}
	fields := w.RowType().Fields
	for _, g := range w.Groups {
		sorted, err := SortCursor(ctx, "Window", cur, groupCollation(g, width, npos), -1, 0, 0)
		if err != nil {
			return nil, err
		}
		cur = newWindowEval(ctx, sorted, g, fields[width-npos:], npos)
		width += len(g.Calls)
	}
	return SortCursor(ctx, "Window", cur, positionOrder(width, npos), -1, 0, dropTail)
}

// groupCollation orders rows for one window group: partition keys, then the
// group's collation, then the npos trailing position columns — a total order
// on the input, so spilled runs merge back deterministically.
func groupCollation(g rel.WindowGroup, width, npos int) trait.Collation {
	coll := append(ascending(g.PartitionKeys...), g.OrderKeys...)
	return append(coll, positionOrder(width, npos)...)
}

// evalBatch is one sorted input batch waiting for its call results.
type evalBatch struct {
	vecs    []*schema.Vector
	n       int
	results []*schema.Vector // one per call, grown to n as partitions close
	done    int
	bytes   int64
}

// partPiece is a row range of a queued batch belonging to the open partition.
type partPiece struct {
	eb     *evalBatch
	lo, hi int
}

// windowEval evaluates one window group over a stream sorted on the group's
// collation. Partitions are found on the key vectors; a closing partition is
// boxed into rows of only the columns its order keys and calls read, evaluated,
// and its results appended to the result vectors of the batches it spans. A
// batch is emitted — input vectors untouched, result vectors inserted before
// the position tail — once all its rows have results.
type windowEval struct {
	in       schema.BatchCursor
	partKeys trait.Collation
	g        rel.WindowGroup // order keys and calls re-addressed onto the boxed rows
	need     []int           // input column behind each boxed-row slot
	kinds    []schema.VecKind
	tail     int
	res      *memory.Reservation

	queue  []*evalBatch // oldest first; results incomplete from queue[0] on
	open   []partPiece
	inDone bool
	seq    int64
}

// newWindowEval wraps the sorted stream; resFields are the output fields of
// the group's calls and tail the number of trailing position columns.
func newWindowEval(ctx *Context, sorted schema.BatchCursor, g rel.WindowGroup,
	resFields []types.Field, tail int) *windowEval {
	e := &windowEval{in: sorted, partKeys: ascending(g.PartitionKeys...), g: g, tail: tail,
		res: memory.Reserve(ctx.Alloc, "Window")}
	slots := map[int]int{}
	slot := func(c int) int {
		if _, ok := slots[c]; !ok {
			slots[c] = len(e.need)
			e.need = append(e.need, c)
		}
		return slots[c]
	}
	e.g.OrderKeys = make(trait.Collation, len(g.OrderKeys))
	for i, fc := range g.OrderKeys {
		e.g.OrderKeys[i] = trait.FieldCollation{Field: slot(fc.Field), Direction: fc.Direction}
	}
	e.g.Calls = make([]rex.AggCall, len(g.Calls))
	for i, call := range g.Calls {
		args := make([]int, len(call.Args))
		for j, a := range call.Args {
			args[j] = slot(a)
		}
		call.Args = args
		if call.FilterArg >= 0 {
			call.FilterArg = slot(call.FilterArg)
		}
		e.g.Calls[i] = call
		e.kinds = append(e.kinds, schema.VecKindForType(resFields[i].Type))
	}
	return e
}

func (e *windowEval) NextBatch() (*schema.Batch, error) {
	for {
		if len(e.queue) > 0 && e.queue[0].done == e.queue[0].n {
			eb := e.queue[0]
			e.queue = e.queue[1:]
			e.res.Shrink(eb.bytes)
			split := len(eb.vecs) - e.tail
			vecs := append(append(eb.vecs[:split:split], eb.results...), eb.vecs[split:]...)
			e.seq++
			return &schema.Batch{Len: eb.n, Vecs: vecs, Seq: e.seq - 1}, nil
		}
		if e.inDone {
			if len(e.open) == 0 {
				return nil, schema.Done
			}
			if err := e.closePartition(); err != nil {
				return nil, err
			}
			continue
		}
		b, err := e.in.NextBatch()
		if err == schema.Done {
			e.inDone = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := e.enqueue(b.Compact()); err != nil {
			return nil, err
		}
	}
}

// enqueue queues a sorted batch and cuts it into partitions.
func (e *windowEval) enqueue(b *schema.Batch) error {
	eb := &evalBatch{vecs: batchVecs(b), n: b.Len, results: make([]*schema.Vector, len(e.kinds))}
	for i, k := range e.kinds {
		eb.results[i] = &schema.Vector{Kind: k}
	}
	if e.res != nil {
		// The batches a partition spans are its irreducible working set: a
		// partition cannot be evaluated piecewise (frames may span it
		// entirely), so a failing grant only errors when spilling is
		// forbidden; otherwise the batch is accepted untracked.
		eb.bytes = vecsBytes(eb.vecs, nil, eb.n)
		if err := e.res.Grow(eb.bytes); err != nil {
			if !e.res.SpillAllowed() {
				return err
			}
			eb.bytes = 0
		}
	}
	e.queue = append(e.queue, eb)
	start := 0
	for r := 0; r < eb.n; r++ {
		prev, prow := eb.vecs, r-1
		if r == 0 {
			if len(e.open) == 0 {
				continue
			}
			last := e.open[len(e.open)-1]
			prev, prow = last.eb.vecs, last.hi-1
		}
		if compareKeys(e.partKeys, prev, prow, eb.vecs, r) != 0 {
			if r > start {
				e.open = append(e.open, partPiece{eb, start, r})
			}
			if err := e.closePartition(); err != nil {
				return err
			}
			start = r
		}
	}
	e.open = append(e.open, partPiece{eb, start, eb.n})
	return nil
}

// closePartition evaluates the open partition and hands each piece's results
// to its batch.
func (e *windowEval) closePartition() error {
	n, w := 0, len(e.need)
	for _, p := range e.open {
		n += p.hi - p.lo
	}
	flat := make([]any, n*w)
	part := make([][]any, n)
	at := 0
	for _, p := range e.open {
		for k, c := range e.need {
			v := p.eb.vecs[c]
			for r := p.lo; r < p.hi; r++ {
				flat[(at+r-p.lo)*w+k] = v.Get(r)
			}
		}
		at += p.hi - p.lo
	}
	for i := range part {
		part[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	results, err := evalPartition(part, e.g)
	if err != nil {
		return err
	}
	at = 0
	for _, p := range e.open {
		for ci, vals := range results {
			v := p.eb.results[ci]
			for _, x := range vals[at : at+p.hi-p.lo] {
				if !v.AppendValue(x) {
					v.Demote()
					v.AppendValue(x)
				}
			}
		}
		p.eb.done += p.hi - p.lo
		at += p.hi - p.lo
	}
	e.open = e.open[:0]
	return nil
}

func (e *windowEval) Close() error {
	e.queue, e.open = nil, nil
	e.res.Free()
	return e.in.Close()
}

// --- partition evaluation ---

// evalPartition computes every call of one window group over one ordered
// partition, returning one value per row for each call.
func evalPartition(part [][]any, g rel.WindowGroup) ([][]any, error) {
	needBounds := false
	for _, call := range g.Calls {
		if !call.Func.WindowOnly() {
			needBounds = true
		}
	}
	var lo, hi []int
	if needBounds {
		var err error
		lo, hi, err = frameBoundsAll(part, g)
		if err != nil {
			return nil, err
		}
	}
	results := make([][]any, len(g.Calls))
	for ci, call := range g.Calls {
		vals, err := evalCall(part, g, call, lo, hi)
		if err != nil {
			return nil, err
		}
		results[ci] = vals
	}
	return results, nil
}

// evalCall computes one call's value for every row of the partition.
func evalCall(part [][]any, g rel.WindowGroup, call rex.AggCall, lo, hi []int) ([]any, error) {
	n := len(part)
	vals := make([]any, n)
	switch call.Func {
	case rex.AggRowNumber:
		for i := range vals {
			vals[i] = int64(i + 1)
		}
		return vals, nil
	case rex.AggRank, rex.AggDenseRank:
		rank, dense := int64(1), int64(0)
		for i := 0; i < n; i++ {
			if i == 0 || CompareRows(part[i], part[i-1], g.OrderKeys) != 0 {
				rank = int64(i + 1)
				dense++
			}
			if call.Func == rex.AggRank {
				vals[i] = rank
			} else {
				vals[i] = dense
			}
		}
		return vals, nil
	case rex.AggLag, rex.AggLead:
		return evalNavigation(part, call)
	}
	// Frame aggregates: incremental when the call supports it.
	if rex.CanRetract(call) {
		return slideRetract(part, call, lo, hi)
	}
	if !call.Distinct && (call.Func == rex.AggMin || call.Func == rex.AggMax) {
		return slideDeque(part, call, lo, hi), nil
	}
	return recomputeFrames(part, call, lo, hi)
}

// recomputeFrames aggregates every row's frame from scratch, O(n·frame): the
// path of the calls that neither retract nor slide (COLLECT, DISTINCT,
// SINGLE_VALUE).
func recomputeFrames(part [][]any, call rex.AggCall, lo, hi []int) ([]any, error) {
	vals := make([]any, len(part))
	for i := range part {
		acc := rex.NewAccumulator(call)
		for p := lo[i]; p <= hi[i]; p++ {
			if err := acc.Add(part[p]); err != nil {
				return nil, err
			}
		}
		vals[i] = acc.Result()
	}
	return vals, nil
}

// evalNavigation computes LAG/LEAD: the value of args[0] at a row offset
// rows away within the partition (default offset 1), or the default value
// (args[2], NULL if absent) when the target falls outside the partition.
func evalNavigation(part [][]any, call rex.AggCall) ([]any, error) {
	n := len(part)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		off := int64(1)
		if len(call.Args) > 1 {
			v := part[i][call.Args[1]]
			if v == nil {
				vals[i] = nil
				continue
			}
			o, ok := types.AsInt(v)
			if !ok {
				return nil, fmt.Errorf("exec: %s offset must be numeric, got %T", call.Func, v)
			}
			off = o
		}
		var def any
		if len(call.Args) > 2 {
			def = part[i][call.Args[2]]
		}
		j := i - int(off)
		if call.Func == rex.AggLead {
			j = i + int(off)
		}
		if j >= 0 && j < n {
			vals[i] = part[j][call.Args[0]]
		} else {
			vals[i] = def
		}
	}
	return vals, nil
}

// slideRetract evaluates a retractable aggregate over sliding frames in
// O(n): entering rows are added, departing rows retracted. Frame bound
// sequences are nondecreasing (see frameBoundsAll), so both pointers only
// move forward.
func slideRetract(part [][]any, call rex.AggCall, lo, hi []int) ([]any, error) {
	n := len(part)
	vals := make([]any, n)
	acc := rex.NewAccumulator(call).(rex.Retractable)
	curLo, curHi := 0, -1
	for i := 0; i < n; i++ {
		for curHi < hi[i] {
			curHi++
			if err := acc.Add(part[curHi]); err != nil {
				return nil, err
			}
		}
		for curLo < lo[i] {
			if err := acc.Retract(part[curLo]); err != nil {
				return nil, err
			}
			curLo++
		}
		vals[i] = acc.Result()
	}
	return vals, nil
}

// slideDeque evaluates MIN/MAX over sliding frames with a monotonic deque of
// candidate positions: amortized O(1) per row instead of O(frame).
func slideDeque(part [][]any, call rex.AggCall, lo, hi []int) []any {
	n := len(part)
	vals := make([]any, n)
	arg := call.Args[0]
	keep := func(back, v any) bool { // back stays in front of v
		if call.Func == rex.AggMin {
			return types.Compare(back, v) < 0
		}
		return types.Compare(back, v) > 0
	}
	var dq []int
	head := 0
	pushed := -1
	for i := 0; i < n; i++ {
		for pushed < hi[i] {
			pushed++
			row := part[pushed]
			if call.FilterArg >= 0 {
				if pass, _ := row[call.FilterArg].(bool); !pass {
					continue
				}
			}
			v := row[arg]
			if v == nil {
				continue
			}
			for len(dq) > head && !keep(part[dq[len(dq)-1]][arg], v) {
				dq = dq[:len(dq)-1]
			}
			dq = append(dq, pushed)
		}
		for head < len(dq) && dq[head] < lo[i] {
			head++
		}
		if head < len(dq) {
			vals[i] = part[dq[head]][arg]
		}
	}
	return vals
}

// --- frame bounds ---

// frameBoundsAll computes the inclusive [lo[i], hi[i]] frame of every row of
// one ordered partition. RANGE offset bounds are direction-aware — a DESC
// order key measures the offset toward smaller values — and value
// comparisons go through types.AsFloat, so temporal order keys (epoch-millis
// timestamps or time.Time) slide correctly; an order key that is neither
// numeric nor temporal is a clean error rather than a wrong frame. NULL
// order keys frame their peer NULLs. Empty frames are canonicalized to
// lo = hi+1, and both bound sequences are nondecreasing — the invariant the
// incremental evaluators rely on.
func frameBoundsAll(part [][]any, g rel.WindowGroup) (lo, hi []int, err error) {
	n := len(part)
	lo = make([]int, n)
	hi = make([]int, n)
	f := g.Frame
	if f.Rows {
		// Saturate the offsets at the partition size first: an offset past
		// either end behaves as unbounded, and i+offset can no longer
		// overflow int for absurd-but-legal constants like maxint FOLLOWING.
		loOff := clampOffset(f.Lo, n)
		hiOff := clampOffset(f.Hi, n)
		for i := 0; i < n; i++ {
			l := 0
			if !f.LoUnbounded {
				l = clamp(i+loOff, 0, n)
			}
			h := n - 1
			if !f.HiUnbounded {
				h = clamp(i+hiOff, -1, n-1)
			}
			if l > h {
				l = h + 1
			}
			lo[i], hi[i] = l, h
		}
		return lo, hi, nil
	}

	// RANGE without ORDER BY: every row is a peer of every other — the
	// frame is the whole partition.
	if len(g.OrderKeys) == 0 {
		for i := 0; i < n; i++ {
			hi[i] = n - 1
		}
		return lo, hi, nil
	}

	// Peer groups (rows equal under the full collation): the CURRENT ROW
	// bounds of a RANGE frame, and the whole frame of NULL-keyed rows.
	peerStart := make([]int, n)
	peerEnd := make([]int, n)
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || CompareRows(part[i], part[start], g.OrderKeys) != 0 {
			for j := start; j < i; j++ {
				peerStart[j] = start
				peerEnd[j] = i - 1
			}
			start = i
		}
	}
	for i := 0; i < n; i++ {
		switch {
		case f.LoUnbounded:
			lo[i] = 0
		case f.Lo == 0:
			lo[i] = peerStart[i]
		}
		switch {
		case f.HiUnbounded:
			hi[i] = n - 1
		case f.Hi == 0:
			hi[i] = peerEnd[i]
		}
	}
	loOff := !f.LoUnbounded && f.Lo != 0
	hiOff := !f.HiUnbounded && f.Hi != 0
	if loOff || hiOff {
		// Value-based offsets over the (single) order key, folded to a
		// direction-free axis: s = ±value, so "N PRECEDING" is always
		// "s ≥ s_cur − N" regardless of ASC/DESC (bugfix: the ascending-only
		// scan walked the wrong direction under DESC). NULL keys sort to one
		// end (direction-dependent) and become ∓∞ on the axis, which keeps
		// the axis monotone and excludes them from any finite offset bound.
		fc := g.OrderKeys[0]
		sign := 1.0
		nullInf := math.Inf(-1) // ASC: NULLs first
		if fc.Direction == trait.Descending {
			sign = -1.0
			nullInf = math.Inf(1) // DESC: NULLs last
		}
		s := make([]float64, n)
		isNull := make([]bool, n)
		for i, row := range part {
			v := row[fc.Field]
			if v == nil {
				s[i] = nullInf
				isNull[i] = true
				continue
			}
			fv, ok := types.AsFloat(v)
			if !ok {
				return nil, nil, fmt.Errorf("exec: RANGE frame requires a numeric or temporal order key, cannot offset over %T", v)
			}
			s[i] = sign * fv
		}
		loPtr, hiPtr := 0, -1
		for i := 0; i < n; i++ {
			if isNull[i] {
				// NULL is a peer only of NULL: its frame is the NULL run.
				lo[i], hi[i] = peerStart[i], peerEnd[i]
				continue
			}
			if loOff {
				target := s[i] + float64(f.Lo)
				for loPtr < n && s[loPtr] < target {
					loPtr++
				}
				lo[i] = loPtr
			}
			if hiOff {
				limit := s[i] + float64(f.Hi)
				for hiPtr+1 < n && s[hiPtr+1] <= limit {
					hiPtr++
				}
				hi[i] = hiPtr
			}
		}
	}
	for i := 0; i < n; i++ {
		if lo[i] > hi[i] {
			lo[i] = hi[i] + 1
		}
	}
	return lo, hi, nil
}

func clamp(v, min, max int) int {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

// clampOffset saturates a signed row offset at ±n (the partition size).
func clampOffset(v int64, n int) int {
	if v > int64(n) {
		return n
	}
	if v < -int64(n) {
		return -n
	}
	return int(v)
}
