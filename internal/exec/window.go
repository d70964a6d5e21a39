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
// order, frame bounds, and the functions to execute on each window). Each
// window group is sorted once, narrow: the input batches are held in arrival
// order, and the sort kernel (sortspill.go) orders only the columns the group
// reads plus each row's arrival ordinal, on (partition keys, order keys,
// ordinal). Each partition of that sorted stream is boxed into rows of the
// columns its order keys and calls read and evaluated with incremental frame
// maintenance (retractable accumulators for SUM/COUNT/AVG, a monotonic deque
// for MIN/MAX, O(n·frame) recompute only for the rest); the values land in
// typed result vectors at the rows' arrival ordinals. The output is the held
// batches, in arrival order, each with its slice of the result vectors
// appended: no pass-through column is gathered and no second sort restores
// the input order. Held batches are charged with the bytes their results
// will take; from the first denied grant on, input batches go, in order, to a
// spill run and their rows' results to a sorter on the arrival ordinal
// (windowOutput), and the sort kernel spills its narrow rows on its own.
// Parallel plans gather in front of the window.
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

// BindBatch drains the input, sorts and evaluates every group, and returns
// the held batches with their results appended.
func (w *Window) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, w.Inputs()[0])
	if err != nil {
		return nil, err
	}
	out := &windowOutput{res: memory.Reserve(ctx.Alloc, "Window")}
	out.srcs = []*windowSource{{next: out.nextInput}}
	resFields := w.RowType().Fields[rel.FieldCount(w.Inputs()[0]):]
	groups := make([]*windowGroup, len(w.Groups))
	for i, g := range w.Groups {
		groups[i] = newWindowGroup(ctx, g, resFields[:len(g.Calls)])
		resFields = resFields[len(g.Calls):]
		for _, k := range groups[i].kinds {
			v := schema.MakeVector(k, 1) // a string or boxed value by its header
			v.Nulls = []bool{false}
			out.resWidth += vecsBytes([]*schema.Vector{v}, nil, 1)
		}
	}
	err = out.drain(ctx, in, groups)
	in.Close()
	for _, g := range groups {
		if err == nil {
			err = g.eval(ctx, out)
		} else {
			g.sorter.Abandon()
		}
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	return out, nil
}

// ascending is the collation sorting the given columns in ascending order.
func ascending(fields ...int) trait.Collation {
	coll := make(trait.Collation, len(fields))
	for i, f := range fields {
		coll[i] = trait.FieldCollation{Field: f, Direction: trait.Ascending}
	}
	return coll
}

// groupCollation orders rows for one window group: partition keys, then the
// group's collation, then the last of width columns, the arrival ordinal — a
// total order on the input, so spilled runs merge back deterministically.
func groupCollation(g rel.WindowGroup, width int) trait.Collation {
	coll := append(ascending(g.PartitionKeys...), g.OrderKeys...)
	return append(coll, trait.FieldCollation{Field: width - 1, Direction: trait.Ascending})
}

// windowOutput holds the window's input batches in arrival order and emits
// each with its slice of the results appended. Each held batch is charged
// with the bytes its results will take. Up to the first denied grant the
// batches stay in memory and their results go to typed result vectors at the
// rows' arrival ordinals; from then on every batch goes, in order, to one
// spill run, and the results of its rows go, with their ordinals, to a sorter
// per group that restores arrival order, so they are counted and spill too.
type windowOutput struct {
	res      *memory.Reservation
	resWidth int64 // bytes a row's results take
	held     []heldBatch
	m, n     int // rows held in memory; rows in all
	spill    *memory.RunWriter
	run      *memory.Run
	reader   *memory.RunReader
	srcs     []*windowSource // the input, then each group's results
	over     []schema.BatchCursor
	seq      int64
}

type heldBatch struct {
	*schema.Batch
	bytes int64
}

// windowSource is a stream of batches emitted a row range at a time, without
// its first skip columns.
type windowSource struct {
	next func() (*schema.Batch, error)
	skip int
	b    *schema.Batch
	at   int
}

// drain holds every input batch and hands each group's sorter the batch's
// narrow columns and arrival ordinals.
func (o *windowOutput) drain(ctx *Context, in schema.BatchCursor, groups []*windowGroup) error {
	for {
		b, err := in.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			return err
		}
		if b = b.Compact(); b.Len == 0 {
			continue
		}
		vecs := batchVecs(b)
		ord := &schema.Vector{Kind: schema.VecInt64, I64: make([]int64, b.Len)}
		for r := range ord.I64 {
			ord.I64[r] = int64(o.n + r)
		}
		for _, g := range groups {
			if err := g.add(vecs, ord, b.Len); err != nil {
				return err
			}
		}
		if err := o.hold(ctx, &schema.Batch{Len: b.Len, Vecs: vecs}); err != nil {
			return err
		}
	}
	if o.spill == nil {
		return nil
	}
	run, err := o.spill.Finish()
	o.spill, o.run = nil, run
	return err
}

// hold keeps a batch while the budget grants it and its results; from the
// first denied grant on, it and every later batch are written to the spill
// run, which leaves the rest of the budget to the sorters.
func (o *windowOutput) hold(ctx *Context, b *schema.Batch) error {
	o.n += b.Len
	if o.spill == nil {
		bytes := vecsBytes(b.Vecs, nil, b.Len)
		err := o.res.Grow(bytes + int64(b.Len)*o.resWidth)
		if err == nil {
			o.held = append(o.held, heldBatch{b, bytes})
			o.m = o.n
			return nil
		}
		if !o.res.SpillAllowed() {
			return err
		}
		if o.spill, err = ctx.Alloc.NewRun("Window"); err != nil {
			return err
		}
		o.res.NoteSpillEvent()
	}
	return o.spill.WriteBatch(b)
}

// NextBatch emits the next rows of the input with their results, cut where
// any source's batch ends.
func (o *windowOutput) NextBatch() (*schema.Batch, error) {
	k := math.MaxInt
	for _, s := range o.srcs {
		if s.b == nil || s.at == s.b.Len {
			b, err := s.next()
			if err != nil {
				return nil, err
			}
			s.b, s.at = b, 0
		}
		k = min(k, s.b.Len-s.at)
	}
	var vecs []*schema.Vector
	for _, s := range o.srcs {
		for _, v := range s.b.Vecs[s.skip:] {
			vecs = append(vecs, v.Slice(s.at, s.at+k))
		}
		s.at += k
	}
	o.seq++
	return &schema.Batch{Len: k, Vecs: vecs, Seq: o.seq - 1}, nil
}

// nextInput returns the next input batch: the held ones, then the spilled.
func (o *windowOutput) nextInput() (*schema.Batch, error) {
	if len(o.held) > 0 {
		b := o.held[0]
		o.res.Shrink(b.bytes)
		o.held = o.held[1:]
		return b.Batch, nil
	}
	if o.run == nil {
		return nil, schema.Done
	}
	if o.reader == nil {
		var err error
		if o.reader, err = o.run.Open(); err != nil {
			return nil, err
		}
	}
	return o.reader.NextBatch()
}

func (o *windowOutput) Close() error {
	o.held, o.srcs = nil, nil
	for _, c := range o.over {
		c.Close()
	}
	if o.reader != nil {
		o.reader.Close()
	}
	if o.spill != nil {
		o.spill.Abandon()
	}
	if o.run != nil {
		o.run.Remove()
	}
	o.res.Free()
	return nil
}

// windowGroup sorts and evaluates one window group. Its sorter holds narrow
// rows: the input columns behind cols, then the arrival ordinal.
type windowGroup struct {
	g      rel.WindowGroup // keys and calls re-addressed onto the narrow columns
	cols   []int
	nbox   int // leading narrow columns the evaluator reads
	kinds  []schema.VecKind
	sorter *ExternalSorter
	open   []partPiece
	over   *ExternalSorter  // spilled rows' results on their ordinals
	ovf    []*schema.Vector // over's next batch: ordinals, then the calls
	novf   int
}

// partPiece is a row range of a sorted batch belonging to the open partition.
type partPiece struct {
	vecs   []*schema.Vector
	lo, hi int
}

// newWindowGroup lays out the group's narrow columns — those its order keys
// and calls read first, then its other partition keys — and opens its sorter;
// resFields are the output fields of the group's calls.
func newWindowGroup(ctx *Context, g rel.WindowGroup, resFields []types.Field) *windowGroup {
	wg := &windowGroup{g: g}
	slots := map[int]int{}
	slot := func(c int) int {
		if _, ok := slots[c]; !ok {
			slots[c] = len(wg.cols)
			wg.cols = append(wg.cols, c)
		}
		return slots[c]
	}
	wg.g.OrderKeys = make(trait.Collation, len(g.OrderKeys))
	for i, fc := range g.OrderKeys {
		wg.g.OrderKeys[i] = trait.FieldCollation{Field: slot(fc.Field), Direction: fc.Direction}
	}
	wg.g.Calls = make([]rex.AggCall, len(g.Calls))
	for i, call := range g.Calls {
		args := make([]int, len(call.Args))
		for j, a := range call.Args {
			args[j] = slot(a)
		}
		call.Args = args
		if call.FilterArg >= 0 {
			call.FilterArg = slot(call.FilterArg)
		}
		wg.g.Calls[i] = call
		wg.kinds = append(wg.kinds, schema.VecKindForType(resFields[i].Type))
	}
	wg.nbox = len(wg.cols)
	wg.g.PartitionKeys = make([]int, len(g.PartitionKeys))
	for i, k := range g.PartitionKeys {
		wg.g.PartitionKeys[i] = slot(k)
	}
	wg.sorter = NewExternalSorter(ctx, "Window", groupCollation(wg.g, len(wg.cols)+1), -1)
	return wg
}

// add hands the sorter a batch's narrow columns and their arrival ordinals.
func (wg *windowGroup) add(vecs []*schema.Vector, ord *schema.Vector, n int) error {
	narrow := make([]*schema.Vector, len(wg.cols)+1)
	for i, c := range wg.cols {
		narrow[i] = vecs[c]
	}
	narrow[len(wg.cols)] = ord
	return wg.sorter.AddBatch(&schema.Batch{Len: n, Vecs: narrow})
}

// eval reads the sorted narrow rows, cuts them into partitions on the key
// vectors and evaluates each as it closes, appending the group's result
// vectors, and its overflow when rows were spilled, to out. The sorted
// batches a partition spans are charged while it is open.
func (wg *windowGroup) eval(ctx *Context, out *windowOutput) (err error) {
	sorted, err := wg.sorter.Finish(0, ctx.batchSize())
	if err != nil {
		return err
	}
	defer sorted.Close()
	if out.m < out.n {
		wg.over = NewExternalSorter(ctx, "Window", ascending(0), -1)
		defer func() {
			if err != nil {
				wg.over.Abandon()
			}
		}()
	}
	res := make([]*schema.Vector, len(wg.kinds)+1) // res[0]: no ordinals
	for i, k := range wg.kinds {
		res[i+1] = schema.MakeVector(k, out.m) // charged as its rows were held
	}
	src := &windowSource{skip: 1, b: &schema.Batch{Len: out.m, Vecs: res},
		next: schema.NewSliceBatchCursor(nil).NextBatch}
	out.srcs = append(out.srcs, src)
	parts := ascending(wg.g.PartitionKeys...)
	var prev []*schema.Vector // the last row read is prev's row prow
	prow := 0
	var pinned int64 // charged for the batches of the open partition
	defer func() { out.res.Shrink(pinned) }()
	for {
		b, err := sorted.NextBatch()
		if err == schema.Done {
			break
		}
		if err != nil {
			return err
		}
		bytes := vecsBytes(b.Vecs, nil, b.Len)
		if err := out.res.Grow(bytes); err != nil {
			if !out.res.SpillAllowed() {
				return err
			}
			bytes = 0 // used untracked: the open partition cannot spill
		}
		start := 0
		for r := 0; r < b.Len; r++ {
			if prev != nil && compareKeys(parts, prev, prow, b.Vecs, r) != 0 {
				if r > start {
					wg.open = append(wg.open, partPiece{b.Vecs, start, r})
				}
				if err := wg.closePartition(res, out.m, ctx.batchSize()); err != nil {
					return err
				}
				start = r
			}
			prev, prow = b.Vecs, r
		}
		if len(wg.open) == 0 {
			out.res.Shrink(pinned)
			pinned = 0
		}
		wg.open = append(wg.open, partPiece{b.Vecs, start, b.Len})
		pinned += bytes
	}
	// The last partition, empty on an empty input.
	if err := wg.closePartition(res, out.m, ctx.batchSize()); err != nil || wg.over == nil {
		return err
	}
	if err := wg.flushOverflow(); err != nil {
		return err
	}
	in, err := wg.over.Finish(0, ctx.batchSize())
	if err == nil {
		out.over, src.next = append(out.over, in), in.NextBatch
	}
	return err
}

// closePartition boxes the open partition into rows of the columns the
// evaluator reads and evaluates it. A row held in memory (ordinal below m)
// gets its results at its ordinal in res; a spilled one's go to the overflow
// sorter in batches of up to batch rows.
func (wg *windowGroup) closePartition(res []*schema.Vector, m, batch int) error {
	n, w := 0, wg.nbox
	for _, p := range wg.open {
		n += p.hi - p.lo
	}
	flat := make([]any, n*w)
	part := make([][]any, n)
	at := 0
	for _, p := range wg.open {
		for k := 0; k < w; k++ {
			v := p.vecs[k]
			for r := p.lo; r < p.hi; r++ {
				flat[(at+r-p.lo)*w+k] = v.Get(r)
			}
		}
		at += p.hi - p.lo
	}
	for i := range part {
		part[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	results, err := evalPartition(part, wg.g)
	if err != nil {
		return err
	}
	at = 0
	for _, p := range wg.open {
		for _, ord := range p.vecs[len(wg.cols)].I64[p.lo:p.hi] {
			row, to := int(ord), res[1:]
			if row >= m {
				if wg.ovf == nil {
					wg.ovf = []*schema.Vector{schema.MakeVector(schema.VecInt64, batch)}
					for _, k := range wg.kinds {
						wg.ovf = append(wg.ovf, schema.MakeVector(k, batch))
					}
				}
				wg.ovf[0].I64[wg.novf] = ord
				row, to = wg.novf, wg.ovf[1:]
				wg.novf++
			}
			for ci, vals := range results {
				to[ci].Set(row, vals[at])
			}
			at++
			if wg.novf == batch {
				if err := wg.flushOverflow(); err != nil {
					return err
				}
			}
		}
	}
	wg.open = wg.open[:0]
	return nil
}

// flushOverflow hands the overflow sorter the rows gathered so far.
func (wg *windowGroup) flushOverflow() error {
	if wg.novf == 0 {
		return nil
	}
	for i, v := range wg.ovf {
		wg.ovf[i] = v.Slice(0, wg.novf)
	}
	b := &schema.Batch{Len: wg.novf, Vecs: wg.ovf}
	wg.ovf, wg.novf = nil, 0
	return wg.over.AddBatch(b)
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
// timestamps) slide correctly; an order key that is neither numeric nor
// temporal is a clean error rather than a wrong frame. NULL order keys frame
// their peer NULLs. Empty frames are canonicalized to lo = hi+1, and both
// bound sequences are nondecreasing — the invariant the incremental
// evaluators rely on.
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
