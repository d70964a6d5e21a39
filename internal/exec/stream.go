package exec

// Vectorized streaming aggregation (§7.2): the physical operator behind
// SELECT STREAM … GROUP BY TUMBLE/HOP/SESSION. Input batches arrive tagged
// with a rowtime column; the operator maintains per-(window, key)
// incremental state on rex.Accumulator, advances a watermark bounded by the
// window's lateness policy, and emits a window's rows exactly once — when
// the watermark passes the window's end (or at end-of-stream).
//
// TUMBLE and HOP share a pane-based design: each row is added to exactly
// one pane (pane length = the hop slide, = the window size for TUMBLE), and
// an emitted HOP window merges its k covering panes into fresh accumulators
// while the panes stay live for the later windows they still cover. A pane
// is retracted — its state dropped and its memory returned — once its last
// covering window has been emitted, so a row is held once, not k times.
// SESSION keeps per-key interval state and coalesces sessions whenever a
// row (or a spilled fragment) bridges two intervals.
//
// Standing state is charged to the memory governor: when a grant fails and
// spilling is allowed, every live pane/session is dehydrated
// (rex.DehydrateAccumulator) into a spill run and the tables restart empty;
// spilled state is folded back (rex.MergeAccumulators) during the final
// drain, trading emission latency for bounded memory.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// ---- stream telemetry (sampled by the obs registry via core) ----

var (
	streamRowsIn         atomic.Int64
	streamWindowsEmitted atomic.Int64
	streamLateDropped    atomic.Int64
	streamWatermarkLag   atomic.Int64
	streamStateBytes     atomic.Int64
	streamEmitObserver   atomic.Value // func(seconds float64)
)

// StreamRowsIn returns the number of stream rows ingested by all streaming
// aggregations since process start.
func StreamRowsIn() int64 { return streamRowsIn.Load() }

// StreamWindowsEmitted returns the number of finished windows emitted.
func StreamWindowsEmitted() int64 { return streamWindowsEmitted.Load() }

// StreamLateDropped returns the number of rows dropped because every window
// containing them had already been emitted.
func StreamLateDropped() int64 { return streamLateDropped.Load() }

// StreamWatermarkLagMs returns how far (ms) the watermark trails the
// freshest observed rowtime — the bounded out-of-orderness currently applied
// by the most recently active streaming aggregation.
func StreamWatermarkLagMs() int64 { return streamWatermarkLag.Load() }

// StreamStateBytes returns the bytes of standing window state currently
// held by live streaming aggregations.
func StreamStateBytes() int64 { return streamStateBytes.Load() }

// SetStreamEmitObserver installs the emission-latency observer (seconds per
// emission round); used by the obs layer's histogram.
func SetStreamEmitObserver(fn func(seconds float64)) { streamEmitObserver.Store(fn) }

func observeStreamEmit(d time.Duration) {
	if fn, ok := streamEmitObserver.Load().(func(float64)); ok && fn != nil {
		fn(d.Seconds())
	}
}

// ---- physical operator ----

// StreamAgg is the enumerable streaming aggregation.
type StreamAgg struct {
	*rel.StreamAggregate
}

// NewStreamAgg creates the physical streaming aggregation.
func NewStreamAgg(input rel.Node, win rel.StreamWindow, latenessMs int64, groupKeys []int, calls []rex.AggCall) *StreamAgg {
	return &StreamAgg{rel.NewStreamAggregateTraits("EnumerableStreamAggregate", enumerableTraits(), input, win, latenessMs, groupKeys, calls)}
}

func (a *StreamAgg) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewStreamAgg(inputs[0], a.Window, a.LatenessMs, a.GroupKeys, a.Calls)
}

func (a *StreamAgg) Unwrap() rel.Node {
	return rel.NewStreamAggregate(a.Inputs()[0], a.Window, a.LatenessMs, a.GroupKeys, a.Calls)
}

func (a *StreamAgg) Bind(ctx *Context) (schema.Cursor, error) {
	bc, err := a.BindBatch(ctx)
	if err != nil {
		return nil, err
	}
	return schema.RowCursorFromBatches(bc), nil
}

func (a *StreamAgg) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, a.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return BindStreamAggOver(ctx, a.StreamAggregate, in)
}

// BindStreamAggOver runs the streaming aggregation over an already-bound
// input; the parallel rewrite uses it to wrap each hash partition.
func BindStreamAggOver(ctx *Context, sa *rel.StreamAggregate, in schema.BatchCursor) (schema.BatchCursor, error) {
	// The state reads a row's rowtime, group keys and call arguments; only
	// those columns are boxed out of each input batch.
	need := append([]int{sa.Window.RowtimeCol}, sa.GroupKeys...)
	for _, call := range sa.Calls {
		need = append(need, call.Args...)
		if call.FilterArg >= 0 {
			need = append(need, call.FilterArg)
		}
	}
	slices.Sort(need)
	return &streamAggCursor{
		st:        newStreamState(ctx, sa),
		in:        in,
		width:     rel.FieldCount(sa.Inputs()[0]),
		need:      slices.Compact(need),
		batch:     ctx.batchSize(),
		interrupt: ctx.Interrupt,
	}, nil
}

// rowtimeMillis coerces a rowtime value to epoch milliseconds.
func rowtimeMillis(v any) (int64, bool) {
	if t, ok := v.(time.Time); ok {
		return t.UnixMilli(), true
	}
	return types.AsInt(v)
}

// floorTo rounds ts down to a multiple of step (toward -inf).
func floorTo(ts, step int64) int64 {
	m := ts % step
	if m < 0 {
		m += step
	}
	return ts - m
}

// ---- standing state ----

type streamGroup struct {
	key  []any
	accs []rex.Accumulator
}

type sessionGroup struct {
	key         []any
	start, last int64
	accs        []rex.Accumulator
	charge      int64
}

// sessionOverhead approximates the interval bookkeeping of one session on
// top of the shared per-group charge.
const sessionOverhead = 32

type streamState struct {
	sa       *rel.StreamAggregate
	res      *memory.Reservation
	alloc    *memory.Allocator
	paneMs   int64
	nKeys    int
	outWidth int

	// TUMBLE/HOP: pane start -> group key -> incremental state.
	panes      map[int64]map[string]*streamGroup
	paneCharge map[int64]int64
	// SESSION: group key -> open sessions.
	sessions map[string][]*sessionGroup

	hasTs       bool
	maxTs       int64
	emittedUpTo int64 // windows ending at or before this are closed
	spilled     bool
	runs        []*memory.Run
}

func newStreamState(ctx *Context, sa *rel.StreamAggregate) *streamState {
	paneMs := sa.Window.SizeMs
	if sa.Window.Kind == rel.HopWindow {
		paneMs = sa.Window.SlideMs
	}
	return &streamState{
		sa:          sa,
		res:         memory.Reserve(ctx.Alloc, "StreamAggregate"),
		alloc:       ctx.Alloc,
		paneMs:      paneMs,
		nKeys:       len(sa.GroupKeys),
		outWidth:    2 + len(sa.GroupKeys) + len(sa.Calls),
		panes:       map[int64]map[string]*streamGroup{},
		paneCharge:  map[int64]int64{},
		sessions:    map[string][]*sessionGroup{},
		emittedUpTo: math.MinInt64,
	}
}

func (s *streamState) watermark() int64 { return s.maxTs - s.sa.LatenessMs }

// isLate reports whether every window containing a row at ts has already
// been emitted.
func (s *streamState) isLate(ts int64) bool {
	if s.sa.Window.Kind == rel.SessionWindow {
		return ts+s.sa.Window.GapMs <= s.emittedUpTo
	}
	// The last window containing ts starts at its pane, ending pane+size.
	return floorTo(ts, s.paneMs)+s.sa.Window.SizeMs <= s.emittedUpTo
}

// add folds one input row into its window state.
func (s *streamState) add(row []any) error {
	tv := row[s.sa.Window.RowtimeCol]
	ts, ok := rowtimeMillis(tv)
	if !ok {
		return fmt.Errorf("exec: stream rowtime column %d holds %T, want a timestamp", s.sa.Window.RowtimeCol, tv)
	}
	streamRowsIn.Add(1)
	if !s.hasTs || ts > s.maxTs {
		s.maxTs, s.hasTs = ts, true
	}
	if s.isLate(ts) {
		streamLateDropped.Add(1)
		return nil
	}
	if s.sa.Window.Kind == rel.SessionWindow {
		return s.addSession(ts, row)
	}
	return s.addPane(ts, row)
}

// growOrFlush charges n bytes, dehydrating all standing state to disk when
// the governor refuses and spilling is allowed (post-flush charges are best
// effort — flushing already freed the memory). Reports whether a flush
// happened, so callers re-create whatever group pointer they held.
func (s *streamState) growOrFlush(n int64) (flushed bool, err error) {
	if err := s.res.Grow(n); err != nil {
		if !s.res.SpillAllowed() {
			return false, err
		}
		if err := s.flushAll(); err != nil {
			return false, err
		}
		_ = s.res.Grow(n) // post-flush best effort
		return true, nil
	}
	return false, nil
}

func (s *streamState) newPaneGroup(p int64, k string, row []any) *streamGroup {
	keyed := s.panes[p]
	if keyed == nil {
		keyed = map[string]*streamGroup{}
		s.panes[p] = keyed
	}
	key := make([]any, s.nKeys)
	for i, gk := range s.sa.GroupKeys {
		key[i] = row[gk]
	}
	accs := make([]rex.Accumulator, len(s.sa.Calls))
	for i, c := range s.sa.Calls {
		accs[i] = rex.NewAccumulator(c)
	}
	g := &streamGroup{key: key, accs: accs}
	keyed[k] = g
	return g
}

func (s *streamState) addPane(ts int64, row []any) error {
	p := floorTo(ts, s.paneMs)
	k := types.HashRowKey(row, s.sa.GroupKeys)
	g := s.panes[p][k]
	if g == nil {
		charge := aggGroupCharge(s.sa.GroupKeys, s.sa.Calls, row, len(k))
		if _, err := s.growOrFlush(charge); err != nil {
			return err
		}
		g = s.newPaneGroup(p, k, row)
		s.paneCharge[p] += charge
	}
	if retained := aggRetainedBytes(s.sa.Calls, row); retained > 0 {
		flushed, err := s.growOrFlush(retained)
		if err != nil {
			return err
		}
		if flushed {
			g = s.newPaneGroup(p, k, row)
		}
		s.paneCharge[p] += retained
	}
	for _, acc := range g.accs {
		if err := acc.Add(row); err != nil {
			return err
		}
	}
	return nil
}

// findSession returns the open session of key k whose interval is within
// the gap of ts.
func (s *streamState) findSession(k string, ts, gap int64) *sessionGroup {
	for _, g := range s.sessions[k] {
		if ts > g.start-gap && ts < g.last+gap {
			return g
		}
	}
	return nil
}

func (s *streamState) newSession(k string, ts int64, row []any, charge int64) *sessionGroup {
	key := make([]any, s.nKeys)
	for i, gk := range s.sa.GroupKeys {
		key[i] = row[gk]
	}
	accs := make([]rex.Accumulator, len(s.sa.Calls))
	for i, c := range s.sa.Calls {
		accs[i] = rex.NewAccumulator(c)
	}
	g := &sessionGroup{key: key, start: ts, last: ts, accs: accs, charge: charge}
	s.sessions[k] = append(s.sessions[k], g)
	return g
}

func (s *streamState) addSession(ts int64, row []any) error {
	k := types.HashRowKey(row, s.sa.GroupKeys)
	gap := s.sa.Window.GapMs
	g := s.findSession(k, ts, gap)
	if g == nil {
		charge := aggGroupCharge(s.sa.GroupKeys, s.sa.Calls, row, len(k)) + sessionOverhead
		if _, err := s.growOrFlush(charge); err != nil {
			return err
		}
		g = s.newSession(k, ts, row, charge)
	}
	if retained := aggRetainedBytes(s.sa.Calls, row); retained > 0 {
		flushed, err := s.growOrFlush(retained)
		if err != nil {
			return err
		}
		if flushed {
			g = s.newSession(k, ts, row, 0)
		}
		g.charge += retained
	}
	if ts < g.start {
		g.start = ts
	}
	if ts > g.last {
		g.last = ts
	}
	for _, acc := range g.accs {
		if err := acc.Add(row); err != nil {
			return err
		}
	}
	return s.coalesceSessions(k, g, gap)
}

// coalesceSessions folds sessions the freshly-extended interval now bridges
// into target.
func (s *streamState) coalesceSessions(k string, target *sessionGroup, gap int64) error {
	list := s.sessions[k]
	keep := list[:0]
	for _, g := range list {
		if g == target || g.start >= target.last+gap || target.start >= g.last+gap {
			keep = append(keep, g)
			continue
		}
		for i := range target.accs {
			if err := rex.MergeAccumulators(target.accs[i], g.accs[i]); err != nil {
				return err
			}
		}
		if g.start < target.start {
			target.start = g.start
		}
		if g.last > target.last {
			target.last = g.last
		}
		target.charge += g.charge
	}
	s.sessions[k] = keep
	return nil
}

// spillWidth is the flattened row width of dehydrated state.
func (s *streamState) spillWidth() int {
	if s.sa.Window.Kind == rel.SessionWindow {
		return 2 + s.nKeys + len(s.sa.Calls) // [start, last, key…, state…]
	}
	return 1 + s.nKeys + len(s.sa.Calls) // [pane, key…, state…]
}

// flushAll dehydrates every pane/session into one spill run and restarts
// the standing state empty; spilled runs fold back during the final drain.
func (s *streamState) flushAll() error {
	w, err := s.alloc.NewRun("StreamAggregate")
	if err != nil {
		return err
	}
	s.res.NoteSpillEvent()
	width := s.spillWidth()
	var buf [][]any
	write := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := w.WriteRows(buf, width); err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}
	stage := func(row []any) error {
		buf = append(buf, row)
		if len(buf) >= spillWriteChunk {
			return write()
		}
		return nil
	}
	dehydrate := func(prefix []any, key []any, accs []rex.Accumulator) error {
		row := make([]any, 0, width)
		row = append(row, prefix...)
		row = append(row, key...)
		for _, acc := range accs {
			st, err := rex.DehydrateAccumulator(acc)
			if err != nil {
				return err
			}
			row = append(row, st)
		}
		return stage(row)
	}
	fail := func(err error) error {
		w.Abandon()
		return err
	}
	if s.sa.Window.Kind == rel.SessionWindow {
		for _, list := range s.sessions {
			for _, g := range list {
				if err := dehydrate([]any{g.start, g.last}, g.key, g.accs); err != nil {
					return fail(err)
				}
			}
		}
		s.sessions = map[string][]*sessionGroup{}
	} else {
		for p, keyed := range s.panes {
			for _, g := range keyed {
				if err := dehydrate([]any{p}, g.key, g.accs); err != nil {
					return fail(err)
				}
			}
		}
		s.panes = map[int64]map[string]*streamGroup{}
		s.paneCharge = map[int64]int64{}
	}
	if err := write(); err != nil {
		return fail(err)
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.spilled = true
	s.res.Shrink(s.res.Held())
	return nil
}

// rehydrate folds every spilled run back into the in-memory state (final
// drain only). Charges are best effort: the merged result set already fit
// on disk, and erroring here would lose the query after it honored its
// budget all along.
func (s *streamState) rehydrate() error {
	runs := s.runs
	s.runs = nil
	fail := func(err error) error {
		for _, r := range runs {
			r.Remove()
		}
		return err
	}
	for len(runs) > 0 {
		run := runs[0]
		runs = runs[1:]
		rr, err := run.Open()
		if err != nil {
			run.Remove()
			return fail(err)
		}
		for {
			b, err := rr.NextBatch()
			if err == schema.Done {
				break
			}
			if err != nil {
				rr.Close()
				run.Remove()
				return fail(err)
			}
			n := b.NumRows()
			for i := 0; i < n; i++ {
				if err := s.foldSpilled(b.Row(i)); err != nil {
					rr.Close()
					run.Remove()
					return fail(err)
				}
			}
		}
		rr.Close()
		run.Remove()
	}
	return nil
}

// foldSpilled merges one dehydrated state row back into the live tables.
func (s *streamState) foldSpilled(row []any) error {
	if s.sa.Window.Kind == rel.SessionWindow {
		start, _ := types.AsInt(row[0])
		last, _ := types.AsInt(row[1])
		key := append([]any(nil), row[2:2+s.nKeys]...)
		accs := make([]rex.Accumulator, len(s.sa.Calls))
		for i, c := range s.sa.Calls {
			acc, err := rex.HydrateAccumulator(c, row[2+s.nKeys+i])
			if err != nil {
				return err
			}
			accs[i] = acc
		}
		keyOrds := make([]int, s.nKeys)
		for i := range keyOrds {
			keyOrds[i] = i
		}
		k := types.HashRowKey(key, keyOrds)
		g := &sessionGroup{key: key, start: start, last: last, accs: accs}
		_ = s.res.Grow(sessionOverhead + types.SizeOfRow(row))
		s.sessions[k] = append(s.sessions[k], g)
		// Fragments of one logical session are always within a gap of each
		// other (the bridging event lives in one of them) — coalescing
		// restores the full session.
		return s.coalesceSessions(k, g, s.sa.Window.GapMs)
	}
	p, _ := types.AsInt(row[0])
	keyOrds := make([]int, s.nKeys)
	for i := range keyOrds {
		keyOrds[i] = i + 1
	}
	k := types.HashRowKey(row, keyOrds)
	g := s.panes[p][k]
	if g == nil {
		key := append([]any(nil), row[1:1+s.nKeys]...)
		accs := make([]rex.Accumulator, len(s.sa.Calls))
		for i, c := range s.sa.Calls {
			acc, err := rex.HydrateAccumulator(c, row[1+s.nKeys+i])
			if err != nil {
				return err
			}
			accs[i] = acc
		}
		keyed := s.panes[p]
		if keyed == nil {
			keyed = map[string]*streamGroup{}
			s.panes[p] = keyed
		}
		keyed[k] = &streamGroup{key: key, accs: accs}
		charge := aggGroupOverhead + int64(len(k)) + types.SizeOfRow(row)
		_ = s.res.Grow(charge)
		s.paneCharge[p] += charge
		return nil
	}
	for i, c := range s.sa.Calls {
		src, err := rex.HydrateAccumulator(c, row[1+s.nKeys+i])
		if err != nil {
			return err
		}
		if err := rex.MergeAccumulators(g.accs[i], src); err != nil {
			return err
		}
	}
	return nil
}

// emitReady returns the rows of every window the watermark has closed (all
// remaining windows when final), in deterministic (window_start, key,
// window_end) order. Once state has spilled, emission defers to the final
// drain where disk and memory state merge — correctness over latency under
// memory pressure.
func (s *streamState) emitReady(final bool) ([][]any, error) {
	if s.spilled && !final {
		return nil, nil
	}
	wm := int64(math.MaxInt64)
	if !final {
		if !s.hasTs {
			return nil, nil
		}
		wm = s.watermark()
	}
	if s.spilled && final {
		if err := s.rehydrate(); err != nil {
			return nil, err
		}
	}
	var rows [][]any
	var err error
	if s.sa.Window.Kind == rel.SessionWindow {
		rows = s.emitSessions(wm)
	} else {
		rows, err = s.emitWindows(wm)
		if err != nil {
			return nil, err
		}
	}
	if len(rows) > 0 {
		sortEmitted(rows, s.nKeys)
		streamWindowsEmitted.Add(int64(len(rows)))
	}
	if wm > s.emittedUpTo {
		s.emittedUpTo = wm
	}
	return rows, nil
}

// emitWindows closes TUMBLE/HOP windows ending at or before wm.
func (s *streamState) emitWindows(wm int64) ([][]any, error) {
	size, slide := s.sa.Window.SizeMs, s.paneMs
	// Candidate window starts come from the live panes: a window with no
	// pane in range has no rows and is never emitted (matching the batch
	// oracle).
	seen := map[int64]bool{}
	var starts []int64
	for p := range s.panes {
		for w := p - size + slide; w <= p; w += slide {
			if w+size <= wm && w+size > s.emittedUpTo && !seen[w] {
				seen[w] = true
				starts = append(starts, w)
			}
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	var rows [][]any
	emitGroup := func(w int64, key []any, accs []rex.Accumulator) {
		row := make([]any, 0, s.outWidth)
		row = append(row, w, w+size)
		row = append(row, key...)
		for _, acc := range accs {
			row = append(row, acc.Result())
		}
		rows = append(rows, row)
	}
	for _, w := range starts {
		if slide == size {
			// TUMBLE: the single covering pane retires with its window —
			// read results straight off the live accumulators.
			for _, g := range s.panes[w] {
				emitGroup(w, g.key, g.accs)
			}
			continue
		}
		// HOP: merge the covering panes [w, w+size) into fresh accumulators;
		// the panes keep their state for the later windows they still cover.
		merged := map[string]*streamGroup{}
		var order []string
		for p := w; p < w+size; p += slide {
			for k, src := range s.panes[p] {
				dst, ok := merged[k]
				if !ok {
					accs := make([]rex.Accumulator, len(s.sa.Calls))
					for i, c := range s.sa.Calls {
						accs[i] = rex.NewAccumulator(c)
					}
					dst = &streamGroup{key: src.key, accs: accs}
					merged[k] = dst
					order = append(order, k)
				}
				for i := range dst.accs {
					if err := rex.MergeAccumulators(dst.accs[i], src.accs[i]); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, k := range order {
			g := merged[k]
			emitGroup(w, g.key, g.accs)
		}
	}
	// Retract expired panes: every window covering them has been emitted.
	for p := range s.panes {
		if p+size <= wm {
			delete(s.panes, p)
			s.res.Shrink(s.paneCharge[p])
			delete(s.paneCharge, p)
		}
	}
	return rows, nil
}

// emitSessions closes sessions whose quiet period has passed the watermark:
// no future row at ts ≥ wm can extend a session with last+gap ≤ wm.
func (s *streamState) emitSessions(wm int64) [][]any {
	gap := s.sa.Window.GapMs
	var rows [][]any
	for k, list := range s.sessions {
		keep := list[:0]
		for _, g := range list {
			if g.last+gap > wm {
				keep = append(keep, g)
				continue
			}
			row := make([]any, 0, s.outWidth)
			row = append(row, g.start, g.last+gap)
			row = append(row, g.key...)
			for _, acc := range g.accs {
				row = append(row, acc.Result())
			}
			rows = append(rows, row)
			s.res.Shrink(g.charge)
		}
		if len(keep) == 0 {
			delete(s.sessions, k)
		} else {
			s.sessions[k] = keep
		}
	}
	return rows
}

// sortEmitted orders one emission round by (window_start, key…,
// window_end) so the output is deterministic at any parallelism.
func sortEmitted(rows [][]any, nKeys int) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if c := types.Compare(a[0], b[0]); c != 0 {
			return c < 0
		}
		for k := 0; k < nKeys; k++ {
			if c := types.Compare(a[2+k], b[2+k]); c != 0 {
				return c < 0
			}
		}
		return types.Compare(a[1], b[1]) < 0
	})
}

// ---- pull cursor ----

type streamAggCursor struct {
	st        *streamState
	in        schema.BatchCursor
	width     int
	need      []int // input columns the state reads
	batch     int
	pending   [][]any
	pos       int
	seq       int64
	scratch   []any
	dense     []int32
	inputDone bool
	closed    bool
	reported  int64 // current contribution to the state-bytes gauge
	interrupt *atomic.Bool
}

func (c *streamAggCursor) NextBatch() (*schema.Batch, error) {
	for {
		if c.interrupt != nil && c.interrupt.Load() {
			// A canceled continuous query releases its standing state at
			// once rather than waiting for the stream to end.
			c.release()
			return nil, ErrCanceled
		}
		if c.pos < len(c.pending) {
			end := c.pos + c.batch
			if end > len(c.pending) {
				end = len(c.pending)
			}
			b := schema.BatchFromRows(c.pending[c.pos:end], c.st.outWidth)
			b.Seq = c.seq
			c.seq++
			c.pos = end
			return b, nil
		}
		c.pending, c.pos = nil, 0
		if c.inputDone || c.closed {
			c.release()
			return nil, schema.Done
		}
		b, err := c.in.NextBatch()
		if err == schema.Done {
			c.inputDone = true
			rows, err := c.emit(true)
			if err != nil {
				c.release()
				return nil, err
			}
			if len(rows) == 0 {
				c.release()
				return nil, schema.Done
			}
			c.pending = rows
			continue
		}
		if err != nil {
			c.release()
			return nil, err
		}
		if c.scratch == nil {
			c.scratch = make([]any, c.width)
		}
		var sel []int32
		sel, c.dense = liveSel(b, c.dense)
		for _, ri := range sel {
			r := int(ri)
			for _, col := range c.need {
				c.scratch[col] = b.Vecs[col].Get(r)
			}
			if err := c.st.add(c.scratch); err != nil {
				c.release()
				return nil, err
			}
		}
		rows, err := c.emit(false)
		if err != nil {
			c.release()
			return nil, err
		}
		c.pending = rows
	}
}

// emit runs one emission round and refreshes the stream gauges.
func (c *streamAggCursor) emit(final bool) ([][]any, error) {
	start := time.Now()
	rows, err := c.st.emitReady(final)
	if err != nil {
		return nil, err
	}
	if len(rows) > 0 {
		observeStreamEmit(time.Since(start))
	}
	if c.st.hasTs {
		streamWatermarkLag.Store(c.st.maxTs - c.st.watermark())
	}
	held := c.st.res.Held()
	streamStateBytes.Add(held - c.reported)
	c.reported = held
	return rows, nil
}

func (c *streamAggCursor) release() {
	if c.closed {
		return
	}
	c.closed = true
	c.in.Close()
	streamStateBytes.Add(-c.reported)
	c.reported = 0
	for _, run := range c.st.runs {
		run.Remove()
	}
	c.st.runs = nil
	c.st.res.Free()
}

func (c *streamAggCursor) Close() error {
	c.release()
	return nil
}
