package exec

// Vectorized streaming aggregation (§7.2): the physical operator behind
// SELECT STREAM … GROUP BY TUMBLE/HOP/SESSION. It keeps per-(window, key)
// incremental state, advances a watermark bounded by the window's lateness
// policy, and emits a window's rows exactly once — when the watermark passes
// the window's end (or at end-of-stream) — as typed vectors.
//
// TUMBLE/HOP pane state is a GroupedAgg per pane (pane length = the hop
// slide, = the size for TUMBLE) keyed on the group keys: rowtimes are read as
// int64, a batch's non-late rows reach their pane's engine through a
// selection vector, and the engine groups and scatters them into its typed
// state columns, as for any Aggregate. A TUMBLE window reads its pane's
// state; a HOP window folds its covering panes' state batches into a window
// table with the merge kernels. SESSION keeps each key's open sessions under
// the key's encoding (schema.RowKey), each session a group ordinal of one
// engine that its rows scatter into; a row that bridges sessions merges their
// state rows, and a closed session's row is emptied and its ordinal reused
// by the next one.
//
// One streamState holds all of an operator's state and its event-time clock,
// at every parallelism: the input is one stream read in arrival order (the
// watermark trails the freshest rowtime seen), and each batch is folded and
// then closes the windows its watermark has passed, emitted in
// (window_start, key…, window_end) order.
//
// State is charged to the memory governor. A denied grant (spilling allowed)
// moves every pane's or session's state rows into one spill engine — a
// GroupedAgg keyed on (pane | session interval, keys…) with the engine's
// hash-partitioned spill — and the tables restart empty; the spilled state
// batches fold back at the final drain, to which emission defers, trading
// emission latency for bounded memory.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// ---- stream telemetry (sampled by the obs registry via core) ----

var (
	streamRowsIn         atomic.Int64
	streamWindowsEmitted atomic.Int64
	streamLateDropped    atomic.Int64
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

// StreamStateBytes returns the bytes of standing window state currently
// held by live streaming aggregations.
func StreamStateBytes() int64 { return streamStateBytes.Load() }

// SetStreamEmitObserver installs the emission-latency observer (seconds to
// fold an input batch and emit the windows it closes); used by the obs
// layer's histogram.
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

func (a *StreamAgg) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, a.Inputs()[0])
	if err != nil {
		return nil, err
	}
	return &streamAggCursor{st: newStreamState(ctx, a.StreamAggregate), in: in, interrupt: ctx.Interrupt}, nil
}

// rowtimeAt reads row r of the rowtime column as epoch milliseconds: an
// int64 vector (what stream tables store) unboxed, anything else coerced.
func rowtimeAt(v *schema.Vector, r int) (int64, bool) {
	switch {
	case v.Nulls != nil && v.Nulls[r]:
		return 0, false
	case v.Kind == schema.VecInt64:
		return v.I64[r], true
	}
	return types.AsInt(v.Get(r))
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

// streamOp tags the operator's reservations and spill runs.
const streamOp = "StreamAggregate"

// session is one open session of a key: group ord of the sessions' engine.
type session struct {
	ord         int32
	start, last int64
	charge      int64
}

// sessionOverhead approximates the interval bookkeeping of one session on
// top of its state row.
const sessionOverhead = 32

// paneRows is the selection of one batch's rows that fall in one pane.
type paneRows struct {
	pane int64
	sel  []int32
}

type streamState struct {
	ctx    *Context
	sa     *rel.StreamAggregate
	shape  *Aggregate // the group keys and calls over the stream's rows
	paneMs int64
	nKeys  int
	// The group keys ascending: the emission order within a window.
	keyColl trait.Collation

	// TUMBLE/HOP: pane start -> the pane's partial aggregation.
	panes  map[int64]*GroupedAgg
	routed []paneRows // per-batch routing scratch
	// HOP: the window table the covering panes fold into, and the window
	// each of its groups last served.
	hop    *GroupedAgg
	hopAt  []int64
	hopSel []int32
	// The emission round being built: one window's (or the sessions') rows,
	// their sort keys and radix scratch, and the output columns.
	rows      []emitted
	ords, buf []sortKey
	out       []*schema.Vector
	// SESSION: the engine whose groups are the sessions (it keeps no key
	// index) and whose reservation they charge, the ordinals of closed
	// sessions, and each present key's open sessions by its encoding
	// (schema.RowKey).
	adds       *GroupedAgg
	closed     []int32
	sessions   map[string][]*session
	keyBuf     []byte
	sel1, ord1 [1]int32

	// spill holds evicted state keyed on (pane | start, last, keys…); nil
	// until the first eviction, and emission waits for the final drain
	// while it is set.
	spill *GroupedAgg

	hasTs       bool
	maxTs       int64 // the freshest rowtime seen: the watermark trails it
	emittedUpTo int64 // windows ending at or before this are closed
}

func newStreamState(ctx *Context, sa *rel.StreamAggregate) *streamState {
	s := &streamState{ctx: ctx, sa: sa, shape: NewAggregate(sa.Inputs()[0], sa.GroupKeys, sa.Calls),
		nKeys: len(sa.GroupKeys), paneMs: sa.Window.SizeMs, panes: map[int64]*GroupedAgg{}, emittedUpTo: math.MinInt64}
	for k := range sa.GroupKeys {
		s.keyColl = append(s.keyColl, trait.FieldCollation{Field: k})
	}
	switch sa.Window.Kind {
	case rel.HopWindow:
		s.paneMs = sa.Window.SlideMs
	case rel.SessionWindow:
		s.adds = NewGroupedAgg(ctx, streamOp, s.shape, AggComplete)
		s.adds.evict = s.evict
		s.sessions = map[string][]*session{}
	}
	return s
}

// isLate reports whether every window containing a row at ts has already
// been emitted.
func (s *streamState) isLate(ts int64) bool {
	if s.sa.Window.Kind == rel.SessionWindow {
		return ts+s.sa.Window.GapMs <= s.emittedUpTo
	}
	// The last window containing ts starts at its pane, ending pane+size.
	return floorTo(ts, s.paneMs)+s.sa.Window.SizeMs <= s.emittedUpTo
}

// observe reads row r's rowtime, advances the freshest rowtime seen and
// reports whether the row is late.
func (s *streamState) observe(rt *schema.Vector, r int) (ts int64, late bool, err error) {
	ts, ok := rowtimeAt(rt, r)
	if !ok {
		return 0, false, fmt.Errorf("exec: stream rowtime column %d holds %T, want a timestamp", s.sa.Window.RowtimeCol, rt.Get(r))
	}
	if !s.hasTs || ts > s.maxTs {
		s.maxTs, s.hasTs = ts, true
	}
	return ts, s.isLate(ts), nil
}

// addBatch folds the live rows sel of b into their windows' state; the
// stream counters move once per batch.
func (s *streamState) addBatch(b *schema.Batch, sel []int32) error {
	add := s.addPanes
	if s.adds != nil {
		add = s.addSessions
	}
	late, err := add(b, sel)
	if err != nil {
		return err
	}
	streamRowsIn.Add(int64(len(sel)))
	streamLateDropped.Add(int64(late))
	return nil
}

// addPanes routes each non-late row to its pane and feeds every pane its
// rows as one selection over the batch.
func (s *streamState) addPanes(b *schema.Batch, sel []int32) (late int, err error) {
	rt := b.Vecs[s.sa.Window.RowtimeCol]
	routed, at := s.routed[:0], -1
	for _, ri := range sel {
		ts, isLate, err := s.observe(rt, int(ri))
		if err != nil {
			return 0, err
		}
		if isLate {
			late++
			continue
		}
		p := floorTo(ts, s.paneMs)
		if at < 0 || routed[at].pane != p {
			if at = slices.IndexFunc(routed, func(pr paneRows) bool { return pr.pane == p }); at < 0 {
				at, routed = len(routed), append(routed, paneRows{pane: p})
			}
		}
		routed[at].sel = append(routed[at].sel, ri)
	}
	s.routed = routed
	for _, pr := range routed {
		e := s.panes[pr.pane]
		if e == nil {
			e = NewGroupedAgg(s.ctx, streamOp, s.shape, AggComplete)
			e.evict = s.evict
			s.panes[pr.pane] = e
		}
		if err := e.AddBatch(&schema.Batch{Len: b.Len, Vecs: b.Vecs, Sel: pr.sel, Seq: b.Seq}); err != nil {
			return 0, err
		}
	}
	return late, nil
}

// addSessions extends, opens and coalesces sessions row by row, scattering
// each row into its session's state; map reads on string(keyBuf) do not
// allocate, writes only when a key's list changes length. Sessions charge the
// adds engine, whose denied grants evict them all.
func (s *streamState) addSessions(b *schema.Batch, sel []int32) (late int, err error) {
	rt := b.Vecs[s.sa.Window.RowtimeCol]
	e := s.adds
	gap := s.sa.Window.GapMs
	for _, ri := range sel {
		r := int(ri)
		ts, isLate, err := s.observe(rt, r)
		if err != nil {
			return 0, err
		}
		if isLate {
			late++
			continue
		}
		s.keyBuf = schema.RowKey(s.keyBuf[:0], b.Vecs, r, s.sa.GroupKeys)
		list := s.sessions[string(s.keyBuf)]
		g := findSession(list, ts, gap)
		var charge int64
		if g == nil {
			charge = int64(16*len(e.state)+len(s.keyBuf)) + sessionOverhead
			g = &session{ord: s.openSession(b.Vecs, s.sa.GroupKeys, r), start: ts, last: ts}
			list = append(list, g)
			s.sessions[string(s.keyBuf)] = list
		}
		g.start, g.last = min(g.start, ts), max(g.last, ts)
		held := e.extra
		s.sel1[0], s.ord1[0] = ri, g.ord
		if err := e.scatter(b, s.sel1[:], s.ord1[:]); err != nil {
			return 0, err
		}
		charge += e.extra - held
		g.charge += charge
		if kept, err := s.coalesce(list, g); err != nil {
			return 0, err
		} else if len(kept) < len(list) {
			s.sessions[string(s.keyBuf)] = kept
		}
		// Charged once the row is in: an eviction moves it to disk with its
		// session.
		if err := e.charge(charge); err != nil {
			return 0, err
		}
	}
	return late, nil
}

// openSession enters a session keyed on row r of the key columns cols of
// vecs: a closed session's ordinal, emptied, or a new one.
func (s *streamState) openSession(vecs []*schema.Vector, cols []int, r int) int32 {
	e := s.adds
	if n := len(s.closed); n > 0 {
		o := s.closed[n-1]
		s.closed = s.closed[:n-1]
		for k, c := range cols {
			e.state[k].Set(int(o), vecs[c].Get(r))
		}
		e.resetRow(o)
		return o
	}
	s.sel1[0] = int32(r)
	e.grow(vecs, cols, s.sel1[:])
	return int32(e.n - 1)
}

// findSession returns the session of list whose interval is within the gap
// of ts.
func findSession(list []*session, ts, gap int64) *session {
	for _, g := range list {
		if ts > g.start-gap && ts < g.last+gap {
			return g
		}
	}
	return nil
}

// coalesce folds the sessions of one key's list that the freshly-extended
// interval of target now bridges into target, in place, and returns the
// sessions kept.
func (s *streamState) coalesce(list []*session, target *session) ([]*session, error) {
	gap := s.sa.Window.GapMs
	keep := list[:0]
	for _, g := range list {
		if g == target || g.start >= target.last+gap || target.start >= g.last+gap {
			keep = append(keep, g)
			continue
		}
		if err := s.adds.mergeRow(target.ord, g.ord); err != nil {
			return nil, err
		}
		s.adds.dropRow(g.ord)
		s.closed = append(s.closed, g.ord)
		target.start, target.last = min(target.start, g.start), max(target.last, g.last)
		target.charge += g.charge
	}
	clear(list[len(keep):])
	return keep, nil
}

// evict moves every pane's state rows (or every open session's) into the
// spill engine, keyed on (pane | start, last, keys…), and flushes it to disk:
// the tables restart empty and emission waits for the final drain.
func (s *streamState) evict() error {
	if s.spill == nil {
		prefix := 1
		if s.adds != nil {
			prefix = 2
		}
		s.spill = newStateAgg(s.ctx, streamOp, prefix+s.nKeys, s.sa.Calls)
		s.spill.res = memory.Reserve(s.ctx.Alloc, streamOp)
	}
	if e := s.adds; e != nil && e.n > 0 {
		start, last := make([]int64, e.n), make([]int64, e.n)
		var live []int32
		for _, list := range s.sessions {
			for _, g := range list {
				start[g.ord], last[g.ord] = g.start, g.last
				live = append(live, g.ord)
			}
		}
		vecs := append([]*schema.Vector{{Kind: schema.VecInt64, I64: start}, {Kind: schema.VecInt64, I64: last}}, e.stateBatch().Vecs...)
		if err := s.spill.AddBatch(&schema.Batch{Len: e.n, Vecs: vecs, Sel: live}); err != nil {
			return err
		}
		clear(s.sessions)
		e.resetTable()
		s.closed = s.closed[:0]
	}
	for p, e := range s.panes {
		if e.n > 0 {
			pane := &schema.Vector{Kind: schema.VecInt64, I64: make([]int64, e.n)}
			for i := range pane.I64 {
				pane.I64[i] = p
			}
			if err := s.spill.AddBatch(&schema.Batch{Len: e.n, Vecs: append([]*schema.Vector{pane}, e.stateBatch().Vecs...)}); err != nil {
				return err
			}
		}
		e.resetTable()
	}
	for _, e := range s.engines() {
		if e != s.spill {
			e.res.Shrink(e.res.Held())
		}
	}
	if s.spill.n == 0 {
		return nil
	}
	return s.spill.flush()
}

// unspill folds the spilled state back into the tables (final drain only):
// everything still in memory is evicted too, the spill engine merges its
// partitions, and panes and sessions are rebuilt uncharged — the merged
// state already fit on disk, and failing here would lose a query that
// honored its budget all along.
func (s *streamState) unspill() error {
	bySession, prefix := s.adds != nil, len(s.spill.ident)-s.nKeys
	keyCols := s.spill.ident[prefix:]
	if err := s.evict(); err != nil {
		return err
	}
	s.panes = map[int64]*GroupedAgg{} // the evicted engines are empty
	out, err := s.spill.Finish()
	s.spill = nil
	if err != nil {
		return err
	}
	defer out.Close()
	for {
		b, err := out.NextBatch()
		if err == schema.Done {
			return nil
		}
		if err != nil {
			return err
		}
		if !bySession {
			panes := map[int64][]int32{}
			for i, p := range b.Vecs[0].I64 {
				panes[p] = append(panes[p], int32(i))
			}
			for p, sel := range panes {
				e := s.panes[p]
				if e == nil {
					e = newStateAgg(s.ctx, streamOp, s.nKeys, s.sa.Calls)
					s.panes[p] = e
				}
				if err := e.AddBatch(&schema.Batch{Len: b.Len, Vecs: b.Vecs[1:], Sel: sel}); err != nil {
					return err
				}
			}
			continue
		}
		for i := 0; i < b.Len; i++ {
			g := &session{ord: s.openSession(b.Vecs, keyCols, i), start: b.Vecs[0].I64[i], last: b.Vecs[1].I64[i]}
			s.sel1[0], s.ord1[0] = int32(i), g.ord
			if err := s.adds.merge(b.Vecs[prefix:], s.sel1[:], s.ord1[:]); err != nil {
				return err
			}
			// Fragments of one logical session are always within a gap of
			// each other (the bridging event lives in one of them) —
			// coalescing restores the full session.
			k := string(schema.RowKey(s.keyBuf[:0], b.Vecs, i, keyCols))
			if s.sessions[k], err = s.coalesce(append(s.sessions[k], g), g); err != nil {
				return err
			}
		}
	}
}

// emitted is one finished window of one group.
type emitted struct {
	start, end int64
	e          *GroupedAgg
	o          int32
}

// emitReady returns every window the watermark has closed (every remaining
// window when final) as one batch in (window_start, key…, window_end) order,
// or nil. Once state has spilled, emission defers to the final drain, where
// disk and memory state merge — correctness over latency under memory
// pressure.
func (s *streamState) emitReady(final bool) (*schema.Batch, error) {
	wm := int64(math.MaxInt64)
	if !final {
		if !s.hasTs || s.spill != nil {
			return nil, nil
		}
		wm = s.maxTs - s.sa.LatenessMs
	}
	if s.spill != nil {
		if err := s.unspill(); err != nil {
			return nil, err
		}
	}
	s.out = nil
	if s.adds != nil {
		s.emitSessions(wm)
	} else if err := s.emitWindows(wm); err != nil {
		return nil, err
	}
	s.emittedUpTo = max(s.emittedUpTo, wm)
	if s.out == nil {
		return nil, nil
	}
	return &schema.Batch{Len: s.out[0].Len(), Vecs: s.out}, nil
}

// emitWindows closes TUMBLE/HOP windows ending at or before wm and retires
// the panes no open window covers.
func (s *streamState) emitWindows(wm int64) error {
	size, slide := s.sa.Window.SizeMs, s.paneMs
	// Candidate window starts come from the live panes: a window with no
	// pane in range has no rows and is never emitted (matching the batch
	// oracle).
	var starts []int64
	for p := range s.panes {
		for w := p - size + slide; w <= p; w += slide {
			if w+size <= wm && w+size > s.emittedUpTo {
				starts = append(starts, w)
			}
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	for i, w := range starts {
		rows := s.rows[:0]
		if slide == size {
			e := s.panes[w] // TUMBLE: the window's one pane
			for o := range e.n {
				rows = append(rows, emitted{w, w + size, e, int32(o)})
			}
		} else if err := s.mergeHop(w, &rows); err != nil {
			return err
		}
		s.rows = rows
		s.orderWindow(rows)
		s.appendRows(rows, len(rows)*(len(starts)-i))
	}
	// Retire expired panes: every window covering them has been emitted.
	for p, e := range s.panes {
		if p+size <= wm {
			e.res.Free()
			delete(s.panes, p)
		}
	}
	return nil
}

// mergeHop folds the state batches of the panes covering HOP window [w,
// w+size) into the window table and appends its groups to rows; the panes
// keep their state for the later windows they cover. The table outlives the
// window — a key's state row is emptied when it first reappears in a later
// window — so windows allocate no state for the keys they share.
func (s *streamState) mergeHop(w int64, rows *[]emitted) error {
	if s.hop == nil {
		s.hop, s.hopAt = newStateAgg(s.ctx, streamOp, s.nKeys, s.sa.Calls), nil
	}
	m, size := s.hop, s.sa.Window.SizeMs
	for p := w; p < w+size; p += s.paneMs {
		e := s.panes[p]
		if e == nil || e.n == 0 {
			continue
		}
		states := e.stateBatch()
		s.hopSel = iotaSel(s.hopSel, e.n)
		ords := m.ordinals(states, s.hopSel)
		for len(s.hopAt) < m.n {
			s.hopAt = append(s.hopAt, math.MinInt64)
		}
		for _, o := range ords {
			if s.hopAt[o] != w {
				s.hopAt[o] = w
				m.resetRow(o)
				*rows = append(*rows, emitted{w, w + size, m, o})
			}
		}
		if err := m.merge(states.Vecs, s.hopSel, ords); err != nil {
			return err
		}
	}
	// The table is uncharged, like the rows being emitted: keep it no larger
	// than twice this window's keys, so keys that left the stream go once
	// they outnumber the live ones.
	if 2*len(*rows) < m.n {
		s.hop = nil
	}
	return nil
}

// emitSessions closes sessions whose quiet period has passed the watermark
// (no future row at ts ≥ wm can extend a session with last+gap ≤ wm) and
// drops the keys left with no open session.
func (s *streamState) emitSessions(wm int64) {
	gap := s.sa.Window.GapMs
	rows := s.rows[:0]
	for k, list := range s.sessions {
		keep := list[:0]
		for _, g := range list {
			if g.last+gap > wm {
				keep = append(keep, g)
				continue
			}
			rows = append(rows, emitted{g.start, g.last + gap, s.adds, g.ord})
			s.adds.res.Shrink(g.charge)
			s.closed = append(s.closed, g.ord)
		}
		clear(list[len(keep):])
		if len(keep) == 0 {
			delete(s.sessions, k)
		} else {
			s.sessions[k] = keep
		}
	}
	s.rows = rows
	slices.SortFunc(rows, func(a, b emitted) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		if c := compareKeys(s.keyColl, a.e.state, int(a.o), b.e.state, int(b.o)); c != 0 {
			return c
		}
		return cmp.Compare(a.end, b.end)
	})
	s.appendRows(rows, len(rows))
	for _, e := range rows {
		s.adds.dropRow(e.o) // emitted: the row keeps nothing until reused
	}
}

// orderWindow orders one window's rows, groups of one engine that share the
// window's bounds, by key with the sort kernel.
func (s *streamState) orderWindow(rows []emitted) {
	if len(rows) < 2 {
		return
	}
	s.ords = s.ords[:0]
	for _, e := range rows {
		s.ords = append(s.ords, sortKey{ord: e.o})
	}
	s.buf = slices.Grow(s.buf[:0], len(rows))[:len(rows)]
	sortKeys(rows[0].e.state, s.ords, s.keyColl, s.buf)
	for i, k := range s.ords {
		rows[i].o = k.ord
	}
}

// appendRows appends rows, ordered by (window_start, key…, window_end) so
// that the output is deterministic, to the round's output columns in the
// vector kinds of the output row type; the first call of a round sizes the
// columns for about hint rows.
func (s *streamState) appendRows(rows []emitted, hint int) {
	if len(rows) == 0 {
		return
	}
	if s.out == nil {
		for _, f := range s.sa.RowType().Fields {
			v := &schema.Vector{Kind: schema.VecKindForType(f.Type)}
			v.Grow(hint)
			s.out = append(s.out, v)
		}
	}
	for _, e := range rows {
		s.out[0].I64 = append(s.out[0].I64, e.start) // window bounds are TIMESTAMPs: int64
		s.out[1].I64 = append(s.out[1].I64, e.end)
	}
	for c, v := range s.out[2:] {
		for _, e := range rows {
			var x any
			if c < s.nKeys {
				x = e.e.state[c].Get(int(e.o))
			} else {
				x = e.e.resultAt(c-s.nKeys, e.o)
			}
			if !v.AppendValue(x) {
				v.Demote()
				v.AppendValue(x)
			}
		}
	}
}

// engines returns every engine that holds standing state.
func (s *streamState) engines() []*GroupedAgg {
	all := []*GroupedAgg{s.adds, s.spill}
	for _, e := range s.panes {
		all = append(all, e)
	}
	return slices.DeleteFunc(all, func(e *GroupedAgg) bool { return e == nil })
}

// held is the standing state currently charged.
func (s *streamState) held() (n int64) {
	for _, e := range s.engines() {
		n += e.res.Held()
	}
	return n
}

// free returns every reservation and removes the spill runs.
func (s *streamState) free() {
	for _, e := range s.engines() {
		e.Abandon()
	}
	s.panes, s.spill = nil, nil
}

// ---- pull cursor ----

// streamAggCursor pulls its input through one streamState.
type streamAggCursor struct {
	st        *streamState
	in        schema.BatchCursor
	seq       int64
	dense     []int32
	closed    bool
	reported  int64 // current contribution to the state-bytes gauge
	interrupt *atomic.Bool
}

func (c *streamAggCursor) interrupted() bool { return c.interrupt != nil && c.interrupt.Load() }

// fail releases the state and reports err, as the cancellation when the
// query was interrupted (whatever error the interrupt caused below). The
// input stays open until Close.
func (c *streamAggCursor) fail(err error) (*schema.Batch, error) {
	c.release()
	if c.interrupted() {
		return nil, ErrCanceled
	}
	return nil, err
}

// NextBatch folds input batches until one closes a window, and returns that
// emission round; end-of-input drains every remaining window.
func (c *streamAggCursor) NextBatch() (*schema.Batch, error) {
	for !c.closed {
		if c.interrupted() {
			// A canceled continuous query releases its standing state at
			// once rather than waiting for the stream to end.
			return c.fail(ErrCanceled)
		}
		b, err := c.in.NextBatch()
		final := err == schema.Done
		if err != nil && !final {
			return c.fail(err)
		}
		out, err := c.round(b, final)
		if err != nil {
			return c.fail(err)
		}
		if final {
			c.release()
		}
		if out != nil {
			out.Seq = c.seq
			c.seq++
			return out, nil
		}
	}
	return nil, schema.Done
}

// round folds the live rows of b, unless final, emits the windows the
// watermark has closed (every remaining window when final) and refreshes the
// stream gauges.
func (c *streamAggCursor) round(b *schema.Batch, final bool) (*schema.Batch, error) {
	start := time.Now()
	if !final {
		var sel []int32
		sel, c.dense = liveSel(b, c.dense)
		if err := c.st.addBatch(b, sel); err != nil {
			return nil, err
		}
	}
	out, err := c.st.emitReady(final)
	if err != nil {
		return nil, err
	}
	if out != nil {
		streamWindowsEmitted.Add(int64(out.Len))
		observeStreamEmit(time.Since(start))
	}
	held := c.st.held()
	streamStateBytes.Add(held - c.reported)
	c.reported = held
	return out, nil
}

// release returns the standing state; the input is closed by Close.
func (c *streamAggCursor) release() {
	if c.closed {
		return
	}
	c.closed = true
	streamStateBytes.Add(-c.reported)
	c.reported = 0
	c.st.free()
}

func (c *streamAggCursor) Close() error {
	c.release()
	if c.in != nil {
		c.in.Close()
		c.in = nil
	}
	return nil
}
