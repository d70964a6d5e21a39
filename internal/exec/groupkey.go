package exec

// Typed key index for hash aggregation and hash joins. The boxed path
// identifies grouping/join keys by formatting every value into a
// types.HashKey string — one strconv call plus one string allocation per row
// probed. For single-column keys of the core runtime types the index instead
// keys native maps on the machine value, assigning each distinct key a dense
// ordinal (insertion order) that callers use to address per-group state.
//
// Equivalence must match types.HashKey exactly or the typed and the boxed
// tiers would group differently: HashKey folds integral float64s onto the
// int64 key space, so the index normalizes them the same way, and everything
// outside int64/float64/string (bools, NULLs, composites) drops to the
// HashKey-string fallback tier. A column that arrives as VecInt64 in one
// batch and VecAny in the next therefore still lands in the same map.

import (
	"math"
	"sort"

	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// keyIndex maps single-column key values to dense ordinals 0..n-1. A frozen
// index enters no new keys: it reports them absent (ordinal -1), so readers
// on several goroutines can share it.
type keyIndex struct {
	byInt  map[int64]int32
	byStr  map[string]int32
	byKey  map[string]int32 // types.HashKey fallback tier
	n      int32
	frozen bool
}

func newKeyIndex() *keyIndex {
	return &keyIndex{
		byInt: map[int64]int32{},
		byStr: map[string]int32{},
		byKey: map[string]int32{},
	}
}

// ordInt returns the ordinal of int64 key k, inserting it if new.
func (ki *keyIndex) ordInt(k int64) (int32, bool) {
	if ord, ok := ki.byInt[k]; ok {
		return ord, false
	} else if ki.frozen {
		return -1, false
	}
	ord := ki.n
	ki.byInt[k] = ord
	ki.n++
	return ord, true
}

// ordStr returns the ordinal of key k in the string tier m — byStr, or the
// HashKey fallback tier byKey — inserting it if new.
func (ki *keyIndex) ordStr(m map[string]int32, k string) (int32, bool) {
	if ord, ok := m[k]; ok {
		return ord, false
	} else if ki.frozen {
		return -1, false
	}
	ord := ki.n
	m[k] = ord
	ki.n++
	return ord, true
}

// intKeyOfFloat reports whether f folds onto the int64 key space, mirroring
// types.HashKey's normalization of integral float64s.
func intKeyOfFloat(f float64) (int64, bool) {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
		return int64(f), true
	}
	return 0, false
}

// ordVal routes one boxed key value to its tier, inserting if new.
func (ki *keyIndex) ordVal(v any) (int32, bool) {
	switch x := v.(type) {
	case int64:
		return ki.ordInt(x)
	case float64:
		if i, ok := intKeyOfFloat(x); ok {
			return ki.ordInt(i)
		}
	case string:
		return ki.ordStr(ki.byStr, x)
	}
	return ki.ordStr(ki.byKey, types.HashKey(v))
}

// ordVec returns the ordinal of row r of key column kv, inserting it if new,
// without boxing the key.
func (ki *keyIndex) ordVec(kv *schema.Vector, r int) (int32, bool) {
	switch {
	case kv.Nulls != nil && kv.Nulls[r]:
		return ki.ordStr(ki.byKey, types.HashKey(nil))
	case kv.Kind == schema.VecInt64:
		return ki.ordInt(kv.I64[r])
	case kv.Kind == schema.VecFloat64:
		if i, ok := intKeyOfFloat(kv.F64[r]); ok {
			return ki.ordInt(i)
		}
		return ki.ordStr(ki.byKey, types.HashKey(kv.F64[r]))
	case kv.Kind == schema.VecString:
		return ki.ordStr(ki.byStr, kv.S[r])
	}
	return ki.ordVal(kv.Get(r))
}

// AggMode selects what a GroupedAgg consumes and what it emits.
type AggMode uint8

const (
	// AggComplete folds input rows into result rows [keys…, results…]: the
	// serial Aggregate.
	AggComplete AggMode = iota
	// AggPartial folds input rows into partial rows [keys…, accumulator
	// states…, first-seen seq, first-seen idx]: one engine per worker of the
	// parallel aggregate.
	AggPartial
	// AggFinal merges the gathered partial rows of every worker into
	// [keys…, results…], ordered by each group's smallest first-seen position:
	// the serial group order.
	AggFinal
)

type aggGroup struct {
	key  []any
	accs []rex.Accumulator
	// typed holds the fast-path handle of each accumulator eligible for
	// pre-unboxed adds (nil entry otherwise).
	typed []rex.TypedAccumulator
	// fsSeq/fsIdx are the batch Seq and in-batch row of the group's first
	// row (position-tracking modes only).
	fsSeq, fsIdx int64
}

// GroupedAgg is the hash aggregation engine behind every aggregate operator:
// the serial Aggregate and the per-worker partial and final stages of the
// parallel one. Grouping goes through a typed keyIndex for single-column
// keys, accumulators take pre-unboxed adds from vectors of a native kind, and
// everything else runs the boxed scratch-row path.
// Groups are kept in first-seen order. The table is charged to a nil-safe
// reservation; when a grant is denied every group is dehydrated into hash
// partitions on disk (aggspill.go) and the table restarts empty.
type GroupedAgg struct {
	ctx   *Context
	op    string // reservation and spill-run tag
	calls []rex.AggCall
	keys  []int // key ordinals in the input rows
	ident []int // 0..len(keys)-1: key ordinals in group keys and state rows

	fromStates bool // input rows are [keys…, states…, (position)], not raw rows
	emitStates bool // output rows carry the accumulators, not their results
	pos        bool // groups carry their first-seen position (emitted with states)
	depth      int  // spill recursion depth; doubles as the flush hash seed

	res       *memory.Reservation
	unbounded bool // denied at max depth: stop charging, finish in memory
	flushW    *partitionWriter
	// evict, when set, replaces the flush on a denied grant and must leave the
	// table empty and the reservation shrunk, as a flush does: a contract with
	// the streaming operator, which moves all its state into one spill engine.
	evict func() error
	// keyLen is the length of the key string the table stored for the key
	// last entered: the encoded row key for zero or several columns, none
	// for one (the typed tiers store the value itself; the fallback tier's
	// short HashKey string falls in aggGroupOverhead).
	keyLen int

	index    *keyIndex        // single-column keys
	multiKey map[string]int32 // zero- or multi-column keys, HashRowKey-encoded
	groups   []*aggGroup

	callTyped []bool // calls[i] is eligible for typed adds
	anyTyped  bool
	retains   bool // some call holds on to its argument values
	scratch   []any
	keyBuf    []byte // composite key encoding, reused row over row
	dense     []int32
}

// NewGroupedAgg opens an aggregation engine for a in the given mode, charging
// the context's allocator under the operator tag op.
func NewGroupedAgg(ctx *Context, op string, a *Aggregate, mode AggMode) *GroupedAgg {
	g := newStateAgg(ctx, op, len(a.GroupKeys), a.Calls)
	g.res = memory.Reserve(ctx.Alloc, op)
	g.fromStates = mode == AggFinal
	g.emitStates = mode == AggPartial
	g.pos = mode != AggComplete
	if !g.fromStates {
		g.keys = a.GroupKeys
		g.scratch = make([]any, rel.FieldCount(a.Inputs()[0]))
	}
	return g
}

// newStateAgg opens an uncharged engine that folds partial states keyed on
// their first nKeys values and emits partial states, without first-seen
// positions: the spill re-merge, and the streaming operator's window merges
// and spill.
func newStateAgg(ctx *Context, op string, nKeys int, calls []rex.AggCall) *GroupedAgg {
	g := &GroupedAgg{ctx: ctx, op: op, calls: calls, ident: make([]int, nKeys), fromStates: true, emitStates: true}
	for i := range g.ident {
		g.ident[i] = i
	}
	g.keys = g.ident
	g.callTyped = make([]bool, len(calls))
	for i, c := range calls {
		g.callTyped[i] = rex.AsTyped(rex.NewAccumulator(c)) != nil
		g.anyTyped = g.anyTyped || g.callTyped[i]
		g.retains = g.retains || c.Distinct || c.Func == rex.AggCollect || c.Func == rex.AggSingleValue
	}
	g.resetTable()
	return g
}

func (g *GroupedAgg) resetTable() {
	g.index, g.multiKey = nil, nil
	if len(g.keys) == 1 {
		g.index = newKeyIndex()
	} else {
		g.multiKey = map[string]int32{}
	}
	clear(g.groups) // flushed groups must not stay reachable through the backing array
	g.groups = g.groups[:0]
}

// outWidth is the width of the rows the engine emits.
func (g *GroupedAgg) outWidth() int {
	if g.emitStates {
		return g.stateWidth()
	}
	return len(g.keys) + len(g.calls)
}

// stateWidth is the width of a partial row: what a partial stage emits and
// what a flush writes.
func (g *GroupedAgg) stateWidth() int {
	w := len(g.keys) + len(g.calls)
	if g.pos {
		w += 2
	}
	return w
}

// charge grows the reservation by n. A denied grant flushes the table to
// disk and proceeds best-effort: flushing always makes progress — the states
// restart empty — and concurrent workers may hold the rest of the budget, so
// starving this one would deadlock progress, not save memory. At the maximum
// spill depth (a key range that will not subdivide) the engine finishes in
// memory uncharged.
func (g *GroupedAgg) charge(n int64) (flushed bool, err error) {
	if g.res == nil || g.unbounded {
		return false, nil
	}
	if err := g.res.Grow(n); err == nil {
		return false, nil
	} else if !g.res.SpillAllowed() {
		return false, err
	}
	if g.depth >= spillMaxDepth {
		g.unbounded = true
		return false, nil
	}
	switch {
	case g.evict != nil:
		if err := g.evict(); err != nil {
			return false, err
		}
		flushed = true
	case len(g.groups) > 0:
		if err := g.flush(); err != nil {
			return false, err
		}
		flushed = true
	}
	_ = g.res.Grow(n) // post-flush best effort
	return flushed, nil
}

// admit registers the group of a key the index just reported new, charging
// its footprint (plus extra, what adopted accumulators already retain) first.
// accs is nil for a fresh group.
func (g *GroupedAgg) admit(key []any, accs []rex.Accumulator, extra int64) (*aggGroup, error) {
	flushed, err := g.charge(aggGroupCharge(g.ident, g.calls, key, g.keyLen) + extra)
	if err != nil {
		return nil, err
	}
	if flushed {
		g.lookupKey(key) // the flush emptied the index the key was entered in
	}
	return g.newGroup(key, accs), nil
}

// lookupKey returns the group ordinal of a boxed key, entering a new key at
// the next ordinal (the caller then creates its group).
func (g *GroupedAgg) lookupKey(key []any) (ord int32, isNew bool) {
	if g.index != nil {
		return g.index.ordVal(key[0])
	}
	k := types.HashRowKey(key, g.ident)
	if ord, ok := g.multiKey[k]; ok {
		return ord, false
	}
	ord = int32(len(g.groups))
	g.multiKey[k] = ord
	g.keyLen = len(k)
	return ord, true
}

func (g *GroupedAgg) newGroup(key []any, accs []rex.Accumulator) *aggGroup {
	gr := g.group(key, accs)
	g.groups = append(g.groups, gr)
	return gr
}

// group builds a group over accs, or over fresh accumulators (with their
// typed handles) when accs is nil, without entering it into the table.
func (g *GroupedAgg) group(key []any, accs []rex.Accumulator) *aggGroup {
	gr := &aggGroup{key: key, accs: accs}
	if accs == nil {
		gr.accs = make([]rex.Accumulator, len(g.calls))
		if g.anyTyped {
			gr.typed = make([]rex.TypedAccumulator, len(g.calls))
		}
		for i, c := range g.calls {
			gr.accs[i] = rex.NewAccumulator(c)
			if g.callTyped[i] {
				gr.typed[i] = rex.AsTyped(gr.accs[i])
			}
		}
	}
	return gr
}

// lookup returns the group ordinal of row r of b. A key seen for the first
// time is entered at ordinal len(groups) and reported new; the caller admits
// its group.
func (g *GroupedAgg) lookup(b *schema.Batch, r int) (ord int32, isNew bool) {
	if g.index != nil {
		return g.index.ordVec(b.Vecs[g.keys[0]], r)
	}
	g.keyBuf = schema.RowKey(g.keyBuf[:0], b.Vecs, r, g.keys)
	if ord, ok := g.multiKey[string(g.keyBuf)]; ok {
		return ord, false
	}
	ord = int32(len(g.groups))
	g.multiKey[string(g.keyBuf)] = ord
	g.keyLen = len(g.keyBuf)
	return ord, true
}

// keyAt boxes the group key of row r.
func (g *GroupedAgg) keyAt(b *schema.Batch, r int) []any {
	key := make([]any, len(g.keys))
	for i, gk := range g.keys {
		key[i] = b.Vecs[gk].Get(r)
	}
	return key
}

// AddBatch folds the live rows of one batch into the group table.
func (g *GroupedAgg) AddBatch(b *schema.Batch) error {
	var sel []int32
	sel, g.dense = liveSel(b, g.dense)
	if g.fromStates {
		return g.addStates(b, sel)
	}
	modes, argVec, needScratch := g.planBatch(b)
	for _, ri := range sel {
		r := int(ri)
		ord, isNew := g.lookup(b, r)
		if needScratch {
			for c := range g.scratch {
				g.scratch[c] = b.Vecs[c].Get(r)
			}
		}
		var gr *aggGroup
		if isNew {
			var err error
			if gr, err = g.admit(g.keyAt(b, r), nil, 0); err != nil {
				return err
			}
			gr.fsSeq, gr.fsIdx = b.Seq, int64(r)
		} else {
			gr = g.groups[ord]
		}
		if g.retains && g.res != nil {
			// The flush moves every group's retained values (this row's group
			// included) to disk, so memory genuinely drops even when no new
			// group will ever be created again (a global COLLECT); the group
			// restarts empty.
			flushed, err := g.charge(aggRetainedBytes(g.calls, g.scratch))
			if err != nil {
				return err
			}
			if flushed {
				g.lookupKey(gr.key)
				gr = g.newGroup(gr.key, nil)
				gr.fsSeq, gr.fsIdx = b.Seq, int64(r)
			}
		}
		// The adds stay inline, not a call to addRow (their copy for SESSION
		// windows): this is the per-row loop of every GROUP BY.
		for i, m := range modes {
			switch m {
			case modeCountStar:
				gr.typed[i].AddCountStar(1)
			case modeI64:
				if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
					gr.typed[i].AddNonNullInt64(v.I64[r])
				}
			case modeF64:
				if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
					gr.typed[i].AddNonNullFloat64(v.F64[r])
				}
			case modeStr:
				if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
					if err := gr.typed[i].AddNonNullString(v.S[r]); err != nil {
						return err
					}
				}
			default:
				if err := gr.accs[i].Add(g.scratch); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// addRow feeds row r of a batch b planned by planBatch to the accumulators of
// gr, as AddBatch's loop does, and returns the bytes the row added to calls
// that retain their arguments (which always take the boxed path).
func (g *GroupedAgg) addRow(gr *aggGroup, b *schema.Batch, r int, modes []callMode, argVec []*schema.Vector, needScratch bool) (retained int64, err error) {
	if needScratch {
		for c := range g.scratch {
			g.scratch[c] = b.Vecs[c].Get(r)
		}
		retained = aggRetainedBytes(g.calls, g.scratch)
	}
	for i, m := range modes {
		switch m {
		case modeCountStar:
			gr.typed[i].AddCountStar(1)
		case modeI64:
			if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
				gr.typed[i].AddNonNullInt64(v.I64[r])
			}
		case modeF64:
			if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
				gr.typed[i].AddNonNullFloat64(v.F64[r])
			}
		case modeStr:
			if v := argVec[i]; v.Nulls == nil || !v.Nulls[r] {
				if err := gr.typed[i].AddNonNullString(v.S[r]); err != nil {
					return 0, err
				}
			}
		default:
			if err := gr.accs[i].Add(g.scratch); err != nil {
				return 0, err
			}
		}
	}
	return retained, nil
}

// Per-batch add plan of one call.
type callMode uint8

const (
	modeBoxed callMode = iota // assemble scratch row, Accumulator.Add
	modeCountStar
	modeI64
	modeF64
	modeStr
)

// planBatch resolves each call against this batch's vector kinds: typed adds
// where the argument vector is of a native kind, boxed otherwise.
func (g *GroupedAgg) planBatch(b *schema.Batch) (modes []callMode, argVec []*schema.Vector, needScratch bool) {
	modes = make([]callMode, len(g.calls))
	argVec = make([]*schema.Vector, len(g.calls))
	for i, c := range g.calls {
		if g.callTyped[i] {
			if len(c.Args) == 0 {
				modes[i] = modeCountStar
			} else {
				v := b.Vecs[c.Args[0]]
				argVec[i] = v
				switch v.Kind {
				case schema.VecInt64:
					modes[i] = modeI64
				case schema.VecFloat64:
					modes[i] = modeF64
				case schema.VecString:
					modes[i] = modeStr
				}
			}
		}
		needScratch = needScratch || modes[i] == modeBoxed
	}
	return modes, argVec, needScratch
}

// stateAcc reads one accumulator column of a partial row: the live
// accumulator an in-memory partial stage handed over, or the dehydrated
// state a spill run carried.
func stateAcc(call rex.AggCall, v any) (rex.Accumulator, error) {
	if acc, ok := v.(rex.Accumulator); ok {
		return acc, nil
	}
	return rex.HydrateAccumulator(call, v)
}

// addStates merges the live partial rows [keys…, states…, (position)] of b
// into the table, keeping each group's smallest first-seen position.
func (g *GroupedAgg) addStates(b *schema.Batch, sel []int32) error {
	nKeys, nCalls := len(g.keys), len(g.calls)
	for _, ri := range sel {
		r := int(ri)
		var fsSeq, fsIdx int64
		if g.pos {
			fsSeq, _ = b.Vecs[nKeys+nCalls].Get(r).(int64)
			fsIdx, _ = b.Vecs[nKeys+nCalls+1].Get(r).(int64)
		}
		accs := make([]rex.Accumulator, nCalls)
		for ci, call := range g.calls {
			acc, err := stateAcc(call, b.Vecs[nKeys+ci].Get(r))
			if err != nil {
				return err
			}
			accs[ci] = acc
		}
		ord, isNew := g.lookup(b, r)
		var key []any
		if isNew {
			key = g.keyAt(b, r)
		}
		if err := g.foldState(ord, key, accs, fsSeq, fsIdx); err != nil {
			return err
		}
	}
	return nil
}

// mergeGroup folds one group's partial state into the group of its boxed
// key, adopting accs when the key is new.
func (g *GroupedAgg) mergeGroup(key []any, accs []rex.Accumulator) error {
	ord, isNew := g.lookupKey(key)
	if !isNew {
		key = nil
	}
	return g.foldState(ord, key, accs, 0, 0)
}

// foldState merges the owned partial state accs into group ord, or admits it
// as the group of key when key is non-nil (the key was just entered), keeping
// each group's smallest first-seen position.
func (g *GroupedAgg) foldState(ord int32, key []any, accs []rex.Accumulator, fsSeq, fsIdx int64) error {
	var retained int64
	if g.retains && g.res != nil {
		for _, acc := range accs {
			retained += rex.AccumulatorMemSize(acc)
		}
	}
	if key != nil {
		gr, err := g.admit(key, accs, retained)
		if err != nil {
			return err
		}
		gr.fsSeq, gr.fsIdx = fsSeq, fsIdx
		return nil
	}
	gr := g.groups[ord]
	if retained > 0 {
		// Merging grows the group by what the incoming states retain; a
		// flush here moved the group to disk, so the states restart it.
		flushed, err := g.charge(retained)
		if err != nil {
			return err
		}
		if flushed {
			g.lookupKey(gr.key)
			gr = g.newGroup(gr.key, accs)
			gr.fsSeq, gr.fsIdx = fsSeq, fsIdx
			return nil
		}
	}
	for ci := range accs {
		if err := rex.MergeAccumulators(gr.accs[ci], accs[ci]); err != nil {
			return err
		}
	}
	if fsSeq < gr.fsSeq || (fsSeq == gr.fsSeq && fsIdx < gr.fsIdx) {
		gr.fsSeq, gr.fsIdx = fsSeq, fsIdx
	}
	return nil
}

// rows materializes the table as output rows: first-seen order, or sorted on
// the tracked position when the rows carry results (the final stage).
func (g *GroupedAgg) rows() [][]any {
	if g.pos && !g.emitStates {
		sort.SliceStable(g.groups, func(i, j int) bool {
			a, b := g.groups[i], g.groups[j]
			if a.fsSeq != b.fsSeq {
				return a.fsSeq < b.fsSeq
			}
			return a.fsIdx < b.fsIdx
		})
	}
	w := g.outWidth()
	flat := make([]any, 0, len(g.groups)*w)
	out := make([][]any, len(g.groups))
	for i, gr := range g.groups {
		start := len(flat)
		flat = append(flat, gr.key...)
		for _, acc := range gr.accs {
			if g.emitStates {
				flat = append(flat, acc)
			} else {
				flat = append(flat, acc.Result())
			}
		}
		if g.pos && g.emitStates {
			flat = append(flat, gr.fsSeq, gr.fsIdx)
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// joinTable is the build-side index of a hash join. Single-column equi-keys
// index native maps through a keyIndex (no HashKey string per row); composite
// keys map their schema.RowKey encoding. Both are the encodings the probe
// reads. NULL build keys are never inserted (SQL equi-join: NULL matches
// nothing).
type joinTable struct {
	single *keyIndex // single-column keys, else nil
	byOrd  [][]int32 // candidate build rows per keyIndex ordinal
	multi  map[string][]int32
}

// newJoinTable indexes the n build rows of vecs by the given key columns.
func newJoinTable(vecs []*schema.Vector, n int, keys []int) *joinTable {
	t := &joinTable{}
	if len(keys) == 1 {
		t.single = newKeyIndex()
		kv := vecs[keys[0]]
		for r := 0; r < n; r++ {
			if kv.IsNull(r) {
				continue
			}
			ord, _ := t.single.ordVec(kv, r)
			if int(ord) == len(t.byOrd) {
				t.byOrd = append(t.byOrd, nil)
			}
			t.byOrd[ord] = append(t.byOrd[ord], int32(r))
		}
		t.single.frozen = true
		return t
	}
	t.multi = make(map[string][]int32, n)
	var buf []byte
	for r := 0; r < n; r++ {
		if keyIsNull(vecs, r, keys) {
			continue
		}
		buf = schema.RowKey(buf[:0], vecs, r, keys)
		t.multi[string(buf)] = append(t.multi[string(buf)], int32(r))
	}
	return t
}

// keyIsNull reports whether any key column of row r is NULL.
func keyIsNull(vecs []*schema.Vector, r int, keys []int) bool {
	for _, k := range keys {
		if vecs[k].IsNull(r) {
			return true
		}
	}
	return false
}

// probe returns the candidate build rows matching row r of the probe vectors
// on key columns keys — none when a key is NULL. buf is key-encoding scratch,
// returned for reuse.
func (t *joinTable) probe(vecs []*schema.Vector, r int, keys []int, buf []byte) ([]int32, []byte) {
	if t.single != nil {
		// A NULL key finds nothing: NULL build keys were never entered.
		if ord, _ := t.single.ordVec(vecs[keys[0]], r); ord >= 0 {
			return t.byOrd[ord], buf
		}
		return nil, buf
	}
	if keyIsNull(vecs, r, keys) {
		return nil, buf
	}
	buf = schema.RowKey(buf[:0], vecs, r, keys)
	return t.multi[string(buf)], buf
}
