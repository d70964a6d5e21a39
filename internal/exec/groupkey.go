package exec

// The hash aggregation engine (GroupedAgg) and the typed key index it shares
// with the hash join. The index keys native maps on the machine value of a
// single-column key, assigning each distinct key a dense ordinal (insertion
// order); composite keys map their schema.RowKey encoding. The engine keeps
// its groups as one state batch indexed by that ordinal: typed key columns,
// then each call's state in typed columns — COUNT an int64 count; SUM and AVG
// a count, an int64 and a float64 sum and a count of float contributions;
// MIN and MAX a vector of the argument's kind, NULL until started — and only
// COLLECT, SINGLE_VALUE and DISTINCT calls a column of boxed accumulators,
// which leaves the engine as the values they hold. Partial stages emit that
// batch, final stages and re-merges fold it with one merge kernel per call,
// and a flush writes it through the spill codec's typed pages.
//
// Equivalence must match types.HashKey exactly or the typed and the boxed
// tiers would group differently: HashKey folds integral float64s onto the
// int64 key space, so the index normalizes them the same way, and everything
// outside int64/float64/string (bools, NULLs, composites) drops to the
// HashKey-string fallback tier. A column that arrives as VecInt64 in one
// batch and VecAny in the next therefore still lands in the same map.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"calcite/internal/memory"
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
	// AggPartial folds input rows into a state batch [keys…, state columns…,
	// first-seen seq, first-seen idx]: one engine per worker of the parallel
	// aggregate.
	AggPartial
	// AggFinal merges the gathered state batches of every worker into [keys…,
	// results…], ordered by each group's smallest first-seen position: the
	// serial group order.
	AggFinal
)

// stateKind is how one call's running state is laid out in the state batch.
type stateKind uint8

const (
	stateCount stateKind = iota // COUNT: [count]
	stateSum                    // SUM, AVG: [count, int sum, float sum, float count]
	stateExt                    // MIN, MAX: [extremum], NULL until a value arrives
	stateBoxed                  // COLLECT, SINGLE_VALUE, DISTINCT: [values held]
)

func stateKindOf(c rex.AggCall) stateKind {
	switch {
	case c.Distinct && len(c.Args) > 0, c.Func == rex.AggCollect, c.Func == rex.AggSingleValue:
		return stateBoxed
	case c.Func == rex.AggSum, c.Func == rex.AggAvg:
		return stateSum
	case c.Func == rex.AggMin, c.Func == rex.AggMax:
		return stateExt
	}
	return stateCount
}

// aggCol is one call's state in the table.
type aggCol struct {
	call rex.AggCall
	kind stateKind
	at   int // its first column in the state batch
	// accs holds a stateBoxed call's accumulators, one per group ordinal; its
	// column is filled with what they hold when the batch leaves the engine.
	accs []rex.Accumulator
	// open marks a stateExt column that holds no value yet, so it may still
	// take the kind of the argument vector.
	open bool
}

// Per-entry footprints of the key index, on top of what its keys hold.
const (
	intEntryBytes = 40 // map[int64]int32
	strEntryBytes = 64 // map[string]int32
	// boxedGroupBytes is one accumulator of a stateBoxed call.
	boxedGroupBytes = 128
)

// GroupedAgg is the hash aggregation engine behind every aggregate operator:
// the serial Aggregate, the partial and final stages of the parallel one, the
// spill re-merge and the streaming operator's panes, windows and sessions.
//
// The table is a state batch indexed by group ordinal, the ordinal the key
// index assigns in first-seen order: the key columns, each call's typed state
// columns (stateKind), then, when positions are tracked, the first-seen batch
// Seq and row. A batch folds in two steps: its rows' ordinals, then one
// scatter kernel per call (raw rows) or one merge kernel per call (state
// rows). A partial stage emits the table itself; a flush writes it to hash
// partitions on disk (aggspill.go), and the table restarts empty. The table
// is charged to a nil-safe reservation with what its columns and key index
// grow by.
type GroupedAgg struct {
	ctx   *Context
	op    string // reservation and spill-run tag
	calls []rex.AggCall
	keys  []int // key ordinals in the input rows
	ident []int // 0..len(keys)-1: key ordinals in state batches

	fromStates bool // input rows are state rows, not raw rows
	emitStates bool // output is the state batch, not the results
	pos        bool // groups carry their first-seen position (emitted with states)
	depth      int  // spill recursion depth; doubles as the flush hash seed

	res       *memory.Reservation
	unbounded bool // denied at max depth: stop charging, finish in memory
	flushW    *partitionWriter
	// evict, when set, replaces the flush on a denied grant and must leave the
	// table empty and the reservation shrunk, as a flush does: a contract with
	// the streaming operator, which moves all its state into one spill engine.
	evict func() error

	index    *keyIndex        // single-column keys
	multiKey map[string]int32 // multi-column keys, schema.RowKey-encoded
	n        int              // groups
	state    []*schema.Vector
	cols     []aggCol
	// extra is what the table holds beyond its columns' capacity: key
	// payloads, composite key strings, boxed accumulators and their values.
	extra int64

	row                []any // scratch row of the boxed calls
	keyBuf             []byte
	dense, ords, fresh []int32
	fsel, ford         []int32 // a FILTER call's narrowed rows
}

// NewGroupedAgg opens an aggregation engine for a in the given mode, charging
// the context's allocator under the operator tag op.
func NewGroupedAgg(ctx *Context, op string, a *Aggregate, mode AggMode) *GroupedAgg {
	g := &GroupedAgg{ctx: ctx, op: op, calls: a.Calls, ident: make([]int, len(a.GroupKeys)), keys: a.GroupKeys,
		fromStates: mode == AggFinal, emitStates: mode == AggPartial, pos: mode != AggComplete}
	g.res = memory.Reserve(ctx.Alloc, op)
	g.init()
	return g
}

// newStateAgg opens an uncharged engine that folds state rows keyed on their
// first nKeys columns and emits state batches, without first-seen positions:
// the spill re-merge, and the streaming operator's window merges and spill.
func newStateAgg(ctx *Context, op string, nKeys int, calls []rex.AggCall) *GroupedAgg {
	g := &GroupedAgg{ctx: ctx, op: op, calls: calls, ident: make([]int, nKeys), fromStates: true, emitStates: true}
	g.init()
	return g
}

func (g *GroupedAgg) init() {
	for i := range g.ident {
		g.ident[i] = i
	}
	if g.fromStates {
		g.keys = g.ident
	}
	at := len(g.keys)
	for _, c := range g.calls {
		g.cols = append(g.cols, aggCol{call: c, kind: stateKindOf(c), at: at})
		if stateKindOf(c) == stateSum {
			at += 4
		} else {
			at++
		}
		width := c.FilterArg + 1
		for _, a := range c.Args {
			width = max(width, a+1)
		}
		g.row = extend(g.row, max(0, width-len(g.row)))
	}
	g.state = make([]*schema.Vector, at)
	if g.pos {
		g.state = append(g.state, nil, nil)
	}
	g.resetTable()
}

// resetTable empties the table, dropping its columns and key index.
func (g *GroupedAgg) resetTable() {
	g.index, g.multiKey = nil, nil
	if len(g.keys) == 1 {
		g.index = newKeyIndex()
	} else if len(g.keys) > 1 {
		g.multiKey = map[string]int32{}
	}
	g.n, g.extra = 0, 0
	for i := range g.keys {
		g.state[i] = &schema.Vector{} // takes the kind of the first keys appended
	}
	for i := range g.cols {
		c := &g.cols[i]
		c.accs, c.open = nil, c.kind == stateExt
		g.state[c.at] = &schema.Vector{Kind: schema.VecInt64}
		switch c.kind {
		case stateSum:
			g.state[c.at+1] = &schema.Vector{Kind: schema.VecInt64}
			g.state[c.at+2] = &schema.Vector{Kind: schema.VecFloat64}
			g.state[c.at+3] = &schema.Vector{Kind: schema.VecInt64}
		case stateExt, stateBoxed:
			g.state[c.at] = &schema.Vector{}
		}
	}
	if g.pos {
		w := len(g.state)
		g.state[w-2], g.state[w-1] = &schema.Vector{Kind: schema.VecInt64}, &schema.Vector{Kind: schema.VecInt64}
	}
}

// extend grows s by k zero values.
func extend[T any](s []T, k int) []T {
	return append(s, make([]T, k)...)
}

// extendNull grows v by k NULL rows.
func extendNull(v *schema.Vector, k int) {
	if v.Kind == schema.VecAny {
		v.A = extend(v.A, k)
		return
	}
	n := v.Len()
	if v.Nulls == nil {
		v.Nulls = make([]bool, n, n+k)
	}
	v.Nulls = extend(v.Nulls, k)
	for i := n; i < n+k; i++ {
		v.Nulls[i] = true
	}
	switch v.Kind {
	case schema.VecInt64:
		v.I64 = extend(v.I64, k)
	case schema.VecFloat64:
		v.F64 = extend(v.F64, k)
	case schema.VecBool:
		v.B = extend(v.B, k)
	case schema.VecString:
		v.S = extend(v.S, k)
	}
}

// grow enters a group for each row fresh of the key columns cols of vecs, at
// the next ordinals, with empty state.
func (g *GroupedAgg) grow(vecs []*schema.Vector, cols []int, fresh []int32) {
	k := len(fresh)
	for i, kc := range cols {
		g.state[i].Append(vecs[kc], fresh)
		if kv := vecs[kc]; kv.Kind == schema.VecString || kv.Kind == schema.VecAny {
			for _, r := range fresh {
				if kv.Kind == schema.VecString {
					g.extra += int64(len(kv.S[r]))
				} else {
					g.extra += types.SizeOfValue(kv.A[r])
				}
			}
		}
	}
	for i := range g.cols {
		c := &g.cols[i]
		switch c.kind {
		case stateExt:
			extendNull(g.state[c.at], k)
		case stateBoxed:
			for j := 0; j < k; j++ {
				c.accs = append(c.accs, rex.NewAccumulator(c.call))
			}
			g.extra += boxedGroupBytes * int64(k)
		case stateSum:
			g.state[c.at+2].F64 = extend(g.state[c.at+2].F64, k)
			g.state[c.at+1].I64 = extend(g.state[c.at+1].I64, k)
			g.state[c.at+3].I64 = extend(g.state[c.at+3].I64, k)
			fallthrough
		default:
			g.state[c.at].I64 = extend(g.state[c.at].I64, k)
		}
	}
	g.n += k
}

// resetRow empties the state of group o, keeping its key.
func (g *GroupedAgg) resetRow(o int32) {
	for i := range g.cols {
		c := &g.cols[i]
		switch c.kind {
		case stateExt:
			g.state[c.at].Set(int(o), nil)
		case stateBoxed:
			c.accs[o] = rex.NewAccumulator(c.call)
		case stateSum:
			g.state[c.at+1].I64[o], g.state[c.at+2].F64[o], g.state[c.at+3].I64[o] = 0, 0, 0
			fallthrough
		default:
			g.state[c.at].I64[o] = 0
		}
	}
}

// dropRow lets go of what group o holds, its key included: the accumulators
// of its boxed calls and its string or boxed keys and extrema. The row is
// left for reuse by resetRow once a new key is set.
func (g *GroupedAgg) dropRow(o int32) {
	for i := range g.cols {
		if c := &g.cols[i]; c.kind == stateBoxed {
			c.accs[o] = nil
		} else if c.kind == stateExt {
			dropValue(g.state[c.at], o)
		}
	}
	for k := range g.keys {
		dropValue(g.state[k], o)
	}
}

// dropValue empties row o of v if it can point at the heap.
func dropValue(v *schema.Vector, o int32) {
	switch v.Kind {
	case schema.VecString:
		v.S[o] = ""
	case schema.VecAny:
		v.A[o] = nil
	}
}

// ordinals returns the group ordinal of each row sel of b, entering the keys
// seen for the first time.
func (g *GroupedAgg) ordinals(b *schema.Batch, sel []int32) []int32 {
	ords, fresh := g.ords[:0], g.fresh[:0]
	switch {
	case g.index != nil:
		ords, fresh = g.index.ordsVec(b.Vecs[g.keys[0]], sel, ords, fresh)
	case g.multiKey != nil:
		next := int32(g.n)
		for _, r := range sel {
			g.keyBuf = schema.RowKey(g.keyBuf[:0], b.Vecs, int(r), g.keys)
			ord, ok := g.multiKey[string(g.keyBuf)]
			if !ok {
				g.multiKey[string(g.keyBuf)] = next
				g.extra += int64(len(g.keyBuf))
				ord = next
				next++
				fresh = append(fresh, r)
			}
			ords = append(ords, ord)
		}
	default:
		if g.n == 0 {
			fresh = append(fresh, sel[0])
		}
		ords = extend(ords, len(sel))
	}
	g.ords, g.fresh = ords, fresh
	if len(fresh) > 0 {
		g.grow(b.Vecs, g.keys, fresh)
		if g.pos {
			w := len(g.state)
			if g.fromStates {
				g.state[w-2].Append(b.Vecs[w-2], fresh)
				g.state[w-1].Append(b.Vecs[w-1], fresh)
			} else {
				for _, r := range fresh {
					g.state[w-2].I64 = append(g.state[w-2].I64, b.Seq)
					g.state[w-1].I64 = append(g.state[w-1].I64, int64(r))
				}
			}
		}
	}
	return ords
}

// ordsVec appends the ordinal of each row sel of key column kv to ords,
// entering new keys and appending their rows to fresh.
func (ki *keyIndex) ordsVec(kv *schema.Vector, sel, ords, fresh []int32) ([]int32, []int32) {
	if kv.Kind == schema.VecInt64 && kv.Nulls == nil {
		for _, r := range sel {
			ord, isNew := ki.ordInt(kv.I64[r])
			if isNew {
				fresh = append(fresh, r)
			}
			ords = append(ords, ord)
		}
		return ords, fresh
	}
	for _, r := range sel {
		ord, isNew := ki.ordVec(kv, int(r))
		if isNew {
			fresh = append(fresh, r)
		}
		ords = append(ords, ord)
	}
	return ords, fresh
}

// AddBatch folds the live rows of one batch into the table and charges what
// the table grew by.
func (g *GroupedAgg) AddBatch(b *schema.Batch) error {
	var sel []int32
	sel, g.dense = liveSel(b, g.dense)
	if len(sel) == 0 {
		return nil
	}
	ords := g.ordinals(b, sel)
	var err error
	if g.fromStates {
		err = g.merge(b.Vecs, sel, ords)
	} else {
		err = g.scatter(b, sel, ords)
	}
	if err != nil {
		return err
	}
	return g.settle()
}

// filtered narrows rows sel (groups ords) to those whose FILTER column is TRUE.
func (g *GroupedAgg) filtered(b *schema.Batch, c rex.AggCall, sel, ords []int32) ([]int32, []int32) {
	if c.FilterArg < 0 {
		return sel, ords
	}
	fv := b.Vecs[c.FilterArg]
	g.fsel, g.ford = g.fsel[:0], g.ford[:0]
	for i, r := range sel {
		keep := fv.Kind == schema.VecBool && (fv.Nulls == nil || !fv.Nulls[r]) && fv.B[r]
		if fv.Kind != schema.VecBool {
			keep, _ = fv.Get(int(r)).(bool)
		}
		if keep {
			g.fsel, g.ford = append(g.fsel, r), append(g.ford, ords[i])
		}
	}
	return g.fsel, g.ford
}

// scatter adds the raw rows sel of b to their groups ords: one kernel per
// call.
func (g *GroupedAgg) scatter(b *schema.Batch, sel, ords []int32) error {
	for i := range g.cols {
		c := &g.cols[i]
		sel, ords := g.filtered(b, c.call, sel, ords)
		var arg *schema.Vector
		if len(c.call.Args) > 0 {
			arg = b.Vecs[c.call.Args[0]]
		}
		switch c.kind {
		case stateCount:
			countRows(g.state[c.at].I64, arg, sel, ords)
		case stateSum:
			if err := sumRows(c.call, g.state[c.at:c.at+4], arg, sel, ords); err != nil {
				return err
			}
		case stateExt:
			foldExt(c, g.state[c.at], arg, sel, ords)
		case stateBoxed:
			for j, r := range sel {
				for _, a := range c.call.Args {
					g.row[a] = b.Vecs[a].Get(int(r))
				}
				if f := c.call.FilterArg; f >= 0 {
					g.row[f] = true // sel is narrowed to the rows that pass
				}
				if err := g.keep(c, ords[j], g.row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// keep adds row to the accumulator of group o, charging the argument value
// only when the accumulator retains it (a DISTINCT value seen before is not).
func (g *GroupedAgg) keep(c *aggCol, o int32, row []any) error {
	acc := c.accs[o]
	held := len(rex.HeldValues(acc))
	if err := acc.Add(row); err != nil {
		return err
	}
	if len(rex.HeldValues(acc)) > held {
		v := types.SizeOfValue(row[c.call.Args[0]])
		g.extra += v + 16 // the value, and its slice's room to grow
		if c.call.Distinct {
			g.extra += v + strEntryBytes // its key in the seen set
		}
	}
	return nil
}

func countRows(cnt []int64, arg *schema.Vector, sel, ords []int32) {
	if arg == nil || (arg.Kind != schema.VecAny && arg.Nulls == nil) {
		for _, o := range ords {
			cnt[o]++
		}
		return
	}
	for i, r := range sel {
		if !arg.IsNull(int(r)) {
			cnt[ords[i]]++
		}
	}
}

// sumRows adds the rows sel of arg to the sums st [count, int sum, float sum,
// float count] of groups ords. Integers feed both sums, so SUM stays an exact
// integer until a float contributes.
func sumRows(call rex.AggCall, st []*schema.Vector, arg *schema.Vector, sel, ords []int32) error {
	cnt, si, sf, fl := st[0].I64, st[1].I64, st[2].F64, st[3].I64
	switch arg.Kind {
	case schema.VecInt64:
		for i, r := range sel {
			if arg.Nulls == nil || !arg.Nulls[r] {
				o, x := ords[i], arg.I64[r]
				cnt[o]++
				si[o] += x
				sf[o] += float64(x)
			}
		}
	case schema.VecFloat64:
		for i, r := range sel {
			if arg.Nulls == nil || !arg.Nulls[r] {
				o := ords[i]
				cnt[o]++
				fl[o]++
				sf[o] += arg.F64[r]
			}
		}
	default:
		for i, r := range sel {
			x, o := arg.Get(int(r)), ords[i]
			if x == nil {
				continue
			}
			if v, ok := x.(int64); ok {
				cnt[o]++
				si[o] += v
				sf[o] += float64(v)
				continue
			}
			f, ok := types.AsFloat(x)
			if !ok {
				return fmt.Errorf("rex: %s over non-numeric %T", call.Func, x)
			}
			cnt[o]++
			fl[o]++
			sf[o] += f
		}
	}
	return nil
}

// foldExt folds the rows sel of src into the extrema dst of groups ords: the
// smaller (MIN) or larger (MAX) value wins, the earlier one a tie.
func foldExt(c *aggCol, dst, src *schema.Vector, sel, ords []int32) {
	if c.open && src.Kind != schema.VecAny {
		n := dst.Len()
		*dst = schema.Vector{Kind: src.Kind}
		extendNull(dst, n)
		c.open = false
	}
	isMin := c.call.Func == rex.AggMin
	switch k := dst.Kind; {
	case k == schema.VecInt64 && src.Kind == k:
		foldOrdered(dst.I64, dst.Nulls, src.I64, src.Nulls, sel, ords, isMin)
	case k == schema.VecFloat64 && src.Kind == k:
		foldOrdered(dst.F64, dst.Nulls, src.F64, src.Nulls, sel, ords, isMin)
	case k == schema.VecString && src.Kind == k:
		foldOrdered(dst.S, dst.Nulls, src.S, src.Nulls, sel, ords, isMin)
	default:
		for i, r := range sel {
			x := src.Get(int(r))
			if x == nil {
				continue
			}
			o := int(ords[i])
			if cur := dst.Get(o); cur == nil || (isMin && types.Compare(x, cur) < 0) || (!isMin && types.Compare(x, cur) > 0) {
				dst.Set(o, x)
				c.open = false
			}
		}
	}
}

// foldOrdered is foldExt over typed payloads; dst's NULL mask marks the
// groups no value reached yet. cmp.Less ranks NaN below every other float,
// as types.Compare does, so the extremum does not depend on arrival order.
func foldOrdered[T cmp.Ordered](dst []T, dnull []bool, src []T, snull []bool, sel, ords []int32, isMin bool) {
	for i, r := range sel {
		if snull == nil || !snull[r] {
			x, o := src[r], ords[i]
			if dnull[o] || (isMin && cmp.Less(x, dst[o])) || (!isMin && cmp.Less(dst[o], x)) {
				dst[o], dnull[o] = x, false
			}
		}
	}
}

// merge folds the state rows sel of vecs, laid out as the table is, into
// their groups ords: one kernel per call, and the smallest first-seen
// position.
func (g *GroupedAgg) merge(vecs []*schema.Vector, sel, ords []int32) error {
	for i := range g.cols {
		c := &g.cols[i]
		switch c.kind {
		case stateExt:
			foldExt(c, g.state[c.at], vecs[c.at], sel, ords)
		case stateBoxed:
			for j, r := range sel {
				held, _ := vecs[c.at].Get(int(r)).([]any)
				for _, v := range held {
					if err := g.readd(c, ords[j], v); err != nil {
						return err
					}
				}
			}
		case stateSum:
			addStates(g.state[c.at+1], vecs[c.at+1], sel, ords)
			addStates(g.state[c.at+2], vecs[c.at+2], sel, ords)
			addStates(g.state[c.at+3], vecs[c.at+3], sel, ords)
			fallthrough
		default:
			addStates(g.state[c.at], vecs[c.at], sel, ords)
		}
	}
	if g.pos {
		w := len(g.state)
		seq, idx, fs, fi := g.state[w-2].I64, g.state[w-1].I64, vecs[w-2].I64, vecs[w-1].I64
		for i, r := range sel {
			if o := ords[i]; fs[r] < seq[o] || (fs[r] == seq[o] && fi[r] < idx[o]) {
				seq[o], idx[o] = fs[r], fi[r]
			}
		}
	}
	return nil
}

// readd feeds one value a boxed state held back to the accumulator of group
// o: it already passed the call's filter.
func (g *GroupedAgg) readd(c *aggCol, o int32, v any) error {
	g.row[c.call.Args[0]] = v
	if c.call.FilterArg >= 0 {
		g.row[c.call.FilterArg] = true
	}
	return g.keep(c, o, g.row)
}

// addStates adds the counts or sums at rows sel of src to dst at ords.
func addStates(dst, src *schema.Vector, sel, ords []int32) {
	if dst.Kind == schema.VecFloat64 {
		addAt(dst.F64, src.F64, sel, ords)
	} else {
		addAt(dst.I64, src.I64, sel, ords)
	}
}

func addAt[T int64 | float64](dst, src []T, sel, ords []int32) {
	for i, r := range sel {
		dst[ords[i]] += src[r]
	}
}

// mergeRow folds the state of group src into group dst.
func (g *GroupedAgg) mergeRow(dst, src int32) error {
	vecs := make([]*schema.Vector, len(g.state))
	for i, v := range g.state {
		if v.Len() > int(src) {
			vecs[i] = v.Slice(int(src), int(src)+1)
		}
	}
	for _, c := range g.cols {
		if c.kind == stateBoxed {
			vecs[c.at] = &schema.Vector{A: []any{rex.HeldValues(c.accs[src])}}
		}
	}
	return g.merge(vecs, []int32{0}, []int32{dst})
}

// footprint is what the table holds: its columns' capacity, the key index,
// and the extra payloads.
func (g *GroupedAgg) footprint() int64 {
	n := g.extra
	for _, v := range g.state {
		n += int64(cap(v.Nulls) + 8*cap(v.I64) + 8*cap(v.F64) + cap(v.B) + 16*cap(v.S) + 16*cap(v.A))
	}
	for _, c := range g.cols {
		n += 16 * int64(cap(c.accs))
	}
	if g.index != nil {
		n += intEntryBytes*int64(len(g.index.byInt)) + strEntryBytes*int64(len(g.index.byStr)+len(g.index.byKey))
	}
	return n + strEntryBytes*int64(len(g.multiKey))
}

// settle charges the reservation with what the table grew by.
func (g *GroupedAgg) settle() error {
	if g.res == nil || g.unbounded {
		return nil
	}
	if grow := g.footprint() - g.res.Held(); grow > 0 {
		return g.charge(grow)
	}
	return nil
}

// charge grows the reservation by n. A denied grant flushes the table to
// disk (or evicts it) and proceeds: flushing always makes progress — the
// table restarts empty — and concurrent workers may hold the rest of the
// budget, so starving this one would deadlock progress, not save memory. At
// the maximum spill depth (a key range that will not subdivide) the engine
// finishes in memory uncharged.
func (g *GroupedAgg) charge(n int64) error {
	if g.res == nil || g.unbounded {
		return nil
	}
	if err := g.res.Grow(n); err == nil {
		return nil
	} else if !g.res.SpillAllowed() {
		return err
	}
	switch {
	case g.depth >= spillMaxDepth:
		g.unbounded = true
	case g.evict != nil:
		return g.evict()
	case g.n > 0:
		return g.flush()
	}
	return nil
}

// stateBatch returns the table as a state batch, filling each boxed call's
// column with the values its accumulators hold.
func (g *GroupedAgg) stateBatch() *schema.Batch {
	for _, c := range g.cols {
		if c.kind == stateBoxed {
			held := make([]any, g.n)
			for o, acc := range c.accs {
				held[o] = rex.HeldValues(acc)
			}
			g.state[c.at] = &schema.Vector{A: held}
		}
	}
	return &schema.Batch{Len: g.n, Vecs: g.state}
}

// resultAt is the result of call i for group o.
func (g *GroupedAgg) resultAt(i int, o int32) any {
	c := &g.cols[i]
	st := g.state[c.at:]
	switch {
	case c.kind == stateBoxed:
		return c.accs[o].Result()
	case c.kind != stateSum:
		return st[0].Get(int(o))
	case st[0].I64[o] == 0:
		return nil
	case c.call.Func == rex.AggAvg:
		return st[2].F64[o] / float64(st[0].I64[o])
	case st[3].I64[o] == 0:
		return st[1].I64[o]
	}
	return st[2].F64[o]
}

// result is the result column of call i over every group.
func (g *GroupedAgg) result(i int) *schema.Vector {
	c := &g.cols[i]
	st := g.state[c.at:]
	if c.kind == stateCount || c.kind == stateExt {
		return st[0]
	}
	kind := schema.VecAny
	if c.kind == stateSum {
		// SUM is an int64 per group until a float contributes to it.
		ints, floats := false, c.call.Func == rex.AggAvg
		for o, n := range st[0].I64 {
			if n > 0 && st[3].I64[o] == 0 && c.call.Func == rex.AggSum {
				ints = true
			} else if n > 0 {
				floats = true
			}
		}
		switch {
		case !floats:
			kind = schema.VecInt64
		case !ints:
			kind = schema.VecFloat64
		}
	}
	v := schema.MakeVector(kind, g.n)
	for o := range g.n {
		switch {
		case kind == schema.VecAny:
			v.Set(o, g.resultAt(i, int32(o)))
		case st[0].I64[o] == 0:
			v.Set(o, nil)
		case kind == schema.VecInt64:
			v.I64[o] = st[1].I64[o]
		case c.call.Func == rex.AggAvg:
			v.F64[o] = st[2].F64[o] / float64(st[0].I64[o])
		default:
			v.F64[o] = st[2].F64[o]
		}
	}
	if c.kind == stateBoxed {
		return schema.BuildVector(v.A)
	}
	return v
}

// output returns the table as batches: the state batch, or the key and
// result columns — in first-seen order, or sorted on the tracked position
// (the final stage).
func (g *GroupedAgg) output() schema.BatchCursor {
	var vecs []*schema.Vector
	if g.emitStates {
		vecs = g.stateBatch().Vecs
	} else {
		vecs = append(vecs, g.state[:len(g.keys)]...)
		for i := range g.cols {
			vecs = append(vecs, g.result(i))
		}
		if g.pos {
			w := len(g.state)
			seq, idx := g.state[w-2].I64, g.state[w-1].I64
			perm := make([]int32, g.n)
			for i := range perm {
				perm[i] = int32(i)
			}
			slices.SortStableFunc(perm, func(a, b int32) int {
				if c := cmp.Compare(seq[a], seq[b]); c != 0 {
					return c
				}
				return cmp.Compare(idx[a], idx[b])
			})
			for c, v := range vecs {
				vecs[c] = v.Gather(perm)
			}
		}
	}
	size := g.ctx.batchSize()
	batches := make([]*schema.Batch, 0, (g.n+size-1)/size)
	for lo := 0; lo < g.n; lo += size {
		hi := min(lo+size, g.n)
		b := &schema.Batch{Len: hi - lo, Seq: int64(len(batches)), Vecs: make([]*schema.Vector, len(vecs))}
		for c, v := range vecs {
			b.Vecs[c] = v.Slice(lo, hi)
		}
		batches = append(batches, b)
	}
	return schema.NewSliceBatchCursor(batches)
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
