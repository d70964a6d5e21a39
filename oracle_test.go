package calcite_test

// A seeded query generator whose statements evaluate themselves. Every
// generated statement is a spec that renders SQL text (with literals, or with
// "?" placeholders and their bind values) and computes its own answer in
// plain Go over the catalog's rows: 1–3-way inner and left equi-joins,
// conjuncts of = <> < <= > >= BETWEEN IN IS [NOT] NULL (some under NOT or
// OR), + - * projections with CASE and COALESCE, GROUP BY with
// COUNT(*)/COUNT/SUM/MIN/MAX/AVG and HAVING, DISTINCT, ORDER BY over a total
// order with LIMIT and OFFSET, and UNION ALL. The evaluator is the reference the engine is checked against, so
// it shares no code with it: this file imports only the standard library, and
// SQL's NULL logic, comparison, arithmetic, grouping and ordering are written
// out here.
//
// Value semantics, as the engine documents them: BIGINT op BIGINT stays
// BIGINT and anything with a DOUBLE is DOUBLE; SUM is BIGINT while every
// summed value is; AVG is DOUBLE; NULL sorts before every value; strings
// compare bytewise; an integral DOUBLE equals the BIGINT of the same value in
// comparisons, join keys and group keys.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

type oKind int

const (
	oInt oKind = iota
	oDouble
	oString
)

// oTable is one catalog table as the oracle sees it.
type oTable struct {
	name  string
	cols  []string
	kinds []oKind
	rows  [][]any
}

func (t *oTable) numericCols() []int {
	var out []int
	for i, k := range t.kinds {
		if k != oString {
			out = append(out, i)
		}
	}
	return out
}

// oTuple is one joined row: tuple[i] is the row of FROM item i.
type oTuple [][]any

// oExpr is a scalar expression: its SQL text and its evaluator side by side.
type oExpr struct {
	sql    string
	kind   oKind
	hasCol bool // reads a column (a group key must: GROUP BY 2 is no key)
	eval   func(t oTuple) any
}

// oTri is a truth value of SQL's three-valued logic.
type oTri int8

const (
	oFalse oTri = iota
	oTrue
	oUnknown
)

func oTriOf(b bool) oTri {
	if b {
		return oTrue
	}
	return oFalse
}

func oNot(x oTri) oTri {
	switch x {
	case oTrue:
		return oFalse
	case oFalse:
		return oTrue
	}
	return oUnknown
}

func oOr(a, b oTri) oTri {
	switch {
	case a == oTrue || b == oTrue:
		return oTrue
	case a == oUnknown || b == oUnknown:
		return oUnknown
	}
	return oFalse
}

// oPred is one WHERE conjunct over the single FROM item src. render writes
// its text, passing each literal through lit (which renders it or binds it);
// eval reads the item's row (all NULL where a left join padded it).
type oPred struct {
	src    int
	render func(lit func(any) string) string
	eval   func(row []any) oTri
}

// oJoin attaches FROM item right to the items before it by equi-keys.
type oJoin struct {
	leftSrc, leftCol []int // per key: earlier FROM item and its column
	rightCol         []int
	outer            bool // LEFT JOIN: an unmatched tuple gets a NULL row
}

type oAgg struct {
	fn  string // COUNT, SUM, MIN, MAX, AVG
	arg *oExpr // nil for COUNT(*)
}

// oHaving is a HAVING clause: one aggregate compared with a literal.
type oHaving struct {
	agg oAgg
	op  string
	v   any
}

func (a oAgg) sql() string {
	if a.arg == nil {
		return "COUNT(*)"
	}
	return a.fn + "(" + a.arg.sql + ")"
}

// inexact reports whether the aggregate's value depends on the order its
// DOUBLE inputs are added in.
func (a oAgg) inexact() bool {
	return (a.fn == "SUM" || a.fn == "AVG") && a.arg.kind == oDouble
}

// oSelect is one SELECT block.
type oSelect struct {
	from     []*oTable
	joins    []oJoin // joins[i-1] attaches from[i]
	where    []oPred
	distinct bool
	items    []oExpr // the projection, or the group keys when grouped
	grouped  bool
	aggs     []oAgg
	having   *oHaving
}

type oOrder struct {
	col  int
	desc bool
}

// oQuery is a generated statement: one block, or several under UNION ALL.
type oQuery struct {
	blocks        []*oSelect
	orderBy       []oOrder
	limit, offset int
}

func (q *oQuery) width() int { return len(q.blocks[0].items) + len(q.blocks[0].aggs) }

func (q *oQuery) names() []string {
	out := make([]string, q.width())
	for i := range out {
		out[i] = fmt.Sprintf("c%d", i)
	}
	return out
}

// ordered reports whether the statement fixes its row order.
func (q *oQuery) ordered() bool { return len(q.orderBy) > 0 }

// shapes names the generated shapes the statement exercises.
func (q *oQuery) shapes() []string {
	var out []string
	for _, b := range q.blocks {
		out = append(out, fmt.Sprintf("%d-way", len(b.from)))
		switch {
		case b.grouped && len(b.items) > 0:
			out = append(out, "group by")
		case b.grouped:
			out = append(out, "global aggregate")
		}
	}
	sql, _ := q.SQL(false)
	for _, s := range []struct{ name, text string }{
		{"union all", " UNION ALL "}, {"left join", " LEFT JOIN "}, {"or", " OR "}, {"not", "NOT ("},
		{"case", "CASE WHEN "}, {"coalesce", "COALESCE("}, {"having", " HAVING "},
		{"distinct", "SELECT DISTINCT "}, {"order by", " ORDER BY "}, {"limit", " LIMIT "}, {"offset", " OFFSET "},
	} {
		if strings.Contains(sql, s.text) {
			out = append(out, s.name)
		}
	}
	return out
}

// SQL renders the statement: with prepared set, every predicate literal
// becomes a "?" and is returned as a bind value, in placeholder order.
func (q *oQuery) SQL(prepared bool) (string, []any) {
	var params []any
	lit := func(v any) string {
		if prepared {
			params = append(params, v)
			return "?"
		}
		return oLiteral(v)
	}
	parts := make([]string, len(q.blocks))
	for i, b := range q.blocks {
		parts[i] = b.sql(lit)
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(parts, " UNION ALL "))
	names := q.names()
	for i, o := range q.orderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(names[o.col])
		if o.desc {
			sb.WriteString(" DESC")
		}
	}
	if q.limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.limit)
	}
	if q.offset > 0 {
		fmt.Fprintf(&sb, " OFFSET %d", q.offset)
	}
	return sb.String(), params
}

func (b *oSelect) sql(lit func(any) string) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if b.distinct {
		sb.WriteString("DISTINCT ")
	}
	n := 0
	item := func(text string) {
		if n > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s AS c%d", text, n)
		n++
	}
	for _, e := range b.items {
		item(e.sql)
	}
	for _, a := range b.aggs {
		item(a.sql())
	}
	fmt.Fprintf(&sb, " FROM %s t0", b.from[0].name)
	for i, j := range b.joins {
		r := b.from[i+1]
		kind := "JOIN"
		if j.outer {
			kind = "LEFT JOIN"
		}
		fmt.Fprintf(&sb, " %s %s t%d ON ", kind, r.name, i+1)
		for k := range j.rightCol {
			if k > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(&sb, "t%d.%s = t%d.%s", j.leftSrc[k], b.from[j.leftSrc[k]].cols[j.leftCol[k]], i+1, r.cols[j.rightCol[k]])
		}
	}
	for i, p := range b.where {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(p.render(lit))
	}
	if b.grouped && len(b.items) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range b.items {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.sql)
		}
	}
	if h := b.having; h != nil {
		fmt.Fprintf(&sb, " HAVING %s %s %s", h.agg.sql(), h.op, oLiteral(h.v))
	}
	return sb.String()
}

// oLiteral renders a value as a SQL literal; a DOUBLE keeps a decimal point.
func oLiteral(v any) string {
	switch x := v.(type) {
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case float64:
		s := strconv.FormatFloat(x, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	case int64:
		return strconv.FormatInt(x, 10)
	}
	panic(fmt.Sprintf("oracle: no literal for %T", v))
}

// --- value semantics ---

func oNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// oCompare orders two non-NULL values of comparable kinds.
func oCompare(a, b any) int {
	if x, ok := a.(int64); ok {
		if y, ok := b.(int64); ok {
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
	}
	if x, ok := oNumber(a); ok {
		y, _ := oNumber(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	return strings.Compare(a.(string), b.(string))
}

// oSortCompare is oCompare with NULL before every value.
func oSortCompare(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	return oCompare(a, b)
}

// oArith applies + - or * with SQL's NULL propagation.
func oArith(op byte, a, b any) any {
	if a == nil || b == nil {
		return nil
	}
	x, xInt := a.(int64)
	y, yInt := b.(int64)
	if xInt && yInt {
		switch op {
		case '+':
			return x + y
		case '-':
			return x - y
		}
		return x * y
	}
	f, _ := oNumber(a)
	g, _ := oNumber(b)
	switch op {
	case '+':
		return f + g
	case '-':
		return f - g
	}
	return f * g
}

// oKey is the equality class of a value for joins and grouping: an integral
// DOUBLE shares its class with the BIGINT of the same value.
func oKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "N"
	case int64:
		return "I" + strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return "I" + strconv.FormatInt(int64(x), 10)
		}
		return "F" + strconv.FormatUint(math.Float64bits(x), 16)
	case string:
		return "S" + x
	}
	panic(fmt.Sprintf("oracle: no key for %T", v))
}

// --- evaluation ---

// errTooLarge rejects a generated statement whose join fans out past the
// generator's size cap.
var errTooLarge = fmt.Errorf("oracle: statement too large")

// eval computes the statement's rows, in ORDER BY order when it has one.
// Intermediate results over maxRows fail with errTooLarge.
func (q *oQuery) eval(maxRows int) ([][]any, error) {
	var out [][]any
	for _, b := range q.blocks {
		rows, err := b.eval(maxRows)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	if len(out) > maxRows {
		return nil, errTooLarge
	}
	if q.ordered() {
		sort.SliceStable(out, func(i, j int) bool {
			for _, o := range q.orderBy {
				c := oSortCompare(out[i][o.col], out[j][o.col])
				if o.desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	out = out[min(q.offset, len(out)):]
	if q.limit > 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out, nil
}

// outer reports whether FROM item src is attached by a LEFT JOIN.
func (b *oSelect) outer(src int) bool { return src > 0 && b.joins[src-1].outer }

// row returns FROM item src's row of t, or a row of NULLs where a left join
// padded it.
func (b *oSelect) row(t oTuple, src int) []any {
	if t[src] == nil {
		return make([]any, len(b.from[src].cols))
	}
	return t[src]
}

func (b *oSelect) eval(maxRows int) ([][]any, error) {
	// A conjunct over an inner item filters its rows before the joins; one
	// over a left-joined item filters the joined tuples, padded rows
	// included.
	filtered := func(src int) [][]any {
		var out [][]any
	next:
		for _, r := range b.from[src].rows {
			for _, p := range b.where {
				if p.src == src && !b.outer(src) && p.eval(r) != oTrue {
					continue next
				}
			}
			out = append(out, r)
		}
		return out
	}
	var tuples []oTuple
	for _, r := range filtered(0) {
		t := make(oTuple, len(b.from))
		t[0] = r
		tuples = append(tuples, t)
	}
	for i, j := range b.joins {
		build := map[string][][]any{}
		for _, r := range filtered(i + 1) {
			if k, ok := joinKeyOf(r, j.rightCol); ok {
				build[k] = append(build[k], r)
			}
		}
		var next []oTuple
		for _, t := range tuples {
			left := make([]any, len(j.leftCol))
			for k := range j.leftCol {
				left[k] = b.row(t, j.leftSrc[k])[j.leftCol[k]]
			}
			var matches [][]any
			if k, ok := joinKeyOf(left, nil); ok {
				matches = build[k]
			}
			for _, r := range matches {
				nt := append(oTuple(nil), t...)
				nt[i+1] = r
				next = append(next, nt)
			}
			if len(matches) == 0 && j.outer {
				next = append(next, append(oTuple(nil), t...)) // t[i+1] stays nil
			}
			if len(next) > maxRows {
				return nil, errTooLarge
			}
		}
		tuples = next
	}
	kept := tuples[:0]
next:
	for _, t := range tuples {
		for _, p := range b.where {
			if b.outer(p.src) && p.eval(b.row(t, p.src)) != oTrue {
				continue next
			}
		}
		kept = append(kept, t)
	}
	tuples = kept
	if b.grouped {
		return b.aggregate(tuples), nil
	}
	out := make([][]any, 0, len(tuples))
	seen := map[string]bool{}
	for _, t := range tuples {
		row := b.project(t)
		if b.distinct {
			k := oRowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out = append(out, row)
	}
	return out, nil
}

// oRowKey is the equality class of a row (DISTINCT, GROUP BY).
func oRowKey(row []any) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(oKey(v))
		sb.WriteByte(0)
	}
	return sb.String()
}

// joinKeyOf renders the key columns of a row (all columns when cols is nil);
// a NULL key joins nothing.
func joinKeyOf(row []any, cols []int) (string, bool) {
	var sb strings.Builder
	vals := row
	if cols != nil {
		vals = make([]any, len(cols))
		for i, c := range cols {
			vals[i] = row[c]
		}
	}
	for _, v := range vals {
		if v == nil {
			return "", false
		}
		sb.WriteString(oKey(v))
		sb.WriteByte(0)
	}
	return sb.String(), true
}

func (b *oSelect) project(t oTuple) []any {
	row := make([]any, len(b.items))
	for i, e := range b.items {
		row[i] = e.eval(t)
	}
	return row
}

// oAcc accumulates one aggregate call over a group.
type oAcc struct {
	count   int64
	sumI    int64
	sumF    float64
	anyF    bool
	started bool
	best    any
}

func (a *oAcc) add(fn string, v any) {
	if v == nil {
		return
	}
	a.count++
	switch fn {
	case "SUM", "AVG":
		f, _ := oNumber(v)
		a.sumF += f
		if i, ok := v.(int64); ok {
			a.sumI += i
		} else {
			a.anyF = true
		}
	case "MIN", "MAX":
		if !a.started {
			a.best = v
		} else if c := oCompare(v, a.best); (fn == "MIN" && c < 0) || (fn == "MAX" && c > 0) {
			a.best = v
		}
	}
	a.started = true
}

func (a *oAcc) result(fn string) any {
	switch fn {
	case "COUNT":
		return a.count
	case "SUM":
		switch {
		case !a.started:
			return nil
		case a.anyF:
			return a.sumF
		}
		return a.sumI
	case "AVG":
		if a.count == 0 {
			return nil
		}
		return a.sumF / float64(a.count)
	}
	return a.best
}

func (b *oSelect) aggregate(tuples []oTuple) [][]any {
	type group struct {
		key  []any
		accs []oAcc
	}
	groups := map[string]*group{}
	var order []*group
	aggs := b.aggs
	if b.having != nil {
		aggs = append(aggs[:len(aggs):len(aggs)], b.having.agg)
	}
	for _, t := range tuples {
		key := b.project(t)
		id := oRowKey(key)
		g := groups[id]
		if g == nil {
			g = &group{key: key, accs: make([]oAcc, len(aggs))}
			groups[id] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			var v any = true // COUNT(*) counts every row
			if a.arg != nil {
				v = a.arg.eval(t)
			}
			g.accs[i].add(a.fn, v)
		}
	}
	if len(order) == 0 && len(b.items) == 0 {
		// A global aggregate over no rows still returns one row.
		order = append(order, &group{accs: make([]oAcc, len(aggs))})
	}
	out := make([][]any, 0, len(order))
	for _, g := range order {
		if h := b.having; h != nil {
			v := g.accs[len(aggs)-1].result(h.agg.fn)
			if v == nil || !oHolds(h.op, oCompare(v, h.v)) {
				continue
			}
		}
		row := append([]any(nil), g.key...)
		for j, a := range b.aggs {
			row = append(row, g.accs[j].result(a.fn))
		}
		out = append(out, row)
	}
	return out
}

// --- comparison ---

// oMatch compares the engine's rows with the oracle's: in order when the
// statement orders its output, else as multisets. BIGINT and string cells
// compare exactly; a DOUBLE cell compares within a relative 1e-9 (scale
// floored at 1) of its partner, which may be a BIGINT of the same value (a
// DOUBLE column may hold BIGINT values, and any of tied candidates is a right
// answer for grouping and MIN/MAX). It returns "" on a match, else the first
// difference.
func oMatch(ordered bool, got, want [][]any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got, want = oSorted(got), oSorted(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !oCellEqual(got[i][c], want[i][c]) {
				return fmt.Sprintf("row %d: %v, want %v", i, oRender(got[i]), oRender(want[i]))
			}
		}
	}
	return ""
}

func oCellEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if x, ok := a.(int64); ok {
		if y, ok := b.(int64); ok {
			return x == y
		}
	}
	x, xNum := oNumber(a)
	y, yNum := oNumber(b)
	if xNum && yNum {
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	if xNum || yNum {
		return false
	}
	s, sok := a.(string)
	t, tok := b.(string)
	return sok && tok && s == t
}

func oSorted(rows [][]any) [][]any {
	out := append([][]any(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for c := range out[i] {
			if d := oRowCellCompare(out[i][c], out[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	return out
}

// oRowCellCompare totally orders cells of any kind for multiset comparison:
// NULL, then numbers, then strings, then anything else by its text.
func oRowCellCompare(a, b any) int {
	rank := func(v any) int {
		switch v.(type) {
		case nil:
			return 0
		case int64, float64:
			return 1
		case string:
			return 2
		}
		return 3
	}
	if ra, rb := rank(a), rank(b); ra != rb || ra == 0 {
		return ra - rb
	} else if ra == 3 {
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	}
	return oCompare(a, b)
}

func oRender(row []any) string {
	cells := make([]string, len(row))
	for i, v := range row {
		if s, ok := v.(string); ok {
			cells[i] = strconv.Quote(s)
		} else {
			cells[i] = fmt.Sprintf("%T(%v)", v, v)
		}
	}
	return "[" + strings.Join(cells, " ") + "]"
}

// --- generation ---

// oGen draws statements over a catalog from one random stream, so a seed
// names a statement sequence.
type oGen struct {
	r   *rand.Rand
	cat []*oTable
	// edges are the numeric column pairs joins are drawn from; matching the
	// ones whose columns share values.
	edges, matching []oEdge
}

type oEdge struct {
	a, b       *oTable
	aCol, bCol int
}

// oMaxRows caps every intermediate and final result of a generated statement.
const oMaxRows = 3000

func newOGen(seed int64, cat []*oTable) *oGen {
	g := &oGen{r: rand.New(rand.NewSource(seed)), cat: cat}
	keys := map[*oTable][]map[string]bool{}
	for _, t := range cat {
		for c := range t.cols {
			set := map[string]bool{}
			for _, r := range t.rows {
				if r[c] != nil {
					set[oKey(r[c])] = true
				}
			}
			keys[t] = append(keys[t], set)
		}
	}
	for _, a := range cat {
		for _, b := range cat {
			for _, ac := range a.numericCols() {
				for _, bc := range b.numericCols() {
					e := oEdge{a, b, ac, bc}
					g.edges = append(g.edges, e)
					for k := range keys[a][ac] {
						if keys[b][bc][k] {
							g.matching = append(g.matching, e)
							break
						}
					}
				}
			}
		}
	}
	return g
}

// next draws statements until one stays under the size cap and returns it
// with its answer.
func (g *oGen) next() (*oQuery, [][]any) {
	for {
		q := g.query()
		if rows, err := q.eval(oMaxRows); err == nil {
			return q, rows
		}
	}
}

func (g *oGen) pick(n int) int { return g.r.Intn(n) }

func (g *oGen) chance(p float64) bool { return g.r.Float64() < p }

func (g *oGen) query() *oQuery {
	if g.chance(0.15) {
		return g.union()
	}
	q := &oQuery{blocks: []*oSelect{g.block(1+g.pick(3), g.chance(0.45))}}
	if b := q.blocks[0]; !b.grouped && g.chance(0.15) {
		b.distinct = true
	}
	if g.chance(0.5) {
		g.orderBy(q)
		if g.chance(0.6) {
			q.limit = 1 + g.pick(25)
			if g.chance(0.3) {
				q.offset = 1 + g.pick(8)
			}
		}
	}
	return q
}

// union draws two or three plain blocks whose columns agree in kind.
func (g *oGen) union() *oQuery {
	first := g.block(1+g.pick(2), false)
	q := &oQuery{blocks: []*oSelect{first}}
	for n := 1 + g.pick(2); n > 0; n-- {
		b := g.joined(1 + g.pick(2))
		for _, e := range first.items {
			b.items = append(b.items, g.exprOfKind(b, e.kind))
		}
		q.blocks = append(q.blocks, b)
	}
	return q
}

// orderBy orders q by every output column, so the order is total; columns
// whose value depends on summation order go last.
func (g *oGen) orderBy(q *oQuery) {
	b := q.blocks[0]
	var exact, inexact []int
	for i := range b.items {
		exact = append(exact, i)
	}
	for i, a := range b.aggs {
		if a.inexact() {
			inexact = append(inexact, len(b.items)+i)
		} else {
			exact = append(exact, len(b.items)+i)
		}
	}
	g.r.Shuffle(len(exact), func(i, j int) { exact[i], exact[j] = exact[j], exact[i] })
	for _, c := range append(exact, inexact...) {
		q.orderBy = append(q.orderBy, oOrder{col: c, desc: g.chance(0.4)})
	}
}

// joined draws the FROM clause and WHERE conjuncts of a block over n items.
func (g *oGen) joined(n int) *oSelect {
	b := &oSelect{from: []*oTable{g.cat[g.pick(len(g.cat))]}}
	for len(b.from) < n {
		// An edge whose first side is already in the FROM clause, mostly one
		// whose columns share values.
		edges := g.matching
		if g.chance(0.15) {
			edges = g.edges
		}
		var cand []oEdge
		for _, e := range edges {
			for _, t := range b.from {
				if e.a == t {
					cand = append(cand, e)
					break
				}
			}
		}
		e := cand[g.pick(len(cand))]
		var srcs []int
		for i, t := range b.from {
			if t == e.a {
				srcs = append(srcs, i)
			}
		}
		j := oJoin{leftSrc: []int{srcs[g.pick(len(srcs))]}, leftCol: []int{e.aCol}, rightCol: []int{e.bCol},
			outer: g.chance(0.25)}
		if g.chance(0.15) {
			// A second key between the same two items.
			l, r := b.from[j.leftSrc[0]], e.b
			lc, rc := l.numericCols(), r.numericCols()
			j.leftSrc = append(j.leftSrc, j.leftSrc[0])
			j.leftCol = append(j.leftCol, lc[g.pick(len(lc))])
			j.rightCol = append(j.rightCol, rc[g.pick(len(rc))])
		}
		b.joins = append(b.joins, j)
		b.from = append(b.from, e.b)
	}
	for src := range b.from {
		for g.chance(0.45) {
			b.where = append(b.where, g.pred(b, src))
		}
	}
	return b
}

// block draws a SELECT block: a projection, or a grouping with aggregates.
func (g *oGen) block(n int, grouped bool) *oSelect {
	b := g.joined(n)
	if !grouped {
		for k := 1 + g.pick(4); k > 0; k-- {
			b.items = append(b.items, g.expr(b))
		}
		return b
	}
	b.grouped = true
	for k := g.pick(3); k > 0; k-- {
		e := g.expr(b)
		for !e.hasCol {
			e = g.expr(b)
		}
		b.items = append(b.items, e)
	}
	for k := 1 + g.pick(3); k > 0; k-- {
		fn := []string{"COUNT", "COUNT", "SUM", "MIN", "MAX", "AVG"}[g.pick(6)]
		a := oAgg{fn: fn}
		switch {
		case fn == "COUNT" && g.chance(0.5): // COUNT(*)
		case fn == "COUNT", fn == "MIN", fn == "MAX":
			e := g.expr(b)
			a.arg = &e
		default:
			e := g.numeric(b, 1)
			a.arg = &e
		}
		b.aggs = append(b.aggs, a)
	}
	if g.chance(0.25) {
		h := &oHaving{agg: oAgg{fn: "COUNT"}, op: []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)]}
		h.v = int64(g.pick(4))
		if g.chance(0.5) {
			e := g.numeric(b, 1)
			h.agg = oAgg{fn: []string{"SUM", "MIN", "MAX"}[g.pick(3)], arg: &e}
			h.v = g.numLit().eval(nil)
		}
		b.having = h
	}
	return b
}

// column returns a random column of a random FROM item: of any kind, or a
// number when k is oDouble, or of kind k.
func (g *oGen) column(b *oSelect, k oKind, anyKind bool) (oExpr, bool) {
	type ref struct{ src, col int }
	var refs []ref
	for s, t := range b.from {
		for c, ck := range t.kinds {
			if anyKind || ck == k || (k == oDouble && ck == oInt) {
				refs = append(refs, ref{s, c})
			}
		}
	}
	if len(refs) == 0 {
		return oExpr{}, false
	}
	r := refs[g.pick(len(refs))]
	return colExpr(b, r.src, r.col), true
}

func colExpr(b *oSelect, src, col int) oExpr {
	return oExpr{
		sql:    fmt.Sprintf("t%d.%s", src, b.from[src].cols[col]),
		kind:   b.from[src].kinds[col],
		hasCol: true,
		eval: func(t oTuple) any {
			if t[src] == nil { // padded by a left join
				return nil
			}
			return t[src][col]
		},
	}
}

// expr draws a projection item: a column of any kind, or arithmetic.
func (g *oGen) expr(b *oSelect) oExpr {
	if g.chance(0.35) {
		return g.numeric(b, 2)
	}
	e, _ := g.column(b, 0, true)
	if e.kind == oString && g.chance(0.1) {
		return oCoalesce(e, "zz")
	}
	return e
}

// oCoalesce is COALESCE(e, v).
func oCoalesce(e oExpr, v any) oExpr {
	kind := e.kind
	if _, ok := v.(float64); ok {
		kind = oDouble
	}
	return oExpr{
		sql:    "COALESCE(" + e.sql + ", " + oLiteral(v) + ")",
		kind:   kind,
		hasCol: e.hasCol,
		eval: func(t oTuple) any {
			if x := e.eval(t); x != nil {
				return x
			}
			return v
		},
	}
}

// numeric draws a numeric expression of at most depth arithmetic levels.
func (g *oGen) numeric(b *oSelect, depth int) oExpr {
	if depth == 0 || g.chance(0.4) {
		if g.chance(0.15) {
			return g.numLit()
		}
		if e, ok := g.column(b, oDouble, false); ok {
			if g.chance(0.08) {
				return oCoalesce(e, g.numLit().eval(nil))
			}
			return e
		}
		return g.numLit()
	}
	if g.chance(0.1) {
		// CASE WHEN <comparison over one FROM item> THEN x ELSE y END
		src := g.pick(len(b.from))
		p := g.pred(b, src)
		x, y := g.numeric(b, depth-1), g.numeric(b, depth-1)
		kind := oInt
		if x.kind == oDouble || y.kind == oDouble {
			kind = oDouble
		}
		return oExpr{
			sql:    "CASE WHEN " + p.render(oLiteral) + " THEN " + x.sql + " ELSE " + y.sql + " END",
			kind:   kind,
			hasCol: true,
			eval: func(t oTuple) any {
				if p.eval(b.row(t, src)) == oTrue {
					return x.eval(t)
				}
				return y.eval(t)
			},
		}
	}
	x, y := g.numeric(b, depth-1), g.numeric(b, depth-1)
	op := "+-*"[g.pick(3)]
	kind := oInt
	if x.kind == oDouble || y.kind == oDouble {
		kind = oDouble
	}
	return oExpr{
		sql:    "(" + x.sql + " " + string(op) + " " + y.sql + ")",
		kind:   kind,
		hasCol: x.hasCol || y.hasCol,
		eval:   func(t oTuple) any { return oArith(op, x.eval(t), y.eval(t)) },
	}
}

func (g *oGen) numLit() oExpr {
	var v any = int64(g.pick(20))
	if g.chance(0.3) {
		v = float64(g.pick(40)) / 4
	}
	kind := oInt
	if _, ok := v.(float64); ok {
		kind = oDouble
	}
	return oExpr{sql: oLiteral(v), kind: kind, eval: func(oTuple) any { return v }}
}

// exprOfKind draws a column of kind k, or a literal when the block has none.
func (g *oGen) exprOfKind(b *oSelect, k oKind) oExpr {
	var refs [][2]int
	for s, t := range b.from {
		for c, ck := range t.kinds {
			if ck == k {
				refs = append(refs, [2]int{s, c})
			}
		}
	}
	if len(refs) > 0 {
		r := refs[g.pick(len(refs))]
		return colExpr(b, r[0], r[1])
	}
	var v any
	switch k {
	case oInt:
		v = int64(g.pick(10))
	case oDouble:
		v = float64(g.pick(10)) + 0.5
	default:
		v = "x"
	}
	return oExpr{sql: oLiteral(v), kind: k, eval: func(oTuple) any { return v }}
}

// value draws a literal for comparisons with column c of t: a value the
// column holds, or for numbers one near it, integral or not.
func (g *oGen) value(t *oTable, c int) any {
	var seen any
	for tries := 0; tries < 8 && seen == nil; tries++ {
		seen = t.rows[g.pick(len(t.rows))][c]
	}
	if t.kinds[c] == oString {
		s, _ := seen.(string)
		if g.chance(0.3) && len(s) > 1 {
			s = s[:1+g.pick(len(s)-1)] // a prefix: a range bound between values
		}
		return s
	}
	f, ok := oNumber(seen)
	if !ok {
		f = 0
	}
	switch g.pick(4) {
	case 0:
		return f + 0.5
	case 1:
		return f - float64(g.pick(3))
	}
	if t.kinds[c] == oInt || g.chance(0.5) {
		return int64(f)
	}
	return f
}

// pred draws a conjunct over FROM item src: a comparison, or one under NOT
// or OR.
func (g *oGen) pred(b *oSelect, src int) oPred {
	switch x := g.atom(b, src); {
	case g.chance(0.1):
		return oPred{src: src,
			render: func(lit func(any) string) string { return "NOT (" + x.render(lit) + ")" },
			eval:   func(row []any) oTri { return oNot(x.eval(row)) }}
	case g.chance(0.12):
		y := g.atom(b, src)
		return oPred{src: src,
			render: func(lit func(any) string) string {
				l := x.render(lit) // placeholders bind left to right
				return "(" + l + " OR " + y.render(lit) + ")"
			},
			eval: func(row []any) oTri { return oOr(x.eval(row), y.eval(row)) }}
	default:
		return x
	}
}

// atom draws one comparison over a column of FROM item src.
func (g *oGen) atom(b *oSelect, src int) oPred {
	t := b.from[src]
	c := g.pick(len(t.cols))
	name := fmt.Sprintf("t%d.%s", src, t.cols[c])
	switch g.pick(6) {
	case 0:
		not := g.chance(0.7)
		text := name + " IS NULL"
		if not {
			text = name + " IS NOT NULL"
		}
		return oPred{src: src, render: func(func(any) string) string { return text },
			eval: func(row []any) oTri { return oTriOf((row[c] == nil) != not) }}
	case 1:
		lo, hi := g.value(t, c), g.value(t, c)
		if g.chance(0.8) && oCompare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		return oPred{src: src,
			render: func(lit func(any) string) string {
				l := lit(lo)
				return name + " BETWEEN " + l + " AND " + lit(hi)
			},
			eval: func(row []any) oTri {
				if row[c] == nil {
					return oUnknown
				}
				return oTriOf(oCompare(row[c], lo) >= 0 && oCompare(row[c], hi) <= 0)
			}}
	case 2:
		vals := make([]any, 1+g.pick(4))
		for i := range vals {
			vals[i] = g.value(t, c)
		}
		return oPred{src: src,
			render: func(lit func(any) string) string {
				parts := make([]string, len(vals))
				for i, v := range vals {
					parts[i] = lit(v)
				}
				return name + " IN (" + strings.Join(parts, ", ") + ")"
			},
			eval: func(row []any) oTri {
				if row[c] == nil {
					return oUnknown
				}
				for _, x := range vals {
					if oCompare(row[c], x) == 0 {
						return oTrue
					}
				}
				return oFalse
			}}
	case 3:
		if t.kinds[c] != oString {
			// Arithmetic over the item's columns against a literal.
			one := &oSelect{from: []*oTable{t}}
			e := g.numeric(one, 1)
			text := strings.ReplaceAll(e.sql, "t0.", fmt.Sprintf("t%d.", src))
			op := []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)]
			v := g.value(t, c)
			return oPred{src: src,
				render: func(lit func(any) string) string { return text + " " + op + " " + oLiteral(v) },
				eval: func(row []any) oTri {
					x := e.eval(oTuple{row})
					if x == nil {
						return oUnknown
					}
					return oTriOf(oHolds(op, oCompare(x, v)))
				}}
		}
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[g.pick(6)]
	v := g.value(t, c)
	return oPred{src: src,
		render: func(lit func(any) string) string { return name + " " + op + " " + lit(v) },
		eval: func(row []any) oTri {
			if row[c] == nil {
				return oUnknown
			}
			return oTriOf(oHolds(op, oCompare(row[c], v)))
		}}
}

func oHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}
