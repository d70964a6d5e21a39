package main

// Statement specs. Every statement the benchmark sends is built from a small
// structured spec that renders to SQL text AND evaluates itself, in plain Go
// over the generator's own arrays, to the rows the engine must return. That
// evaluator is the benchmark's reference: it shares no code with the engine,
// so a result is never checked by the path under test.

import (
	"fmt"
	"sort"
	"strings"

	"calcite/internal/types"
)

// table is one generated relation: the rows handed to the engine and read by
// the reference evaluator.
type table struct {
	name  string // SQL name, schema-qualified where an adapter owns it
	cols  []string
	types []*types.Type
	rows  [][]any
}

func (t *table) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	panic("benchmark: table " + t.name + " has no column " + name)
}

// tuple is one joined row: tuple[i] is the row of query.from[i].
type tuple [][]any

// scalar is an expression over a joined tuple, carrying its SQL text and its
// Go evaluator side by side.
type scalar struct {
	sql  string
	eval func(t tuple) any
}

// source is one FROM item.
type source struct {
	tab   *table
	alias string
}

// pred is one conjunct of the WHERE clause; src is the only FROM position it
// reads, so the evaluator can apply it while scanning that table.
type pred struct {
	sql  string
	src  int
	ok   func(row []any) bool
	bind []any // literal values, in "?" order, when parameterized
}

// join attaches from[i] (i >= 1) to the tuple built so far by an inner
// equi-join: left is a column of an earlier FROM item.
type join struct {
	leftSrc, leftCol int
	rightCol         int
}

type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggMin
	aggMax
)

type aggSpec struct {
	kind aggKind
	arg  scalar // unused for COUNT(*)
	as   string
}

// windowSpec is SUM(arg) OVER (PARTITION BY part ORDER BY order ROWS
// preceding PRECEDING); order must be unique within a partition.
type windowSpec struct {
	arg, part, order scalar
	preceding        int
	as               string
}

type orderKey struct {
	col  int // output column ordinal
	desc bool
}

// query is a SELECT over inner equi-joins with conjunctive predicates and one
// of three heads: plain projection, GROUP BY aggregation, or projection plus
// one window column.
type query struct {
	from    []source
	joins   []join // joins[i-1] attaches from[i]
	where   []pred
	selects []scalar // projection, or the group-by columns when aggs != nil
	names   []string // output names of selects
	aggs    []aggSpec
	window  *windowSpec
	orderBy []orderKey // must be a total order when limit > 0
	limit   int
}

func (q *query) colOf(src int, name string) scalar {
	c := q.from[src].tab.col(name)
	return scalar{
		sql:  q.from[src].alias + "." + name,
		eval: func(t tuple) any { return t[src][c] },
	}
}

func lit(v any) scalar {
	return scalar{sql: sqlLiteral(v), eval: func(tuple) any { return v }}
}

func sqlLiteral(v any) string {
	switch x := v.(type) {
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case float64:
		s := fmt.Sprintf("%g", x)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
	default:
		return fmt.Sprint(x)
	}
}

// arith builds a binary arithmetic expression (+, - or *).
func arith(op byte, a, b scalar) scalar {
	return scalar{
		sql:  "(" + a.sql + " " + string(op) + " " + b.sql + ")",
		eval: func(t tuple) any { return arithVals(op, a.eval(t), b.eval(t)) },
	}
}

// arithVals applies op to two numbers: int64 with int64 stays integral,
// anything else promotes to float64, as SQL does.
func arithVals(op byte, x, y any) any {
	xi, xInt := x.(int64)
	yi, yInt := y.(int64)
	if xInt && yInt {
		switch op {
		case '+':
			return xi + yi
		case '-':
			return xi - yi
		default:
			return xi * yi
		}
	}
	xf, _ := types.AsFloat(x)
	yf, _ := types.AsFloat(y)
	switch op {
	case '+':
		return xf + yf
	case '-':
		return xf - yf
	default:
		return xf * yf
	}
}

// cmpPred builds "alias.col op literal". With bind the literal renders as "?".
func (q *query) cmpPred(src int, col, op string, v any, bind bool) pred {
	c := q.from[src].tab.col(col)
	text := sqlLiteral(v)
	var binds []any
	if bind {
		text, binds = "?", []any{v}
	}
	return pred{
		sql:  q.from[src].alias + "." + col + " " + op + " " + text,
		src:  src,
		bind: binds,
		ok: func(row []any) bool {
			if row[c] == nil {
				return false
			}
			d := types.Compare(row[c], v)
			switch op {
			case "=":
				return d == 0
			case "<>":
				return d != 0
			case "<":
				return d < 0
			case "<=":
				return d <= 0
			case ">":
				return d > 0
			default: // ">="
				return d >= 0
			}
		},
	}
}

// betweenPred builds "alias.col BETWEEN lo AND hi".
func (q *query) betweenPred(src int, col string, lo, hi any) pred {
	c := q.from[src].tab.col(col)
	return pred{
		sql: fmt.Sprintf("%s.%s BETWEEN %s AND %s", q.from[src].alias, col, sqlLiteral(lo), sqlLiteral(hi)),
		src: src,
		ok: func(row []any) bool {
			return row[c] != nil && types.Compare(row[c], lo) >= 0 && types.Compare(row[c], hi) <= 0
		},
	}
}

// inPred builds "alias.col IN (v...)".
func (q *query) inPred(src int, col string, vals []any) pred {
	c := q.from[src].tab.col(col)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = sqlLiteral(v)
	}
	return pred{
		sql: fmt.Sprintf("%s.%s IN (%s)", q.from[src].alias, col, strings.Join(parts, ", ")),
		src: src,
		ok: func(row []any) bool {
			for _, v := range vals {
				if row[c] != nil && types.Compare(row[c], v) == 0 {
					return true
				}
			}
			return false
		},
	}
}

// SQL renders the statement and, for parameterized predicates, its bind
// values in placeholder order.
func (q *query) SQL() (string, []any) {
	var b strings.Builder
	b.WriteString("SELECT ")
	var items []string
	for i, s := range q.selects {
		items = append(items, s.sql+" AS "+q.names[i])
	}
	for _, a := range q.aggs {
		switch a.kind {
		case aggCount:
			items = append(items, "COUNT(*) AS "+a.as)
		case aggSum:
			items = append(items, "SUM("+a.arg.sql+") AS "+a.as)
		case aggMin:
			items = append(items, "MIN("+a.arg.sql+") AS "+a.as)
		case aggMax:
			items = append(items, "MAX("+a.arg.sql+") AS "+a.as)
		}
	}
	if w := q.window; w != nil {
		items = append(items, fmt.Sprintf("SUM(%s) OVER (PARTITION BY %s ORDER BY %s ROWS %d PRECEDING) AS %s",
			w.arg.sql, w.part.sql, w.order.sql, w.preceding, w.as))
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM " + q.from[0].tab.name + " " + q.from[0].alias)
	for i, j := range q.joins {
		r := q.from[i+1]
		fmt.Fprintf(&b, " JOIN %s %s ON %s.%s = %s.%s", r.tab.name, r.alias,
			q.from[j.leftSrc].alias, q.from[j.leftSrc].tab.cols[j.leftCol], r.alias, r.tab.cols[j.rightCol])
	}
	var params []any
	for i, p := range q.where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.sql)
		params = append(params, p.bind...)
	}
	if q.aggs != nil && len(q.selects) > 0 {
		b.WriteString(" GROUP BY ")
		for i, s := range q.selects {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.sql)
		}
	}
	for i, k := range q.orderBy {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(q.outputName(k.col))
		if k.desc {
			b.WriteString(" DESC")
		}
	}
	if q.limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String(), params
}

func (q *query) outputName(col int) string {
	if col < len(q.names) {
		return q.names[col]
	}
	col -= len(q.names)
	if col < len(q.aggs) {
		return q.aggs[col].as
	}
	return q.window.as
}

// inputRows is the number of source rows the statement has to read: the sum
// of the sizes of the tables in its FROM clause.
func (q *query) inputRows() int64 {
	var n int64
	for _, s := range q.from {
		n += int64(len(s.tab.rows))
	}
	return n
}

// eval computes the statement's result with hash joins over the generator's
// arrays; the row order is the ORDER BY order when one is given and otherwise
// arbitrary.
func (q *query) eval() [][]any {
	filtered := func(src int) [][]any {
		var mine []pred
		for _, p := range q.where {
			if p.src == src {
				mine = append(mine, p)
			}
		}
		rows := q.from[src].tab.rows
		if len(mine) == 0 {
			return rows
		}
		var out [][]any
	next:
		for _, r := range rows {
			for _, p := range mine {
				if !p.ok(r) {
					continue next
				}
			}
			out = append(out, r)
		}
		return out
	}

	var tuples []tuple
	for _, r := range filtered(0) {
		t := make(tuple, len(q.from))
		t[0] = r
		tuples = append(tuples, t)
	}
	for i, j := range q.joins {
		build := map[any][][]any{}
		for _, r := range filtered(i + 1) {
			if k := joinKey(r[j.rightCol]); k != nil {
				build[k] = append(build[k], r)
			}
		}
		var next []tuple
		for _, t := range tuples {
			k := joinKey(t[j.leftSrc][j.leftCol])
			if k == nil {
				continue
			}
			for n, r := range build[k] {
				nt := t
				if n > 0 {
					nt = append(tuple(nil), t...)
				}
				nt[i+1] = r
				next = append(next, nt)
			}
		}
		tuples = next
	}

	var out [][]any
	switch {
	case q.aggs != nil:
		out = q.aggregate(tuples)
	case q.window != nil:
		out = q.windowed(tuples)
	default:
		out = make([][]any, len(tuples))
		for i, t := range tuples {
			out[i] = q.project(t)
		}
	}
	if len(q.orderBy) > 0 {
		sort.SliceStable(out, func(a, b int) bool {
			for _, k := range q.orderBy {
				d := types.Compare(out[a][k.col], out[b][k.col])
				if k.desc {
					d = -d
				}
				if d != 0 {
					return d < 0
				}
			}
			return false
		})
	}
	if q.limit > 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

// joinKey folds integral floats onto int64 so a BIGINT key joins a DOUBLE one
// the way the engine's hash keys do; NULL never joins.
func joinKey(v any) any {
	if f, ok := v.(float64); ok && f == float64(int64(f)) {
		return int64(f)
	}
	return v
}

func (q *query) project(t tuple) []any {
	row := make([]any, len(q.selects), len(q.selects)+1)
	for i, s := range q.selects {
		row[i] = s.eval(t)
	}
	return row
}

func (q *query) aggregate(tuples []tuple) [][]any {
	type group struct {
		key  []any
		accs []any
		seen []bool
	}
	groups := map[string]*group{}
	var order []*group
	for _, t := range tuples {
		key := q.project(t)
		id := fmt.Sprint(key...)
		g := groups[id]
		if g == nil {
			g = &group{key: key, accs: make([]any, len(q.aggs)), seen: make([]bool, len(q.aggs))}
			groups[id] = g
			order = append(order, g)
		}
		for i, a := range q.aggs {
			if a.kind == aggCount {
				n, _ := g.accs[i].(int64)
				g.accs[i] = n + 1
				continue
			}
			v := a.arg.eval(t)
			if v == nil {
				continue
			}
			if !g.seen[i] {
				g.accs[i], g.seen[i] = v, true
				continue
			}
			switch a.kind {
			case aggSum:
				g.accs[i] = arithVals('+', g.accs[i], v)
			case aggMin:
				if types.Compare(v, g.accs[i]) < 0 {
					g.accs[i] = v
				}
			case aggMax:
				if types.Compare(v, g.accs[i]) > 0 {
					g.accs[i] = v
				}
			}
		}
	}
	if len(order) == 0 && len(q.selects) == 0 {
		// A global aggregate over no rows still returns one row.
		g := &group{accs: make([]any, len(q.aggs))}
		for i, a := range q.aggs {
			if a.kind == aggCount {
				g.accs[i] = int64(0)
			}
		}
		order = append(order, g)
	}
	out := make([][]any, len(order))
	for i, g := range order {
		out[i] = append(append([]any(nil), g.key...), g.accs...)
	}
	return out
}

func (q *query) windowed(tuples []tuple) [][]any {
	w := q.window
	parts := map[any][]tuple{}
	for _, t := range tuples {
		k := w.part.eval(t)
		parts[k] = append(parts[k], t)
	}
	out := make([][]any, 0, len(tuples))
	for _, ts := range parts {
		sort.Slice(ts, func(a, b int) bool {
			return types.Compare(w.order.eval(ts[a]), w.order.eval(ts[b])) < 0
		})
		for i, t := range ts {
			lo := i - w.preceding
			if lo < 0 {
				lo = 0
			}
			var sum any
			for _, u := range ts[lo : i+1] {
				if v := w.arg.eval(u); v != nil {
					if sum == nil {
						sum = v
					} else {
						sum = arithVals('+', sum, v)
					}
				}
			}
			out = append(out, append(q.project(t), sum))
		}
	}
	return out
}
