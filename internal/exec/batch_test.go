package exec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// checkRows executes n and compares its rows with want, which the test
// computes in plain Go from the tables' rows: in order when ordered, else as
// multisets.
func checkRows(t *testing.T, n rel.Node, want [][]any, ordered bool) [][]any {
	t.Helper()
	got, err := exec.Execute(exec.NewContext(), n)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, rel.Explain(n))
	}
	g, w := renderEach(got), renderEach(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("wrong rows from\n%s\ngot:  %v\nwant: %v", rel.Explain(n), g, w)
	}
	return got
}

func renderEach(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

func numbersTable(n int) *schema.MemTable {
	rows := make([][]any, n)
	for i := range rows {
		var f any
		if i%5 != 0 {
			f = float64(i) / 2
		}
		rows[i] = []any{int64(i), f, fmt.Sprintf("name-%03d", i%17)}
	}
	return schema.NewMemTable("nums", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "score", Type: types.Double.WithNullable(true)},
		types.Field{Name: "name", Type: types.Varchar},
	), rows)
}

func TestFilterProjectMatchGo(t *testing.T) {
	tb := numbersTable(2500) // > 2 batches at the default batch size
	id := rex.NewInputRef(0, types.BigInt)
	score := rex.NewInputRef(1, types.Double)
	name := rex.NewInputRef(2, types.Varchar)

	for _, c := range []struct {
		cond rex.Node
		keep func(id int64, score any, name string) bool
	}{
		{rex.NewCall(rex.OpGreater, id, rex.Int(1200)),
			func(id int64, _ any, _ string) bool { return id > 1200 }},
		{rex.NewCall(rex.OpIsNotNull, score),
			func(_ int64, score any, _ string) bool { return score != nil }},
		{rex.And(rex.NewCall(rex.OpGreaterEqual, id, rex.Int(100)),
			rex.NewCall(rex.OpLess, score, rex.Float(900))),
			func(id int64, score any, _ string) bool { return id >= 100 && score != nil && score.(float64) < 900 }},
		{rex.NewCall(rex.OpLike, name, rex.Str("name-01%")), // no kernel: compiled closure
			func(_ int64, _ any, name string) bool { return strings.HasPrefix(name, "name-01") }},
		{rex.Bool(false), // empty result
			func(int64, any, string) bool { return false }},
	} {
		filter := exec.NewFilter(scanOf(tb), c.cond)
		proj := exec.NewProject(filter, []rex.Node{
			id,
			rex.NewCall(rex.OpPlus, id, rex.Int(1000)),
			rex.NewCall(rex.OpTimes, score, rex.Float(2)),
			rex.NewCall(rex.OpUpper, name),
		}, []string{"id", "id2", "s2", "uname"})
		var want [][]any
		for _, r := range tb.Rows() {
			id, name := r[0].(int64), r[2].(string)
			if !c.keep(id, r[1], name) {
				continue
			}
			var s2 any
			if r[1] != nil {
				s2 = r[1].(float64) * 2
			}
			want = append(want, []any{id, id + 1000, s2, strings.ToUpper(name)})
		}
		checkRows(t, proj, want, true)
	}
}

// joinInGo joins two [k, v] tables on equal non-NULL keys plus extra, with
// the join kind's padding.
func joinInGo(kind rel.JoinKind, left, right [][]any, extra func(l, r []any) bool) [][]any {
	match := func(l, r []any) bool { return l[0] != nil && r[0] != nil && l[0] == r[0] && extra(l, r) }
	var out [][]any
	rightMatched := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for i, r := range right {
			if !match(l, r) {
				continue
			}
			matched, rightMatched[i] = true, true
			if kind != rel.SemiJoin && kind != rel.AntiJoin {
				out = append(out, []any{l[0], l[1], r[0], r[1]})
			}
		}
		switch {
		case kind == rel.SemiJoin && matched, kind == rel.AntiJoin && !matched:
			out = append(out, []any{l[0], l[1]})
		case (kind == rel.LeftJoin || kind == rel.FullJoin) && !matched:
			out = append(out, []any{l[0], l[1], nil, nil})
		}
	}
	if kind == rel.RightJoin || kind == rel.FullJoin {
		for i, r := range right {
			if !rightMatched[i] {
				out = append(out, []any{nil, nil, r[0], r[1]})
			}
		}
	}
	return out
}

// nullsFirst orders two BIGINT-or-NULL values as the sort kernel does.
func nullsFirst(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	case a.(int64) < b.(int64):
		return -1
	case a.(int64) > b.(int64):
		return 1
	}
	return 0
}

func TestJoinAggregateSortMatchGo(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mkRows := func(n, keyRange int) [][]any {
		rows := make([][]any, n)
		for i := range rows {
			var k any
			if r.Intn(10) == 0 {
				k = nil
			} else {
				k = int64(r.Intn(keyRange))
			}
			rows[i] = []any{k, fmt.Sprintf("v%d", i)}
		}
		return rows
	}
	leftRows, rightRows := mkRows(900, 40), mkRows(300, 40)
	left, right := pair("bl", leftRows...), pair("br", rightRows...)
	cond := rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	always := func(l, r []any) bool { return true }

	for _, kind := range []rel.JoinKind{
		rel.InnerJoin, rel.LeftJoin, rel.RightJoin, rel.FullJoin, rel.SemiJoin, rel.AntiJoin,
	} {
		checkRows(t, exec.NewHashJoin(kind, scanOf(left), scanOf(right), cond),
			joinInGo(kind, leftRows, rightRows, always), false)
	}

	// Joins with a residual (non-equi) condition.
	residual := rex.And(cond, rex.NewCall(rex.OpLess,
		rex.NewInputRef(1, types.Varchar), rex.NewInputRef(3, types.Varchar)))
	less := func(l, r []any) bool { return l[1].(string) < r[1].(string) }
	for _, kind := range []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.SemiJoin, rel.AntiJoin} {
		checkRows(t, exec.NewHashJoin(kind, scanOf(left), scanOf(right), residual),
			joinInGo(kind, leftRows, rightRows, less), false)
	}

	// Aggregate: grouped and global, over a batched subtree.
	agg := exec.NewAggregate(scanOf(left), []int{0}, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggMin, []int{1}, false, "mn"),
	})
	groups := map[any][]any{}
	for _, row := range leftRows {
		g, ok := groups[row[0]]
		if !ok {
			g = []any{row[0], int64(0), row[1]}
			groups[row[0]] = g
		}
		g[1] = g[1].(int64) + 1
		if row[1].(string) < g[2].(string) {
			g[2] = row[1]
		}
	}
	var grouped [][]any
	for _, g := range groups {
		grouped = append(grouped, g)
	}
	checkRows(t, agg, grouped, false)
	checkRows(t, exec.NewAggregate(scanOf(left), nil, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
	}), [][]any{{int64(len(leftRows))}}, true)

	// Sort + limit + offset.
	collation := trait.Collation{{Field: 0}, {Field: 1}}
	sorted := append([][]any(nil), leftRows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if c := nullsFirst(sorted[i][0], sorted[j][0]); c != 0 {
			return c < 0
		}
		return sorted[i][1].(string) < sorted[j][1].(string)
	})
	checkRows(t, exec.NewSort(scanOf(left), collation, 13, 55), sorted[13:68], true)
	// Pure limit (streaming path).
	checkRows(t, exec.NewLimit(scanOf(left), 7, 20), leftRows[7:27], true)
	checkRows(t, exec.NewLimit(scanOf(left), 0, 0), nil, true)
	checkRows(t, exec.NewLimit(scanOf(left), 5000, -1), nil, true)
}

// TestBatchErrorPropagation: errors surfaced by row cursors must cross the
// batch shims, and errors in compiled expressions must abort the query.
func TestBatchErrorPropagation(t *testing.T) {
	ft := &failingTable{pair("f")}
	scan := exec.NewScan(ft, []string{"f"})
	agg := exec.NewAggregate(exec.NewFilter(scan, rex.Bool(true)), nil,
		[]rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
	if _, err := exec.Execute(exec.NewContext(), agg); err == nil {
		t.Fatal("batch path swallowed cursor error")
	}
	// Division by zero inside a compiled projection.
	tb := pair("z", []any{int64(1), "a"})
	proj := exec.NewProject(scanOf(tb), []rex.Node{
		rex.NewCall(rex.OpDivide, rex.NewInputRef(0, types.BigInt), rex.Int(0)),
	}, []string{"boom"})
	if _, err := exec.Execute(exec.NewContext(), proj); err == nil {
		t.Fatal("compiled division by zero not reported")
	}
}

// TestBatchSelectionVectorFlow: a filter's selection must narrow without
// copying columns, and downstream operators must observe only live rows.
func TestBatchSelectionVectorFlow(t *testing.T) {
	tb := numbersTable(1000)
	cond := rex.NewCall(rex.OpEquals,
		rex.NewCall(rex.OpTimes, rex.NewInputRef(0, types.BigInt), rex.Int(1)),
		rex.NewInputRef(0, types.BigInt)) // trivially true but kernel-less
	filter := exec.NewFilter(scanOf(tb), rex.And(
		cond, rex.NewCall(rex.OpLess, rex.NewInputRef(0, types.BigInt), rex.Int(10))))
	checkRows(t, filter, tb.Rows()[:10], true)
}
