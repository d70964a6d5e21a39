package exec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// runBoth executes the same plan through the batch path and the row path and
// requires identical results (row order included: every operator pair must
// preserve the same deterministic order).
func runBoth(t *testing.T, n rel.Node) [][]any {
	t.Helper()
	batch, err := exec.Execute(exec.NewContext(), n)
	if err != nil {
		t.Fatalf("batch execute: %v\n%s", err, rel.Explain(n))
	}
	row, err := exec.Execute(exec.NewRowContext(), n)
	if err != nil {
		t.Fatalf("row execute: %v\n%s", err, rel.Explain(n))
	}
	if !reflect.DeepEqual(batch, row) {
		t.Fatalf("batch/row divergence on\n%s\nbatch: %v\nrow:   %v", rel.Explain(n), batch, row)
	}
	return batch
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

func TestBatchFilterProjectParity(t *testing.T) {
	tb := numbersTable(2500) // > 2 batches at the default batch size
	id := rex.NewInputRef(0, types.BigInt)
	score := rex.NewInputRef(1, types.Double)
	name := rex.NewInputRef(2, types.Varchar)

	conditions := []rex.Node{
		rex.NewCall(rex.OpGreater, id, rex.Int(1200)),
		rex.NewCall(rex.OpIsNotNull, score),
		rex.And(rex.NewCall(rex.OpGreaterEqual, id, rex.Int(100)),
			rex.NewCall(rex.OpLess, score, rex.Float(900))),
		rex.NewCall(rex.OpLike, name, rex.Str("name-01%")), // no kernel: compiled closure
		rex.Bool(false), // empty result
	}
	for _, cond := range conditions {
		filter := exec.NewFilter(scanOf(tb), cond)
		proj := exec.NewProject(filter, []rex.Node{
			id,
			rex.NewCall(rex.OpPlus, id, rex.Int(1000)),
			rex.NewCall(rex.OpTimes, score, rex.Float(2)),
			rex.NewCall(rex.OpUpper, name),
		}, []string{"id", "id2", "s2", "uname"})
		runBoth(t, proj)
	}
}

func TestBatchJoinAggregateSortParity(t *testing.T) {
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
	left := pair("bl", mkRows(900, 40)...)
	right := pair("br", mkRows(300, 40)...)
	cond := rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))

	for _, kind := range []rel.JoinKind{
		rel.InnerJoin, rel.LeftJoin, rel.RightJoin, rel.FullJoin, rel.SemiJoin, rel.AntiJoin,
	} {
		runBoth(t, exec.NewHashJoin(kind, scanOf(left), scanOf(right), cond))
	}

	// Joins with a residual (non-equi) condition.
	residual := rex.And(cond, rex.NewCall(rex.OpLess,
		rex.NewInputRef(1, types.Varchar), rex.NewInputRef(3, types.Varchar)))
	for _, kind := range []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.SemiJoin, rel.AntiJoin} {
		runBoth(t, exec.NewHashJoin(kind, scanOf(left), scanOf(right), residual))
	}

	// Aggregate: grouped and global, over a batched subtree.
	agg := exec.NewAggregate(scanOf(left), []int{0}, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggMin, []int{1}, false, "mn"),
	})
	runBoth(t, agg)
	runBoth(t, exec.NewAggregate(scanOf(left), nil, []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
	}))

	// Sort + limit + offset.
	collation := trait.Collation{{Field: 0}, {Field: 1}}
	runBoth(t, exec.NewSort(scanOf(left), collation, 13, 55))
	// Pure limit (streaming path).
	runBoth(t, exec.NewLimit(scanOf(left), 7, 20))
	runBoth(t, exec.NewLimit(scanOf(left), 0, 0))
	runBoth(t, exec.NewLimit(scanOf(left), 5000, -1))
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
	rows := runBoth(t, filter)
	if len(rows) != 10 {
		t.Fatalf("selected %d rows", len(rows))
	}
	got := make([]int, len(rows))
	for i, r := range rows {
		got[i] = int(r[0].(int64))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("selection order lost: %v", got)
	}
}
