package exec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func scanOf(t *schema.MemTable) rel.Node {
	return exec.NewScan(t, []string{t.Name()})
}

func run(t *testing.T, n rel.Node) [][]any {
	t.Helper()
	rows, err := exec.Execute(exec.NewContext(), n)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, rel.Explain(n))
	}
	return rows
}

func pair(name string, rows ...[]any) *schema.MemTable {
	return schema.NewMemTable(name, types.Row(
		types.Field{Name: "k", Type: types.BigInt.WithNullable(true)},
		types.Field{Name: "v", Type: types.Varchar},
	), rows)
}

func TestOuterJoins(t *testing.T) {
	left := pair("l", []any{int64(1), "a"}, []any{int64(2), "b"}, []any{nil, "n"})
	right := pair("r", []any{int64(1), "x"}, []any{int64(3), "y"})
	cond := rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))

	cases := []struct {
		kind rel.JoinKind
		want int
	}{
		{rel.InnerJoin, 1},
		{rel.LeftJoin, 3},  // 1 match + 2 null-extended
		{rel.RightJoin, 2}, // 1 match + 1 null-extended
		{rel.FullJoin, 4},
		{rel.SemiJoin, 1},
		{rel.AntiJoin, 2}, // k=2 and k=NULL never match
	}
	for _, c := range cases {
		hj := exec.NewHashJoin(c.kind, scanOf(left), scanOf(right), cond)
		if got := len(run(t, hj)); got != c.want {
			t.Errorf("hash %s join: %d rows, want %d", c.kind, got, c.want)
		}
	}
}

// Property: the hash join's keyed path (k = k2 as an equi key) and its
// keyless path (the same predicate as k <= k2 AND k >= k2, which carries no
// equi key, so every build row is a candidate) return the same rows for
// every join kind on random inputs with NULL keys.
func TestJoinImplementationsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	l0, r2 := rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)
	keyed := rex.Eq(l0, r2)
	keyless := rex.And(rex.NewCall(rex.OpLessEqual, l0, r2), rex.NewCall(rex.OpGreaterEqual, l0, r2))
	if info := exec.AnalyzeJoin(keyless, 2); len(info.LeftKeys) != 0 {
		t.Fatalf("keyless condition has equi keys %v", info.LeftKeys)
	}
	sorted := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, row := range rows {
			out[i] = fmt.Sprint(row)
		}
		sort.Strings(out)
		return out
	}
	kinds := []rel.JoinKind{rel.InnerJoin, rel.LeftJoin, rel.RightJoin, rel.FullJoin, rel.SemiJoin, rel.AntiJoin}
	for trial := 0; trial < 30; trial++ {
		mk := func(name string, n int) *schema.MemTable {
			rows := make([][]any, n)
			for i := range rows {
				var k any = int64(r.Intn(6))
				if r.Intn(8) == 0 {
					k = nil
				}
				rows[i] = []any{k, fmt.Sprintf("%s%d", name, i)}
			}
			return pair(name, rows...)
		}
		l, rt := mk("l", 20), mk("r", 15)
		for _, kind := range kinds {
			hash := sorted(run(t, exec.NewHashJoin(kind, scanOf(l), scanOf(rt), keyed)))
			loop := sorted(run(t, exec.NewHashJoin(kind, scanOf(l), scanOf(rt), keyless)))
			if fmt.Sprint(hash) != fmt.Sprint(loop) {
				t.Fatalf("trial %d %s: keyed %d rows, keyless %d rows\nkeyed   %v\nkeyless %v",
					trial, kind, len(hash), len(loop), hash, loop)
			}
		}
	}
}

func TestSetOpsAllSemantics(t *testing.T) {
	a := pair("a", []any{int64(1), "x"}, []any{int64(1), "x"}, []any{int64(2), "y"})
	b := pair("b", []any{int64(1), "x"}, []any{int64(3), "z"})

	if got := len(run(t, exec.NewSetOp(rel.UnionOp, true, scanOf(a), scanOf(b)))); got != 5 {
		t.Errorf("UNION ALL: %d", got)
	}
	if got := len(run(t, exec.NewSetOp(rel.UnionOp, false, scanOf(a), scanOf(b)))); got != 3 {
		t.Errorf("UNION: %d", got)
	}
	if got := len(run(t, exec.NewSetOp(rel.IntersectOp, false, scanOf(a), scanOf(b)))); got != 1 {
		t.Errorf("INTERSECT: %d", got)
	}
	if got := len(run(t, exec.NewSetOp(rel.IntersectOp, true, scanOf(a), scanOf(b)))); got != 1 {
		t.Errorf("INTERSECT ALL: %d", got)
	}
	if got := len(run(t, exec.NewSetOp(rel.MinusOp, false, scanOf(a), scanOf(b)))); got != 1 {
		t.Errorf("EXCEPT: %d", got)
	}
	if got := len(run(t, exec.NewSetOp(rel.MinusOp, true, scanOf(a), scanOf(b)))); got != 2 {
		t.Errorf("EXCEPT ALL: %d", got)
	}
}

func TestSortOffsetFetchAndStability(t *testing.T) {
	tb := pair("t",
		[]any{int64(2), "b1"}, []any{int64(1), "a"}, []any{int64(2), "b2"}, []any{int64(3), "c"})
	coll := trait.Collation{{Field: 0, Direction: trait.Ascending}}
	rows := run(t, exec.NewSort(scanOf(tb), coll, 1, 2))
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	// Stability: the two k=2 rows keep input order; offset 1 skips "a".
	if rows[0][1] != "b1" || rows[1][1] != "b2" {
		t.Errorf("stability/offset broken: %v", rows)
	}
	// Streaming limit (no collation).
	rows = run(t, exec.NewLimit(scanOf(tb), 0, 3))
	if len(rows) != 3 {
		t.Errorf("limit rows: %v", rows)
	}
	// NULLS sort first ascending.
	tb2 := pair("t2", []any{nil, "n"}, []any{int64(1), "a"})
	rows = run(t, exec.NewSort(scanOf(tb2), coll, 0, -1))
	if rows[0][0] != nil {
		t.Errorf("nulls-first violated: %v", rows)
	}
}

func TestWindowFrames(t *testing.T) {
	tb := schema.NewMemTable("w", types.Row(
		types.Field{Name: "ts", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	), [][]any{
		{int64(0), int64(1)}, {int64(10), int64(2)}, {int64(20), int64(4)}, {int64(30), int64(8)},
	})
	orderKeys := trait.Collation{{Field: 0, Direction: trait.Ascending}}
	sum := rex.NewAggCall(rex.AggSum, []int{1}, false, "s")

	// ROWS 1 PRECEDING: sliding pairs.
	g := rel.WindowGroup{OrderKeys: orderKeys, Frame: rel.WindowFrame{Rows: true, Lo: -1}, Calls: []rex.AggCall{sum}}
	rows := run(t, exec.NewWindow(scanOf2(tb), []rel.WindowGroup{g}))
	wantRows := []int64{1, 3, 6, 12}
	for i, w := range wantRows {
		if got, _ := types.AsInt(rows[i][2]); got != w {
			t.Errorf("ROWS frame row %d = %v want %d", i, rows[i][2], w)
		}
	}
	// RANGE 15 PRECEDING over ts.
	g = rel.WindowGroup{OrderKeys: orderKeys, Frame: rel.WindowFrame{Rows: false, Lo: -15}, Calls: []rex.AggCall{sum}}
	rows = run(t, exec.NewWindow(scanOf2(tb), []rel.WindowGroup{g}))
	wantRange := []int64{1, 3, 6, 12}
	for i, w := range wantRange {
		if got, _ := types.AsInt(rows[i][2]); got != w {
			t.Errorf("RANGE frame row %d = %v want %d", i, rows[i][2], w)
		}
	}
	// UNBOUNDED PRECEDING: running total.
	g = rel.WindowGroup{OrderKeys: orderKeys, Frame: rel.DefaultFrame(), Calls: []rex.AggCall{sum}}
	rows = run(t, exec.NewWindow(scanOf2(tb), []rel.WindowGroup{g}))
	if got, _ := types.AsInt(rows[3][2]); got != 15 {
		t.Errorf("running total = %v", rows[3][2])
	}
}

func scanOf2(t *schema.MemTable) rel.Node { return exec.NewScan(t, []string{t.Name()}) }

// failingTable injects cursor errors (failure-injection coverage). It embeds
// the Table interface (not *MemTable) so it does not advertise ScanBatches:
// the overridden Scan must remain the only row source, lifted into batches
// by the scan's shim.
type failingTable struct{ schema.Table }

type failingCursor struct{ n int }

func (c *failingCursor) Next() ([]any, error) {
	if c.n == 0 {
		c.n++
		return []any{int64(1), "ok"}, nil
	}
	return nil, fmt.Errorf("disk on fire")
}
func (c *failingCursor) Close() error { return nil }

func (f *failingTable) Scan() (schema.Cursor, error) { return &failingCursor{}, nil }

func TestCursorErrorPropagation(t *testing.T) {
	ft := &failingTable{pair("f")}
	scan := exec.NewScan(ft, []string{"f"})
	filter := exec.NewFilter(scan, rex.Bool(true))
	agg := exec.NewAggregate(filter, nil, []rex.AggCall{rex.NewAggCall(rex.AggCount, nil, false, "c")})
	if _, err := exec.Execute(exec.NewContext(), agg); err == nil {
		t.Fatal("cursor error swallowed")
	}
	join := exec.NewHashJoin(rel.InnerJoin, exec.NewScan(ft, []string{"f"}), scanOf(pair("ok")),
		rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)))
	if _, err := exec.Execute(exec.NewContext(), join); err == nil {
		t.Fatal("join swallowed cursor error")
	}
}

func TestUnexecutableNodeError(t *testing.T) {
	tb := pair("t", []any{int64(1), "a"})
	logical := rel.NewTableScan(trait.Logical, tb, []string{"t"})
	if _, err := exec.Execute(exec.NewContext(), logical); err == nil {
		t.Fatal("expected non-executable error for logical node")
	}
}
