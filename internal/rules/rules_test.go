package rules_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/rules"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// randTable builds a random two-column table.
func randTable(r *rand.Rand, name string, rows int) *schema.MemTable {
	data := make([][]any, rows)
	for i := range data {
		var v any
		if r.Intn(5) > 0 {
			v = int64(r.Intn(20))
		}
		data[i] = []any{int64(r.Intn(10)), v}
	}
	return schema.NewMemTable(name, types.Row(
		types.Field{Name: name + "_k", Type: types.BigInt},
		types.Field{Name: name + "_v", Type: types.BigInt.WithNullable(true)},
	), data)
}

// execute runs a logical plan through the given rules and returns the rows
// as a sorted multiset of strings.
func execute(t *testing.T, logical rel.Node, logicalRules []plan.Rule) []string {
	t.Helper()
	node := logical
	if logicalRules != nil {
		hp := plan.NewHepPlanner(logicalRules...)
		hp.Meta = meta.NewQuery()
		node = hp.Optimize(node)
	}
	vp := plan.NewVolcanoPlanner(exec.Rules()...)
	vp.Meta = meta.NewQuery(exec.MetadataProvider())
	best, err := vp.Optimize(node, trait.Enumerable)
	if err != nil {
		t.Fatalf("optimize: %v\n%s", err, rel.Explain(node))
	}
	rows, err := exec.Execute(exec.NewContext(), best)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, rel.Explain(best))
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = types.FormatValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// randPlan builds a random logical plan over two tables: scans with random
// filters, an optional join, optional project and aggregate.
func randPlan(r *rand.Rand, a, b *schema.MemTable) rel.Node {
	scanA := rel.NewTableScan(trait.Logical, a, []string{a.Name()})
	scanB := rel.NewTableScan(trait.Logical, b, []string{b.Name()})
	cmp := func(col int, width int) rex.Node {
		ops := []*rex.Operator{rex.OpGreater, rex.OpLess, rex.OpEquals, rex.OpGreaterEqual}
		return rex.NewCall(ops[r.Intn(len(ops))],
			rex.NewInputRef(r.Intn(width), types.BigInt),
			rex.Int(int64(r.Intn(15))))
	}
	var node rel.Node
	switch r.Intn(3) {
	case 0: // single table
		node = scanA
	default: // join
		join := rel.NewJoin(rel.InnerJoin, scanA, scanB,
			rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)))
		node = join
	}
	width := rel.FieldCount(node)
	// Random filter stack (exercises merge + pushdown rules).
	for i := 0; i < r.Intn(3); i++ {
		node = rel.NewFilter(node, cmp(0, width))
	}
	if r.Intn(2) == 0 {
		// Projection with an expression.
		exprs := []rex.Node{
			rex.NewInputRef(0, types.BigInt),
			rex.NewCall(rex.OpPlus, rex.NewInputRef(r.Intn(width), types.BigInt), rex.Int(1)),
		}
		node = rel.NewProject(node, exprs, []string{"k", "e"})
		if r.Intn(2) == 0 {
			node = rel.NewFilter(node, cmp(0, 2))
		}
	}
	if r.Intn(3) == 0 {
		node = rel.NewAggregate(node, []int{0}, []rex.AggCall{
			rex.NewAggCall(rex.AggCount, nil, false, "c"),
		})
	}
	return node
}

// TestRulesPreserveSemantics is the central property test of the rule
// library: for random plans over random data, optimizing with the full
// logical rule set yields exactly the same row multiset as not optimizing.
func TestRulesPreserveSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		a := randTable(r, "ta", 30)
		b := randTable(r, "tb", 25)
		logical := randPlan(r, a, b)
		plain := execute(t, logical, nil)
		optimized := execute(t, logical, rules.DefaultLogicalRules())
		if strings.Join(plain, "\n") != strings.Join(optimized, "\n") {
			t.Fatalf("trial %d: optimization changed results\nplan:\n%s\nplain: %v\noptimized: %v",
				trial, rel.Explain(logical), plain, optimized)
		}
	}
}

// TestJoinReorderPreservesSemantics: commute/associate keep results.
func TestJoinReorderPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		a := randTable(r, "ta", 15)
		b := randTable(r, "tb", 12)
		c := randTable(r, "tc", 10)
		sa := rel.NewTableScan(trait.Logical, a, []string{"ta"})
		sb := rel.NewTableScan(trait.Logical, b, []string{"tb"})
		sc := rel.NewTableScan(trait.Logical, c, []string{"tc"})
		j1 := rel.NewJoin(rel.InnerJoin, sa, sb,
			rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)))
		j2 := rel.NewJoin(rel.InnerJoin, j1, sc,
			rex.Eq(rex.NewInputRef(2, types.BigInt), rex.NewInputRef(4, types.BigInt)))

		plain := execute(t, j2, nil)

		all := append(exec.Rules(), rules.JoinReorderRules()...)
		all = append(all, rules.ProjectMergeRule(), rules.ProjectRemoveRule())
		vp := plan.NewVolcanoPlanner(all...)
		vp.Meta = meta.NewQuery(exec.MetadataProvider())
		best, err := vp.Optimize(j2, trait.Enumerable)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Execute(exec.NewContext(), best)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(rows))
		for i, row := range rows {
			parts := make([]string, len(row))
			for j, v := range row {
				parts[j] = types.FormatValue(v)
			}
			got[i] = strings.Join(parts, "|")
		}
		sort.Strings(got)
		if strings.Join(plain, "\n") != strings.Join(got, "\n") {
			t.Fatalf("trial %d: reorder changed results (%d vs %d rows)", trial, len(plain), len(got))
		}
	}
}

// TestFilterIntoJoinOuterSafety: predicates on the null-generating side of
// an outer join must not be pushed below it.
func TestFilterIntoJoinOuterSafety(t *testing.T) {
	a := schema.NewMemTable("l", types.Row(types.Field{Name: "k", Type: types.BigInt}),
		[][]any{{int64(1)}, {int64(2)}})
	b := schema.NewMemTable("r", types.Row(types.Field{Name: "k2", Type: types.BigInt}),
		[][]any{{int64(1)}})
	sl := rel.NewTableScan(trait.Logical, a, []string{"l"})
	sr := rel.NewTableScan(trait.Logical, b, []string{"r"})
	join := rel.NewJoin(rel.LeftJoin, sl, sr,
		rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(1, types.BigInt)))
	// IS NULL on the right side keeps only the null-extended row.
	filter := rel.NewFilter(join, rex.NewCall(rex.OpIsNull, rex.NewInputRef(1, types.BigInt.WithNullable(true))))

	plain := execute(t, filter, nil)
	optimized := execute(t, filter, rules.DefaultLogicalRules())
	if strings.Join(plain, "\n") != strings.Join(optimized, "\n") {
		t.Fatalf("outer-join pushdown broke semantics: %v vs %v", plain, optimized)
	}
	if len(plain) != 1 {
		t.Fatalf("expected the anti-join row, got %v", plain)
	}
}

// TestPruneEmpty: a constant-false filter collapses the whole subtree.
func TestPruneEmpty(t *testing.T) {
	a := randTable(rand.New(rand.NewSource(1)), "t", 10)
	scan := rel.NewTableScan(trait.Logical, a, []string{"t"})
	filter := rel.NewFilter(scan, rex.Bool(false))
	join := rel.NewJoin(rel.InnerJoin, filter, scan, rex.Bool(true))
	hp := plan.NewHepPlanner(rules.DefaultLogicalRules()...)
	hp.Meta = meta.NewQuery()
	out := hp.Optimize(join)
	if v, ok := out.(*rel.Values); !ok || len(v.Tuples) != 0 {
		t.Fatalf("expected empty Values, got:\n%s", rel.Explain(out))
	}
}

// TestSortRemove: a sort over already-sorted input disappears.
func TestSortRemove(t *testing.T) {
	a := randTable(rand.New(rand.NewSource(2)), "t", 10)
	scan := rel.NewTableScan(trait.Logical, a, []string{"t"})
	inner := rel.NewSort(scan, trait.Collation{{Field: 0, Direction: trait.Ascending}}, 0, -1)
	outer := rel.NewSort(inner, trait.Collation{{Field: 0, Direction: trait.Ascending}}, 0, -1)
	hp := plan.NewHepPlanner(rules.SortRemoveRule())
	hp.Meta = meta.NewQuery()
	out := hp.Optimize(outer)
	count := 0
	rel.Walk(out, func(n rel.Node) bool {
		if _, ok := n.(*rel.Sort); ok {
			count++
		}
		return true
	})
	if count != 1 {
		t.Fatalf("expected one sort to remain, got %d:\n%s", count, rel.Explain(out))
	}
}

// TestAggregateRemoveOnUniqueKey: a GROUP BY without aggregate calls over a
// declared unique key becomes a projection of the key — the only rule that
// needs a declared key, which ANALYZE never infers — and returns the rows
// the aggregate would. Without the rule the aggregate stays.
func TestAggregateRemoveOnUniqueKey(t *testing.T) {
	data := make([][]any, 10)
	for i := range data {
		data[i] = []any{int64(i), int64(i % 3)}
	}
	tbl := schema.NewMemTable("t", types.Row(
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	), data)
	tbl.SetStats(schema.Statistics{RowCount: 10, UniqueColumns: [][]int{{0}}})
	scan := rel.NewTableScan(trait.Logical, tbl, []string{"t"})
	agg := rel.NewAggregate(scan, []int{0}, nil)
	aggregates := func(rules []plan.Rule) int {
		hp := plan.NewHepPlanner(rules...)
		hp.Meta = meta.NewQuery()
		count := 0
		rel.Walk(hp.Optimize(agg), func(n rel.Node) bool {
			if _, ok := n.(*rel.Aggregate); ok {
				count++
			}
			return true
		})
		return count
	}
	if n := aggregates(rules.DefaultLogicalRules()); n != 0 {
		t.Fatalf("aggregate on a unique key survived the default rules (%d left)", n)
	}
	var without []plan.Rule
	for _, r := range rules.DefaultLogicalRules() {
		if r.RuleName() != "AggregateRemoveRule" {
			without = append(without, r)
		}
	}
	if n := aggregates(without); n != 1 {
		t.Fatalf("without AggregateRemoveRule %d aggregates are left, want 1", n)
	}
	plain := execute(t, agg, nil)
	if optimized := execute(t, agg, rules.DefaultLogicalRules()); strings.Join(plain, "\n") != strings.Join(optimized, "\n") {
		t.Fatalf("removing the aggregate changed results: %v vs %v", plain, optimized)
	}
}
