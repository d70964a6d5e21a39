package rules

import (
	"strings"
	"testing"

	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func mjScan(name string, rowCount float64) rel.Node {
	t := schema.NewMemTable(name, types.Row(
		types.Field{Name: name + "_k", Type: types.BigInt},
		types.Field{Name: name + "_v", Type: types.BigInt},
	), nil)
	t.SetStats(schema.Statistics{RowCount: rowCount})
	return rel.NewTableScan(trait.Logical, t, []string{name})
}

func eqRef(a, b int) rex.Node {
	return rex.Eq(rex.NewInputRef(a, types.BigInt), rex.NewInputRef(b, types.BigInt))
}

// chain3 builds (a ⋈ b) ⋈ c with equi-conditions a.k=b.k and b.k=c.k.
func chain3(a, b, c rel.Node) rel.Node {
	ab := rel.NewJoin(rel.InnerJoin, a, b, eqRef(0, 2))
	return rel.NewJoin(rel.InnerJoin, ab, c, eqRef(2, 4))
}

// TestJoinToMultiJoinCollapse: a three-way inner-join chain collapses into
// one flat MultiJoin with both conjuncts.
func TestJoinToMultiJoinCollapse(t *testing.T) {
	root := chain3(mjScan("a", 10), mjScan("b", 1000), mjScan("c", 100))
	hep := plan.NewHepPlanner(JoinToMultiJoinRule())
	hep.Meta = meta.NewQuery()
	out := hep.Optimize(root)
	mj, ok := out.(*rel.MultiJoin)
	if !ok {
		t.Fatalf("expected MultiJoin, got:\n%s", rel.Explain(out))
	}
	if len(mj.Inputs()) != 3 {
		t.Fatalf("factors = %d, want 3", len(mj.Inputs()))
	}
	if len(mj.Conjuncts) != 2 {
		t.Fatalf("conjuncts = %d, want 2: %s", len(mj.Conjuncts), mj.Attrs())
	}
	if rel.FieldCount(mj) != 6 {
		t.Fatalf("field count = %d, want 6", rel.FieldCount(mj))
	}
}

// TestTwoWayJoinNotCollapsed: a plain binary join keeps its written form —
// the enumeration only engages at three or more factors.
func TestTwoWayJoinNotCollapsed(t *testing.T) {
	j := rel.NewJoin(rel.InnerJoin, mjScan("a", 10), mjScan("b", 1000), eqRef(0, 2))
	hep := plan.NewHepPlanner(JoinToMultiJoinRule())
	hep.Meta = meta.NewQuery()
	if _, ok := hep.Optimize(j).(*rel.Join); !ok {
		t.Fatal("two-way join was collapsed")
	}
}

// TestOuterJoinStopsFlattening: a left join becomes an opaque factor.
func TestOuterJoinStopsFlattening(t *testing.T) {
	left := rel.NewJoin(rel.LeftJoin, mjScan("a", 10), mjScan("b", 1000), eqRef(0, 2))
	root := rel.NewJoin(rel.InnerJoin,
		rel.NewJoin(rel.InnerJoin, left, mjScan("c", 100), eqRef(2, 4)),
		mjScan("d", 50), eqRef(4, 6))
	hep := plan.NewHepPlanner(JoinToMultiJoinRule())
	hep.Meta = meta.NewQuery()
	out := hep.Optimize(root)
	mj, ok := out.(*rel.MultiJoin)
	if !ok {
		t.Fatalf("expected MultiJoin, got:\n%s", rel.Explain(out))
	}
	// Factors: the left join (opaque), c, d.
	if len(mj.Inputs()) != 3 {
		t.Fatalf("factors = %d, want 3:\n%s", len(mj.Inputs()), rel.Explain(out))
	}
	if _, ok := mj.Inputs()[0].(*rel.Join); !ok {
		t.Fatal("outer join was not kept as an opaque factor")
	}
}

// TestLoptOrdersBySelectivity: the expansion must join the small table
// first and leave no MultiJoin behind, preserving the original column
// order through a restoring projection.
func TestLoptOrdersBySelectivity(t *testing.T) {
	root := chain3(mjScan("big", 10000), mjScan("mid", 1000), mjScan("tiny", 10))
	mq := meta.NewQuery()
	collapse, order, _ := JoinOrderRules()
	hep1 := plan.NewHepPlanner(collapse...)
	hep1.Meta = mq
	hep2 := plan.NewHepPlanner(order...)
	hep2.Meta = mq
	out := hep2.Optimize(hep1.Optimize(root))

	sawMulti := false
	joins := 0
	rel.Walk(out, func(n rel.Node) bool {
		switch n.(type) {
		case *rel.MultiJoin:
			sawMulti = true
		case *rel.Join:
			joins++
		}
		return true
	})
	if sawMulti {
		t.Fatalf("MultiJoin survived ordering:\n%s", rel.Explain(out))
	}
	if joins != 2 {
		t.Fatalf("joins = %d, want 2:\n%s", joins, rel.Explain(out))
	}
	// Output schema must be unchanged (a restoring projection if needed).
	want := []string{"big_k", "big_v", "mid_k", "mid_v", "tiny_k", "tiny_v"}
	got := out.RowType().FieldNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("field names %v, want %v", got, want)
	}
}

// TestLoptCrossProductOnlyWhenForced: disconnected factors still produce a
// valid plan (with a cross join), but connected factors never cross-join.
func TestLoptCrossProductOnlyWhenForced(t *testing.T) {
	// a and c are connected through b; all splits are connected.
	root := chain3(mjScan("a", 100), mjScan("b", 100), mjScan("c", 100))
	mq := meta.NewQuery()
	collapse, order, _ := JoinOrderRules()
	hep1 := plan.NewHepPlanner(collapse...)
	hep1.Meta = mq
	hep2 := plan.NewHepPlanner(order...)
	hep2.Meta = mq
	out := hep2.Optimize(hep1.Optimize(root))
	rel.Walk(out, func(n rel.Node) bool {
		if j, ok := n.(*rel.Join); ok && rex.IsAlwaysTrue(j.Condition) {
			t.Fatalf("cross join in a connected query:\n%s", rel.Explain(out))
		}
		return true
	})

	// A genuine cartesian query must still plan.
	cross := rel.NewJoin(rel.InnerJoin,
		rel.NewJoin(rel.InnerJoin, mjScan("x", 5), mjScan("y", 5), rex.Bool(true)),
		mjScan("z", 5), rex.Bool(true))
	out2 := hep2.Optimize(hep1.Optimize(cross))
	if _, ok := out2.(*rel.MultiJoin); ok {
		t.Fatal("cartesian MultiJoin not expanded")
	}
	if rel.FieldCount(out2) != 6 {
		t.Fatalf("field count = %d, want 6", rel.FieldCount(out2))
	}
}
