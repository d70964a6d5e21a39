package exec

import (
	"reflect"
	"testing"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func paramsTable() *schema.MemTable {
	rows := make([][]any, 40)
	for i := range rows {
		rows[i] = []any{int64(i), float64(i) / 4}
	}
	return schema.NewMemTable("p", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "x", Type: types.Double},
	), rows)
}

// TestParameterizedExpressionsRunVectorKernels: a `?` is a literal before the
// kernel matcher sees it, so over typed batches a prepared filter and
// projection never reach their closures; the shared plan nodes stay unbound
// and serve the next execution's values.
func TestParameterizedExpressionsRunVectorKernels(t *testing.T) {
	tb := paramsTable()
	id := rex.NewInputRef(0, types.BigInt)
	x := rex.NewInputRef(1, types.Double)
	p0 := &rex.DynamicParam{Index: 0, T: types.Any}
	p1 := &rex.DynamicParam{Index: 1, T: types.Any}
	plan := func(lo, k rex.Node) *Project {
		f := NewFilter(NewScan(tb, []string{"p"}), rex.NewCall(rex.OpGreaterEqual, id, lo))
		return NewProject(f, []rex.Node{id, rex.NewCall(rex.OpTimes, x, k), k}, []string{"id", "kx", "k"})
	}
	prepared := plan(p0, p1)
	for _, params := range [][]any{{int64(36), 2.0}, {int64(38), 0.5}} {
		ctx := NewContext()
		ctx.Params = params
		bc, err := prepared.BindBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pc := bc.(*projectBatchCursor)
		for i := range pc.exprs {
			pc.exprs[i].colFn = func([]*schema.Vector, int) (any, error) {
				t.Error("projection closure ran over a typed batch")
				return nil, nil
			}
		}
		pc.in.(*filterBatchCursor).pred = func([]*schema.Vector, int) (bool, error) {
			t.Error("filter closure ran over a typed batch")
			return false, nil
		}
		got, err := drainBatches(ctx, bc)
		if err != nil {
			t.Fatal(err)
		}
		lo, k := params[0].(int64), params[1].(float64)
		var want [][]any
		for _, r := range tb.Rows() {
			if id := r[0].(int64); id >= lo {
				want = append(want, []any{id, r[1].(float64) * k, k})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("params %v: got %v, want %v", params, got, want)
		}
	}
	if _, err := prepared.BindBatch(NewContext()); err == nil {
		t.Error("binding a parameterized plan without values must fail at bind time")
	}
}

// TestBindPlanParams: the rewrite adapters render from carries literals where
// the plan has placeholders, rebuilds only the nodes that held one, and leaves
// the plan as it was.
func TestBindPlanParams(t *testing.T) {
	conv := trait.NewSet(trait.NewConvention("remote"))
	scan := rel.NewTableScan(conv.Convention, paramsTable(), []string{"p"})
	id := rex.NewInputRef(0, types.BigInt)
	plain := rel.NewFilterTraits("RemoteFilter", conv, scan, rex.NewCall(rex.OpLess, id, rex.Int(30)))
	filter := rel.NewFilterTraits("RemoteFilter", conv, plain,
		rex.NewCall(rex.OpEquals, id, &rex.DynamicParam{Index: 0, T: types.Any}))
	project := rel.NewProjectTraits("RemoteProject", conv, filter,
		[]rex.Node{id, &rex.DynamicParam{Index: 1, T: types.Any}}, []string{"id", "tag"})
	before := rel.Digest(project)

	ctx := NewContext()
	ctx.Params = []any{int64(2), "x"}
	bound, err := BindPlanParams(ctx, project)
	if err != nil {
		t.Fatal(err)
	}
	bp := bound.(*rel.Project)
	bf := bp.Inputs()[0].(*rel.Filter)
	if got := bf.Condition.String(); got != "=($0, 2)" {
		t.Errorf("bound filter condition %s", got)
	}
	if got := bp.Exprs[1].String(); got != "'x'" {
		t.Errorf("bound projection %s", got)
	}
	if bp.Op() != "RemoteProject" || !trait.SameConvention(bf.Traits().Convention, conv.Convention) ||
		!reflect.DeepEqual(bp.RowType(), project.RowType()) {
		t.Errorf("bound nodes lost their op, traits or row type:\n%s", rel.Explain(bound))
	}
	if bf.Inputs()[0] != rel.Node(plain) {
		t.Error("a node without parameters should be shared, not rebuilt")
	}
	if rel.Digest(project) != before {
		t.Error("BindPlanParams modified the plan")
	}
	if same, err := BindPlanParams(ctx, plain); err != nil || same != rel.Node(plain) {
		t.Errorf("a subtree without parameters should come back as is: (%v, %v)", same, err)
	}
	if _, err := BindPlanParams(NewContext(), project); err == nil {
		t.Error("rendering with an unbound parameter must fail")
	}
}
