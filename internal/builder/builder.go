// Package builder implements the relational expression builder interface of
// §3 of the paper: systems with their own query-language parsers construct
// operator trees directly, without SQL. The fluent API mirrors Calcite's
// RelBuilder — the paper's Pig example is expressed as:
//
//	node, err := builder.New(catalog).
//		Scan("employee_data").
//		Aggregate(builder.GroupKey("deptno"),
//			builder.Count(false, "c"),
//			builder.Sum(false, "s", "sal")).
//		Build()
package builder

import (
	"fmt"
	"strings"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// Builder accumulates a stack of relational expressions.
type Builder struct {
	catalog schema.Schema
	stack   []rel.Node
	err     error
}

// New creates a builder resolving table names against catalog.
func New(catalog schema.Schema) *Builder { return &Builder{catalog: catalog} }

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("builder: "+format, args...)
	}
	return b
}

func (b *Builder) push(n rel.Node) *Builder {
	b.stack = append(b.stack, n)
	return b
}

func (b *Builder) pop() rel.Node {
	if len(b.stack) == 0 {
		b.fail("operation requires an input on the stack")
		return nil
	}
	n := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	return n
}

// Peek returns the top of the stack without removing it.
func (b *Builder) Peek() rel.Node {
	if len(b.stack) == 0 {
		return nil
	}
	return b.stack[len(b.stack)-1]
}

// Build returns the finished expression tree.
func (b *Builder) Build() (rel.Node, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 1 {
		return nil, fmt.Errorf("builder: expected exactly one expression on the stack, have %d", len(b.stack))
	}
	return b.stack[0], nil
}

// Scan pushes a table scan.
func (b *Builder) Scan(name ...string) *Builder {
	if b.err != nil {
		return b
	}
	table, path, err := schema.Resolve(b.catalog, name)
	if err != nil {
		return b.fail("%v", err)
	}
	return b.push(rel.NewTableScan(trait.Logical, table, path))
}

// Field returns a reference to the named field of the top expression.
func (b *Builder) Field(name string) rex.Node {
	top := b.Peek()
	if top == nil {
		b.fail("Field(%q) requires an input", name)
		return rex.Null()
	}
	idx := top.RowType().FieldIndex(name)
	if idx < 0 {
		b.fail("field %q not found in %s", name, strings.Join(top.RowType().FieldNames(), ", "))
		return rex.Null()
	}
	return rex.NewInputRef(idx, top.RowType().Fields[idx].Type)
}

// FieldAt returns a reference to the i-th field of the top expression.
func (b *Builder) FieldAt(i int) rex.Node {
	top := b.Peek()
	if top == nil || i < 0 || i >= rel.FieldCount(top) {
		b.fail("field ordinal %d out of range", i)
		return rex.Null()
	}
	return rex.NewInputRef(i, top.RowType().Fields[i].Type)
}

// Literal builds a literal expression of v, normalized into the runtime
// value set (types.Normalize).
func (b *Builder) Literal(v any) rex.Node {
	v = types.Normalize(v)
	switch x := v.(type) {
	case int64:
		return rex.Int(x)
	case float64:
		return rex.Float(x)
	case string:
		return rex.Str(x)
	case bool:
		return rex.Bool(x)
	case nil:
		return rex.Null()
	}
	return rex.NewLiteral(v, types.Any)
}

// Call builds an operator call.
func (b *Builder) Call(op *rex.Operator, args ...rex.Node) rex.Node {
	return rex.NewCall(op, args...)
}

// Equals, Greater, Less build comparisons.
func (b *Builder) Equals(l, r rex.Node) rex.Node  { return rex.Eq(l, r) }
func (b *Builder) Greater(l, r rex.Node) rex.Node { return rex.NewCall(rex.OpGreater, l, r) }
func (b *Builder) Less(l, r rex.Node) rex.Node    { return rex.NewCall(rex.OpLess, l, r) }

// And builds a conjunction.
func (b *Builder) And(terms ...rex.Node) rex.Node { return rex.And(terms...) }

// Filter pushes a filter over the top expression.
func (b *Builder) Filter(condition rex.Node) *Builder {
	if b.err != nil {
		return b
	}
	input := b.pop()
	if input == nil {
		return b
	}
	return b.push(rel.NewFilter(input, condition))
}

// Project pushes a projection; names may be shorter than exprs.
func (b *Builder) Project(exprs []rex.Node, names []string) *Builder {
	if b.err != nil {
		return b
	}
	input := b.pop()
	if input == nil {
		return b
	}
	return b.push(rel.NewProject(input, exprs, names))
}

// ProjectNamed projects named fields of the input.
func (b *Builder) ProjectNamed(names ...string) *Builder {
	if b.err != nil {
		return b
	}
	exprs := make([]rex.Node, len(names))
	for i, n := range names {
		exprs[i] = b.Field(n)
	}
	return b.Project(exprs, names)
}

// GroupKeySpec names grouping columns.
type GroupKeySpec struct{ Names []string }

// GroupKey creates a grouping key over the named columns.
func GroupKey(names ...string) GroupKeySpec { return GroupKeySpec{Names: names} }

// AggSpec describes one aggregate call for Aggregate.
type AggSpec struct {
	Func     rex.AggFuncKind
	Distinct bool
	Name     string
	Arg      string // empty for COUNT(*)
}

// Count builds COUNT([DISTINCT] arg) or COUNT(*) with no arg.
func Count(distinct bool, name string, arg ...string) AggSpec {
	a := ""
	if len(arg) > 0 {
		a = arg[0]
	}
	return AggSpec{Func: rex.AggCount, Distinct: distinct, Name: name, Arg: a}
}

// Sum builds SUM(arg).
func Sum(distinct bool, name, arg string) AggSpec {
	return AggSpec{Func: rex.AggSum, Distinct: distinct, Name: name, Arg: arg}
}

// Min and Max build MIN/MAX aggregates.
func Min(name, arg string) AggSpec { return AggSpec{Func: rex.AggMin, Name: name, Arg: arg} }
func Max(name, arg string) AggSpec { return AggSpec{Func: rex.AggMax, Name: name, Arg: arg} }

// Avg builds AVG(arg).
func Avg(name, arg string) AggSpec { return AggSpec{Func: rex.AggAvg, Name: name, Arg: arg} }

// Aggregate pushes an aggregate with the given key and calls.
func (b *Builder) Aggregate(key GroupKeySpec, aggs ...AggSpec) *Builder {
	if b.err != nil {
		return b
	}
	top := b.Peek()
	if top == nil {
		return b.fail("Aggregate requires an input")
	}
	keys := make([]int, len(key.Names))
	for i, n := range key.Names {
		idx := top.RowType().FieldIndex(n)
		if idx < 0 {
			return b.fail("group key %q not found", n)
		}
		keys[i] = idx
	}
	calls := make([]rex.AggCall, len(aggs))
	for i, a := range aggs {
		var args []int
		if a.Arg != "" {
			idx := top.RowType().FieldIndex(a.Arg)
			if idx < 0 {
				return b.fail("aggregate argument %q not found", a.Arg)
			}
			args = []int{idx}
		}
		calls[i] = rex.NewAggCall(a.Func, args, a.Distinct, a.Name)
	}
	input := b.pop()
	return b.push(rel.NewAggregate(input, keys, calls))
}

// Join pops two expressions (right, then left) and pushes a join.
func (b *Builder) Join(kind rel.JoinKind, condition rex.Node) *Builder {
	if b.err != nil {
		return b
	}
	right := b.pop()
	left := b.pop()
	if left == nil || right == nil {
		return b
	}
	return b.push(rel.NewJoin(kind, left, right, condition))
}

// JoinOn joins the two top expressions on equality of the named fields
// (left field name, right field name).
func (b *Builder) JoinOn(kind rel.JoinKind, leftField, rightField string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) < 2 {
		return b.fail("JoinOn requires two inputs")
	}
	right := b.stack[len(b.stack)-1]
	left := b.stack[len(b.stack)-2]
	li := left.RowType().FieldIndex(leftField)
	ri := right.RowType().FieldIndex(rightField)
	if li < 0 || ri < 0 {
		return b.fail("join fields %q/%q not found", leftField, rightField)
	}
	cond := rex.Eq(
		rex.NewInputRef(li, left.RowType().Fields[li].Type),
		rex.NewInputRef(rel.FieldCount(left)+ri, right.RowType().Fields[ri].Type),
	)
	return b.Join(kind, cond)
}

// Sort pushes a sort on the named columns (prefix '-' for descending).
func (b *Builder) Sort(columns ...string) *Builder {
	if b.err != nil {
		return b
	}
	top := b.Peek()
	if top == nil {
		return b.fail("Sort requires an input")
	}
	var collation trait.Collation
	for _, cspec := range columns {
		dir := trait.Ascending
		name := cspec
		if strings.HasPrefix(cspec, "-") {
			dir = trait.Descending
			name = cspec[1:]
		}
		idx := top.RowType().FieldIndex(name)
		if idx < 0 {
			return b.fail("sort column %q not found", name)
		}
		collation = append(collation, trait.FieldCollation{Field: idx, Direction: dir})
	}
	input := b.pop()
	return b.push(rel.NewSort(input, collation, 0, -1))
}

// Limit pushes OFFSET/FETCH.
func (b *Builder) Limit(offset, fetch int64) *Builder {
	if b.err != nil {
		return b
	}
	input := b.pop()
	if input == nil {
		return b
	}
	return b.push(rel.NewSort(input, nil, offset, fetch))
}

// Union pushes a union of the top n expressions.
func (b *Builder) Union(all bool, n int) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) < n || n < 2 {
		return b.fail("Union(%d) requires %d inputs", n, n)
	}
	inputs := make([]rel.Node, n)
	for i := n - 1; i >= 0; i-- {
		inputs[i] = b.pop()
	}
	return b.push(rel.NewSetOp(rel.UnionOp, all, inputs...))
}

// Values pushes a constant relation.
func (b *Builder) Values(fieldNames []string, rows ...[]any) *Builder {
	if b.err != nil {
		return b
	}
	if len(rows) == 0 {
		return b.fail("Values requires at least one row")
	}
	tuples := make([][]rex.Node, len(rows))
	fields := make([]types.Field, len(fieldNames))
	for ri, row := range rows {
		tuple := make([]rex.Node, len(row))
		for ci, v := range row {
			lit := b.Literal(v)
			tuple[ci] = lit
			if ri == 0 {
				fields[ci] = types.Field{Name: fieldNames[ci], Type: lit.Type()}
			}
		}
		tuples[ri] = tuple
	}
	return b.push(rel.NewValues(types.Row(fields...), tuples))
}
