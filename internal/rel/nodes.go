package rel

import (
	"fmt"
	"strings"
	"sync"

	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// TableScan reads all rows of a table. It is created in the convention of the
// table's adapter (§5: "an operator is created for each table representing a
// scan of the data on that table — the minimal interface an adapter must
// implement").
type TableScan struct {
	base
	Table schema.Table
	// QualifiedName is the schema-qualified path, e.g. ["splunk","orders"].
	QualifiedName []string
}

// NewTableScan creates a scan in the given convention.
func NewTableScan(conv trait.Convention, table schema.Table, qualifiedName []string) *TableScan {
	name := "LogicalTableScan"
	if !trait.SameConvention(conv, trait.Logical) {
		name = conventionOpName(conv, "TableScan")
	}
	return &TableScan{
		base:          newBase(name, trait.NewSet(conv), table.RowType()),
		Table:         table,
		QualifiedName: qualifiedName,
	}
}

func conventionOpName(conv trait.Convention, suffix string) string {
	n := conv.ConventionName()
	if n == "" {
		return "Logical" + suffix
	}
	return strings.ToUpper(n[:1]) + n[1:] + suffix
}

func (s *TableScan) Attrs() string {
	return "table=[" + strings.Join(s.QualifiedName, ".") + "]"
}

func (s *TableScan) WithNewInputs(inputs []Node) Node {
	checkInputs(s.op, len(inputs), 0)
	return s
}

// WithConvention returns a copy of the scan in another convention.
func (s *TableScan) WithConvention(conv trait.Convention) *TableScan {
	return NewTableScan(conv, s.Table, s.QualifiedName)
}

// Filter keeps rows satisfying a boolean condition.
type Filter struct {
	base
	Condition rex.Node
}

// NewFilter creates a logical filter.
func NewFilter(input Node, condition rex.Node) *Filter {
	return newFilter("LogicalFilter", input.Traits().WithConvention(trait.Logical), input, condition)
}

// NewFilterTraits creates a filter with explicit op name and traits (used by
// adapters to create, e.g., a SplunkFilter or CassandraFilter).
func NewFilterTraits(op string, ts trait.Set, input Node, condition rex.Node) *Filter {
	return newFilter(op, ts, input, condition)
}

func newFilter(op string, ts trait.Set, input Node, condition rex.Node) *Filter {
	return &Filter{
		base:      newBase(op, ts, input.RowType(), input),
		Condition: condition,
	}
}

func (f *Filter) Attrs() string { return filterAttrs(f.Condition.String()) }

func filterAttrs(condition string) string { return "condition=[" + condition + "]" }

func (f *Filter) WithNewInputs(inputs []Node) Node {
	checkInputs(f.op, len(inputs), 1)
	return newFilter(f.op, f.traits, inputs[0], f.Condition)
}

// Project computes an output row from expressions over the input row.
type Project struct {
	base
	Exprs []rex.Node
}

// NewProject creates a logical projection with the given output field names.
func NewProject(input Node, exprs []rex.Node, names []string) *Project {
	return NewProjectTraits("LogicalProject", input.Traits().WithConvention(trait.Logical).WithCollation(nil), input, exprs, names)
}

// NewProjectTraits creates a projection with explicit op name and traits.
func NewProjectTraits(op string, ts trait.Set, input Node, exprs []rex.Node, names []string) *Project {
	fields := make([]types.Field, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = fmt.Sprintf("EXPR$%d", i)
		}
		fields[i] = types.Field{Name: name, Type: e.Type()}
	}
	return &Project{
		base:  newBase(op, ts, types.Row(fields...), input),
		Exprs: exprs,
	}
}

func (p *Project) Attrs() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = p.rowType.Fields[i].Name + "=[" + e.String() + "]"
	}
	return strings.Join(parts, ", ")
}

func (p *Project) FieldNames() []string { return p.rowType.FieldNames() }

func (p *Project) WithNewInputs(inputs []Node) Node {
	checkInputs(p.op, len(inputs), 1)
	return NewProjectTraits(p.op, p.traits, inputs[0], p.Exprs, p.FieldNames())
}

// JoinKind enumerates join types.
type JoinKind int

const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	FullJoin
	SemiJoin
	AntiJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "inner"
	case LeftJoin:
		return "left"
	case RightJoin:
		return "right"
	case FullJoin:
		return "full"
	case SemiJoin:
		return "semi"
	case AntiJoin:
		return "anti"
	}
	return "?"
}

// GeneratesNullsOnLeft reports whether left-side columns may be NULL-padded.
func (k JoinKind) GeneratesNullsOnLeft() bool { return k == RightJoin || k == FullJoin }

// GeneratesNullsOnRight reports whether right-side columns may be NULL-padded.
func (k JoinKind) GeneratesNullsOnRight() bool { return k == LeftJoin || k == FullJoin }

// ProjectsRight reports whether right-side columns appear in the output.
func (k JoinKind) ProjectsRight() bool { return k != SemiJoin && k != AntiJoin }

// Join combines two inputs on a condition. The output row is the
// concatenation left ++ right (left only, for semi/anti joins).
type Join struct {
	base
	Kind      JoinKind
	Condition rex.Node
	// rowTypeOnce fills base.rowType on first use: most joins the join-order
	// enumeration costs never need it.
	rowTypeOnce sync.Once
}

// RowType returns JoinRowType of the join's kind and inputs.
func (j *Join) RowType() *types.Type {
	j.rowTypeOnce.Do(func() { j.rowType = JoinRowType(j.Kind, j.Left(), j.Right()) })
	return j.rowType
}

// JoinRowType computes the output type of a join.
func JoinRowType(kind JoinKind, left, right Node) *types.Type {
	lf := left.RowType().Fields
	if !kind.ProjectsRight() {
		return types.Row(append([]types.Field(nil), lf...)...)
	}
	rf := right.RowType().Fields
	if kind.GeneratesNullsOnLeft() {
		lf = nullableFields(lf)
	}
	if kind.GeneratesNullsOnRight() {
		rf = nullableFields(rf)
	}
	return types.Row(types.ConcatFields(lf, rf)...)
}

func nullableFields(fs []types.Field) []types.Field {
	out := make([]types.Field, len(fs))
	for i, f := range fs {
		out[i] = types.Field{Name: f.Name, Type: f.Type.WithNullable(true)}
	}
	return out
}

// NewJoin creates a logical join.
func NewJoin(kind JoinKind, left, right Node, condition rex.Node) *Join {
	return NewJoinTraits("LogicalJoin", trait.NewSet(trait.Logical), kind, left, right, condition)
}

// NewJoinTraits creates a join with explicit op name and traits.
func NewJoinTraits(op string, ts trait.Set, kind JoinKind, left, right Node, condition rex.Node) *Join {
	if condition == nil {
		condition = rex.Bool(true)
	}
	return &Join{
		base:      newBase(op, ts, nil, left, right),
		Kind:      kind,
		Condition: condition,
	}
}

func (j *Join) Attrs() string { return string(AppendJoinAttrs(nil, j)) }

// AppendJoinAttrs appends j.Attrs() to dst without building strings.
func AppendJoinAttrs(dst []byte, j *Join) []byte {
	dst = rex.AppendDigest(append(dst, "condition=["...), j.Condition)
	return append(append(append(dst, "], joinType=["...), j.Kind.String()...), ']')
}

func (j *Join) Left() Node  { return j.inputs[0] }
func (j *Join) Right() Node { return j.inputs[1] }

func (j *Join) WithNewInputs(inputs []Node) Node {
	checkInputs(j.op, len(inputs), 2)
	return NewJoinTraits(j.op, j.traits, j.Kind, inputs[0], inputs[1], j.Condition)
}

// Aggregate groups rows by key columns and computes aggregate calls.
// The output row is [group keys..., agg results...].
type Aggregate struct {
	base
	GroupKeys []int
	Calls     []rex.AggCall
}

// AggregateRowType computes the output type of an aggregate.
func AggregateRowType(input Node, groupKeys []int, calls []rex.AggCall) *types.Type {
	inFields := input.RowType().Fields
	fields := make([]types.Field, 0, len(groupKeys)+len(calls))
	for _, k := range groupKeys {
		fields = append(fields, inFields[k])
	}
	for _, c := range calls {
		name := c.Name
		if name == "" {
			name = c.Func.String()
		}
		fields = append(fields, types.Field{Name: name, Type: c.ResultType(inFields)})
	}
	return types.Row(fields...)
}

// NewAggregate creates a logical aggregate.
func NewAggregate(input Node, groupKeys []int, calls []rex.AggCall) *Aggregate {
	return NewAggregateTraits("LogicalAggregate", trait.NewSet(trait.Logical), input, groupKeys, calls)
}

// NewAggregateTraits creates an aggregate with explicit op name and traits.
func NewAggregateTraits(op string, ts trait.Set, input Node, groupKeys []int, calls []rex.AggCall) *Aggregate {
	return &Aggregate{
		base:      newBase(op, ts, AggregateRowType(input, groupKeys, calls), input),
		GroupKeys: groupKeys,
		Calls:     calls,
	}
}

func (a *Aggregate) Attrs() string {
	var b strings.Builder
	b.WriteString("group=[")
	for i, k := range a.GroupKeys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "$%d", k)
	}
	b.WriteString("]")
	for _, c := range a.Calls {
		b.WriteString(", ")
		b.WriteString(c.String())
	}
	return b.String()
}

func (a *Aggregate) WithNewInputs(inputs []Node) Node {
	checkInputs(a.op, len(inputs), 1)
	return NewAggregateTraits(a.op, a.traits, inputs[0], a.GroupKeys, a.Calls)
}

// Sort orders rows and optionally applies OFFSET/FETCH. Fetch < 0 means no
// limit. A Sort with an empty collation is a pure limit.
type Sort struct {
	base
	Collation trait.Collation
	Offset    int64
	Fetch     int64
}

// NewSort creates a logical sort.
func NewSort(input Node, collation trait.Collation, offset, fetch int64) *Sort {
	return NewSortTraits("LogicalSort", trait.NewSet(trait.Logical).WithCollation(collation), input, collation, offset, fetch)
}

// NewSortTraits creates a sort with explicit op name and traits.
func NewSortTraits(op string, ts trait.Set, input Node, collation trait.Collation, offset, fetch int64) *Sort {
	return &Sort{
		base:      newBase(op, ts, input.RowType(), input),
		Collation: collation,
		Offset:    offset,
		Fetch:     fetch,
	}
}

func (s *Sort) Attrs() string {
	parts := []string{"sort=" + s.Collation.String()}
	if s.Offset > 0 {
		parts = append(parts, fmt.Sprintf("offset=%d", s.Offset))
	}
	if s.Fetch >= 0 {
		parts = append(parts, fmt.Sprintf("fetch=%d", s.Fetch))
	}
	return strings.Join(parts, ", ")
}

func (s *Sort) WithNewInputs(inputs []Node) Node {
	checkInputs(s.op, len(inputs), 1)
	return NewSortTraits(s.op, s.traits, inputs[0], s.Collation, s.Offset, s.Fetch)
}

// SetOpKind enumerates set operations.
type SetOpKind int

const (
	UnionOp SetOpKind = iota
	IntersectOp
	MinusOp
)

func (k SetOpKind) String() string {
	switch k {
	case UnionOp:
		return "union"
	case IntersectOp:
		return "intersect"
	case MinusOp:
		return "minus"
	}
	return "?"
}

// SetOp is UNION / INTERSECT / EXCEPT over two or more inputs.
type SetOp struct {
	base
	Kind SetOpKind
	All  bool
}

// NewSetOp creates a logical set operation; all inputs must be
// union-compatible (validated upstream).
func NewSetOp(kind SetOpKind, all bool, inputs ...Node) *SetOp {
	op := "Logical" + strings.ToUpper(kind.String()[:1]) + kind.String()[1:]
	return NewSetOpTraits(op, trait.NewSet(trait.Logical), kind, all, inputs...)
}

// NewSetOpTraits creates a set operation with explicit op name and traits.
func NewSetOpTraits(op string, ts trait.Set, kind SetOpKind, all bool, inputs ...Node) *SetOp {
	// Output type: first input's fields, nullability widened across inputs.
	fields := append([]types.Field(nil), inputs[0].RowType().Fields...)
	for _, in := range inputs[1:] {
		for i, f := range in.RowType().Fields {
			if i < len(fields) && f.Type.Nullable {
				fields[i].Type = fields[i].Type.WithNullable(true)
			}
		}
	}
	return &SetOp{
		base: newBase(op, ts, types.Row(fields...), inputs...),
		Kind: kind,
		All:  all,
	}
}

func (s *SetOp) Attrs() string { return fmt.Sprintf("all=[%v]", s.All) }

func (s *SetOp) WithNewInputs(inputs []Node) Node {
	return NewSetOpTraits(s.op, s.traits, s.Kind, s.All, inputs...)
}

// Values produces a constant set of rows (literal tuples).
type Values struct {
	base
	Tuples [][]rex.Node
}

// NewValues creates a logical Values with the given row type.
func NewValues(rowType *types.Type, tuples [][]rex.Node) *Values {
	return NewValuesTraits("LogicalValues", trait.NewSet(trait.Logical), rowType, tuples)
}

// NewValuesTraits creates a Values with explicit op name and traits.
func NewValuesTraits(op string, ts trait.Set, rowType *types.Type, tuples [][]rex.Node) *Values {
	return &Values{base: newBase(op, ts, rowType), Tuples: tuples}
}

func (v *Values) Attrs() string {
	var b strings.Builder
	b.WriteString("tuples=[")
	for i, t := range v.Tuples {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('{')
		for j, e := range t {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte('}')
	}
	b.WriteString("]")
	return b.String()
}

func (v *Values) WithNewInputs(inputs []Node) Node {
	checkInputs(v.op, len(inputs), 0)
	return v
}

// WindowFrame describes the bounds of a window aggregate (§4: the window
// operator "encapsulates the window definition, i.e. upper and lower bound,
// partitioning etc."). Rows=false means RANGE (value-based, over the order
// key). Lo and Hi are signed offsets from the current row measured along the
// sort direction — negative toward the partition start (PRECEDING), positive
// toward its end (FOLLOWING), 0 meaning CURRENT ROW (for RANGE: the current
// row's peer group). ROWS offsets count rows; RANGE offsets are order-key
// units (e.g. interval milliseconds over a rowtime column, §7.2). The
// unbounded flags override the corresponding offset.
type WindowFrame struct {
	Rows        bool
	LoUnbounded bool
	Lo          int64
	HiUnbounded bool
	Hi          int64
}

// DefaultFrame is the implicit frame of an OVER clause with no frame spec:
// RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW.
func DefaultFrame() WindowFrame { return WindowFrame{LoUnbounded: true} }

func frameBoundString(unbounded bool, off int64, lower bool) string {
	switch {
	case unbounded && lower:
		return "UNBOUNDED PRECEDING"
	case unbounded:
		return "UNBOUNDED FOLLOWING"
	case off < 0:
		return fmt.Sprintf("%d PRECEDING", -off)
	case off > 0:
		return fmt.Sprintf("%d FOLLOWING", off)
	}
	return "CURRENT ROW"
}

func (f WindowFrame) String() string {
	unit := "RANGE"
	if f.Rows {
		unit = "ROWS"
	}
	return fmt.Sprintf("%s BETWEEN %s AND %s", unit,
		frameBoundString(f.LoUnbounded, f.Lo, true),
		frameBoundString(f.HiUnbounded, f.Hi, false))
}

// WindowGroup is one OVER clause shared by one or more aggregate calls.
type WindowGroup struct {
	PartitionKeys []int
	OrderKeys     trait.Collation
	Frame         WindowFrame
	Calls         []rex.AggCall
}

// Window computes windowed aggregates; output = input fields ++ one field
// per aggregate call across all groups.
type Window struct {
	base
	Groups []WindowGroup
}

// NewWindow creates a logical window operator.
func NewWindow(input Node, groups []WindowGroup) *Window {
	return NewWindowTraits("LogicalWindow", trait.NewSet(trait.Logical), input, groups)
}

// NewWindowTraits creates a window with explicit op name and traits.
func NewWindowTraits(op string, ts trait.Set, input Node, groups []WindowGroup) *Window {
	fields := append([]types.Field(nil), input.RowType().Fields...)
	for _, g := range groups {
		for _, c := range g.Calls {
			name := c.Name
			if name == "" {
				name = c.Func.String()
			}
			fields = append(fields, types.Field{
				Name: name,
				Type: c.ResultType(input.RowType().Fields).WithNullable(true),
			})
		}
	}
	return &Window{
		base:   newBase(op, ts, types.Row(fields...), input),
		Groups: groups,
	}
}

func (w *Window) Attrs() string {
	var b strings.Builder
	for gi, g := range w.Groups {
		if gi > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "partition=%v order=%s frame=[%s] calls=[", g.PartitionKeys, g.OrderKeys, g.Frame)
		for i, c := range g.Calls {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
		b.WriteString("]")
	}
	return b.String()
}

func (w *Window) WithNewInputs(inputs []Node) Node {
	checkInputs(w.op, len(inputs), 1)
	return NewWindowTraits(w.op, w.traits, inputs[0], w.Groups)
}

// Converter changes only the convention of its input — the converter
// interface of §4 ("relational operators can implement a converter interface
// that indicates how to convert traits of an expression from one value to
// another"). Concrete converters (e.g. splunk-to-enumerable) embed it.
type Converter struct {
	base
	// FromConv is the input's convention; the target is Traits().Convention.
	FromConv trait.Convention
}

// NewConverter creates a converter from the input's convention to `to`.
func NewConverter(op string, to trait.Convention, input Node) *Converter {
	return &Converter{
		base:     newBase(op, input.Traits().WithConvention(to), input.RowType(), input),
		FromConv: input.Traits().Convention,
	}
}

func (c *Converter) Attrs() string {
	return fmt.Sprintf("from=[%s]", c.FromConv.ConventionName())
}

func (c *Converter) WithNewInputs(inputs []Node) Node {
	checkInputs(c.op, len(inputs), 1)
	return NewConverter(c.op, c.traits.Convention, inputs[0])
}

// TableModify applies INSERT (the only DML in this reproduction, §9 DDL/DML
// future work) to a modifiable table; it returns a single row with the count
// of affected rows.
type TableModify struct {
	base
	Table         schema.ModifiableTable
	QualifiedName []string
}

// NewTableModify creates an insert node over input rows.
func NewTableModify(table schema.ModifiableTable, qualifiedName []string, input Node) *TableModify {
	rt := types.Row(types.Field{Name: "ROWCOUNT", Type: types.BigInt})
	return &TableModify{
		base:          newBase("LogicalTableModify", trait.NewSet(trait.Logical), rt, input),
		Table:         table,
		QualifiedName: qualifiedName,
	}
}

func (m *TableModify) Attrs() string {
	return "table=[" + strings.Join(m.QualifiedName, ".") + "], operation=[INSERT]"
}

func (m *TableModify) WithNewInputs(inputs []Node) Node {
	checkInputs(m.op, len(inputs), 1)
	return NewTableModify(m.Table, m.QualifiedName, inputs[0])
}
