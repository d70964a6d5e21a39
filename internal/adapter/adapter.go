// Package adapter is the pushdown contract every backend adapter is built on.
// The paper's adapter (§5, Figure 3) is a schema of tables, planner rules that
// push operators into the backend, and a converter out of the backend's
// convention; here each of the three is written once.
//
// A backend declares, in a Backend, which conjuncts, projections, sorts,
// limits, aggregates and joins it accepts, and supplies Run, which renders a
// bound subtree of its convention in the backend's own language and executes
// it. New registers the declaration under a schema and derives the rest:
//
//   - one calling convention per schema, <kind>-<schema>, so two backends of
//     one kind never run each other's subtrees;
//   - a table type whose scan enters the backend's convention and whose
//     fallback full scan is Run over that bare scan, the path a pushed query
//     takes;
//   - one rule set, named <Prefix><Op>Rule(<schema>): a scan rule for the
//     schema's tables first, then filter (split into the conjuncts the
//     backend takes and an engine-side residual), project, sort, limit,
//     aggregate and join rules for the capabilities declared, in that order;
//   - one converter, <Prefix>ToEnumerable, which binds the statement's
//     parameters into its subtree and calls Run.
//
// A backend with operators or metadata of its own (splunk's lookup join,
// cassandra's sort cost) adds them beside what New returns.
package adapter

import (
	"slices"

	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// Backend declares what one backend accepts and how it runs a pushed
// subtree. A nil capability is not pushed.
type Backend struct {
	// Kind names the convention ("jdbc": "jdbc-<schema>"); Prefix names
	// the operators ("Jdbc": JdbcFilter, JdbcToEnumerable).
	Kind, Prefix string
	// Filter splits a filter condition over an input already in the backend
	// into the conjuncts the backend evaluates and the residual the engine
	// keeps; nothing is pushed when pushed is empty.
	Filter func(cond rex.Node, input rel.Node) (pushed, residual []rex.Node)
	// Project, Sort, Aggregate and Join accept a logical operator whose
	// inputs are already in the backend; Sort also sees its input.
	Project   func(*rel.Project) bool
	Sort      func(s *rel.Sort, input rel.Node) bool
	Aggregate func(*rel.Aggregate) bool
	Join      func(*rel.Join) bool
	// Limit pushes a LIMIT that has no ORDER BY and no OFFSET.
	Limit bool
	// Run renders a bound subtree of the backend's convention in the
	// backend's language, executes it and returns the rows.
	Run func(rel.Node) ([][]any, error)
}

// Adapter is a Backend registered under one schema. It implements
// core.Adapter.
type Adapter struct {
	Backend
	SchemaName string
	Conv       trait.Convention

	schema *schema.BaseSchema
}

// New registers b under schemaName; AddTable fills the schema.
func New(schemaName string, b Backend) *Adapter {
	return &Adapter{Backend: b, SchemaName: schemaName, Conv: trait.NewConvention(b.Kind + "-" + schemaName),
		schema: schema.NewBaseSchema(schemaName)}
}

// AddTable exposes one backend table in the adapter's schema.
func (a *Adapter) AddTable(name string, rowType *types.Type, stats schema.Statistics) {
	a.schema.AddTable(&Table{name: name, rowType: rowType, stats: stats, owner: a})
}

// AdapterSchema implements core.Adapter.
func (a *Adapter) AdapterSchema() schema.Schema { return a.schema }

// InConv reports whether n is in the backend's convention.
func (a *Adapter) InConv(n rel.Node) bool { return trait.SameConvention(n.Traits().Convention, a.Conv) }

// RuleName names one of the adapter's rules by the operator it pushes.
func (a *Adapter) RuleName(op string) string { return a.Prefix + op + "Rule(" + a.SchemaName + ")" }

// Logical matches a logical node of type T that accept (when non-nil) takes.
func Logical[T rel.Node](accept func(T) bool) func(rel.Node) bool {
	return func(n rel.Node) bool {
		x, ok := n.(T)
		return ok && trait.SameConvention(n.Traits().Convention, trait.Logical) && (accept == nil || accept(x))
	}
}

// Rules implements core.Adapter: the scan rule, then one rule per declared
// capability.
func (a *Adapter) Rules() []plan.Rule {
	ts := trait.NewSet(a.Conv)
	in := plan.MatchNode(a.InConv)
	var rules []plan.Rule
	add := func(op string, operand *plan.Operand, fire func(*plan.Call)) {
		rules = append(rules, &plan.FuncRule{Name: a.RuleName(op), Op: operand, Fire: fire})
	}
	add("Scan", plan.MatchNode(Logical(func(s *rel.TableScan) bool {
		t, ok := s.Table.(*Table)
		return ok && t.owner == a
	})), func(call *plan.Call) {
		// Backend names are unqualified within the backend.
		t := call.Rel(0).(*rel.TableScan).Table
		call.Transform(rel.NewTableScan(a.Conv, t, []string{t.Name()}))
	})
	if a.Filter != nil {
		add("Filter", plan.MatchNode(Logical[*rel.Filter](nil), in), func(call *plan.Call) {
			input := call.Rel(1)
			pushed, residual := a.Filter(call.Rel(0).(*rel.Filter).Condition, input)
			if len(pushed) == 0 {
				return
			}
			var n rel.Node = rel.NewFilterTraits(a.Prefix+"Filter", ts, input, rex.And(pushed...))
			if len(residual) > 0 {
				n = rel.NewFilter(n, rex.And(residual...))
			}
			call.Transform(n)
		})
	}
	if a.Project != nil {
		add("Project", plan.MatchNode(Logical(a.Project), in), func(call *plan.Call) {
			p := call.Rel(0).(*rel.Project)
			call.Transform(rel.NewProjectTraits(a.Prefix+"Project", ts, call.Rel(1), p.Exprs, p.FieldNames()))
		})
	}
	if a.Sort != nil {
		add("Sort", plan.MatchNode(Logical[*rel.Sort](nil), in), func(call *plan.Call) {
			s := call.Rel(0).(*rel.Sort)
			if a.Sort(s, call.Rel(1)) {
				call.Transform(rel.NewSortTraits(a.Prefix+"Sort", ts.WithCollation(s.Collation), call.Rel(1), s.Collation, s.Offset, s.Fetch))
			}
		})
	}
	if a.Limit {
		add("Limit", plan.MatchNode(Logical(func(s *rel.Sort) bool {
			return len(s.Collation) == 0 && s.Fetch >= 0 && s.Offset == 0
		}), in), func(call *plan.Call) {
			call.Transform(rel.NewSortTraits(a.Prefix+"Limit", ts, call.Rel(1), nil, 0, call.Rel(0).(*rel.Sort).Fetch))
		})
	}
	if a.Aggregate != nil {
		add("Aggregate", plan.MatchNode(Logical(a.Aggregate), in), func(call *plan.Call) {
			g := call.Rel(0).(*rel.Aggregate)
			call.Transform(rel.NewAggregateTraits(a.Prefix+"Aggregate", ts, call.Rel(1), g.GroupKeys, g.Calls))
		})
	}
	if a.Join != nil {
		add("Join", plan.MatchNode(Logical(a.Join), in, in), func(call *plan.Call) {
			j := call.Rel(0).(*rel.Join)
			call.Transform(rel.NewJoinTraits(a.Prefix+"Join", ts, j.Kind, call.Rel(1), call.Rel(2), j.Condition))
		})
	}
	return rules
}

// Converters implements core.Adapter.
func (a *Adapter) Converters() []core.ConverterReg {
	return []core.ConverterReg{{From: a.Conv, To: trait.Enumerable, Factory: a.convert}}
}

func (a *Adapter) convert(input rel.Node) rel.Node {
	return &toEnumerable{rel.NewConverter(a.Prefix+"ToEnumerable", trait.Enumerable, input), a}
}

// toEnumerable runs its subtree in the backend.
type toEnumerable struct {
	*rel.Converter
	adapter *Adapter
}

func (c *toEnumerable) WithNewInputs(inputs []rel.Node) rel.Node { return c.adapter.convert(inputs[0]) }

// Unwrap lets the metadata layer cost this converter as a generic
// convention converter (serialization IO at the engine boundary).
func (c *toEnumerable) Unwrap() rel.Node { return c.Converter }

// BindBatch runs the subtree, parameters bound, in the backend and lifts the
// rows it returns into batches.
func (c *toEnumerable) BindBatch(ctx *exec.Context) (schema.BatchCursor, error) {
	bound, err := exec.BindPlanParams(ctx, c.Inputs()[0])
	if err != nil {
		return nil, err
	}
	cur, err := c.adapter.run(bound)
	if err != nil {
		return nil, err
	}
	return schema.BatchCursorFromCursor(cur, rel.FieldCount(c), ctx.BatchSize), nil
}

// run executes a bound subtree of the backend's convention. A subtree that
// compares with NULL returns no rows and is not sent: no backend language
// here renders NULL with SQL's meaning.
func (a *Adapter) run(n rel.Node) (schema.Cursor, error) {
	if comparesWithNull(n) {
		return schema.NewSliceCursor(nil), nil
	}
	rows, err := a.Run(n)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// comparesWithNull reports whether a filter in n compares with NULL (a
// parameter bound to NULL) below only operators that return no rows for no
// input.
func comparesWithNull(n rel.Node) bool {
	switch x := n.(type) {
	case *rel.Filter:
		for _, term := range rex.Conjuncts(x.Condition) {
			if c, ok := term.(*rex.Call); ok && rex.Mirror(c.Op) != nil && slices.ContainsFunc(c.Operands, isNull) {
				return true
			}
		}
	case *rel.Aggregate:
		if len(x.GroupKeys) == 0 {
			return false // one row for no input
		}
	}
	return len(n.Inputs()) == 1 && comparesWithNull(n.Inputs()[0])
}

func isNull(e rex.Node) bool {
	l, ok := e.(*rex.Literal)
	return ok && l.Value == nil
}

// Table is a backend table.
type Table struct {
	name    string
	rowType *types.Type
	stats   schema.Statistics
	owner   *Adapter
}

func (t *Table) Name() string             { return t.name }
func (t *Table) RowType() *types.Type     { return t.rowType }
func (t *Table) Stats() schema.Statistics { return t.stats }

// TransferCostFactor implements schema.RemoteTable: rows pulled from the
// backend cross an engine boundary.
func (t *Table) TransferCostFactor() float64 { return 1 }

// Scan is the enumerable engine's fallback full scan when no pushdown
// applies: the backend runs the bare scan, as the converter would.
func (t *Table) Scan() (schema.Cursor, error) {
	return t.owner.run(rel.NewTableScan(t.owner.Conv, t, []string{t.name}))
}

// Split separates the conjuncts of cond that accept takes from the rest.
func Split(cond rex.Node, accept func(rex.Node) bool) (pushed, residual []rex.Node) {
	for _, term := range rex.Conjuncts(cond) {
		if accept(term) {
			pushed = append(pushed, term)
		} else {
			residual = append(residual, term)
		}
	}
	return pushed, residual
}

// Comparison is the one comparison matcher: it decomposes a conjunct
// "x OP v" or "v OP x", where OP, as seen from x, has a name in ops and v is a
// literal or a statement parameter, into x, that name and v. v is nil for a
// parameter; the converter binds it to a literal before Run renders it.
func Comparison(term rex.Node, ops map[*rex.Operator]string) (x rex.Node, op string, v *rex.Literal, ok bool) {
	c, isCall := term.(*rex.Call)
	if !isCall || len(c.Operands) != 2 {
		return nil, "", nil, false
	}
	x, y, o := c.Operands[0], c.Operands[1], c.Op
	if isValue(x) {
		x, y, o = y, x, rex.Mirror(o)
	}
	if !isValue(y) || ops[o] == "" {
		return nil, "", nil, false
	}
	v, _ = y.(*rex.Literal)
	return x, ops[o], v, true
}

// isValue reports whether e is a literal or a statement parameter.
func isValue(e rex.Node) bool {
	switch e.(type) {
	case *rex.Literal, *rex.DynamicParam:
		return true
	}
	return false
}

// ColumnComparison is Comparison where x is an input column.
func ColumnComparison(term rex.Node, ops map[*rex.Operator]string) (col int, op string, v *rex.Literal, ok bool) {
	x, op, v, ok := Comparison(term, ops)
	ref, isRef := x.(*rex.InputRef)
	if !ok || !isRef {
		return 0, "", nil, false
	}
	return ref.Index, op, v, true
}

// ColumnsOnly accepts a projection that only selects input columns.
func ColumnsOnly(p *rel.Project) bool {
	for _, e := range p.Exprs {
		if _, ok := e.(*rex.InputRef); !ok {
			return false
		}
	}
	return true
}
