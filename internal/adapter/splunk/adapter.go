package splunk

import (
	"fmt"
	"strings"

	"calcite/internal/core"
	"calcite/internal/cost"
	"calcite/internal/exec"
	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// splunkTable is the adapter's handle for an engine index.
type splunkTable struct {
	name    string
	rowType *types.Type
	engine  *Engine
	rows    float64
}

func (t *splunkTable) Name() string         { return t.name }
func (t *splunkTable) RowType() *types.Type { return t.rowType }
func (t *splunkTable) Stats() schema.Statistics {
	return schema.Statistics{RowCount: t.rows}
}

// TransferCostFactor implements schema.RemoteTable.
func (t *splunkTable) TransferCostFactor() float64 { return 1 }

// Scan falls back to an unfiltered search (enumerable full scan).
func (t *splunkTable) Scan() (schema.Cursor, error) {
	_, rows, err := t.engine.Search("search index=" + t.name)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// Adapter connects a Splunk Engine to the framework under the "splunk"
// calling convention of Figure 2.
type Adapter struct {
	SchemaName string
	Engine     *Engine
	Conv       trait.Convention

	schema *schema.BaseSchema
}

// New builds the adapter, reading index metadata from the engine.
func New(schemaName string, engine *Engine) *Adapter {
	a := &Adapter{
		SchemaName: schemaName,
		Engine:     engine,
		Conv:       trait.NewConvention("splunk"),
		schema:     schema.NewBaseSchema(schemaName),
	}
	for _, name := range engine.IndexNames() {
		fields, _ := engine.IndexFields(name)
		rowCount := 100.0
		if idx, ok := engine.indexes[strings.ToLower(name)]; ok {
			rowCount = float64(len(idx.Events))
		}
		a.schema.AddTable(&splunkTable{
			name:    name,
			rowType: types.Row(fields...),
			engine:  engine,
			rows:    rowCount,
		})
	}
	return a
}

// AdapterSchema implements core.Adapter.
func (a *Adapter) AdapterSchema() schema.Schema { return a.schema }

func (a *Adapter) inConv(n rel.Node) bool {
	return trait.SameConvention(n.Traits().Convention, a.Conv)
}

func isLogical(n rel.Node) bool {
	return trait.SameConvention(n.Traits().Convention, trait.Logical)
}

// LookupJoin is the join pushed into the Splunk engine (Figure 2: "a
// planner rule pushes the join through the splunk-to-spark converter, and
// the join is now in splunk convention, running inside the Splunk engine").
// The right side is resolved per-row through the engine's external lookup.
type LookupJoin struct {
	base        rel.Node // the splunk-convention left input
	rowType     *types.Type
	RemoteTable string
	RemoteKey   string
	LocalField  string
	RemoteCols  []string
	adapter     *Adapter
}

// NewLookupJoin builds a lookup join node.
func NewLookupJoin(a *Adapter, left rel.Node, rowType *types.Type, remoteTable, remoteKey, localField string, remoteCols []string) *LookupJoin {
	return &LookupJoin{
		base:        left,
		rowType:     rowType,
		RemoteTable: remoteTable,
		RemoteKey:   remoteKey,
		LocalField:  localField,
		RemoteCols:  remoteCols,
		adapter:     a,
	}
}

func (j *LookupJoin) Op() string           { return "SplunkLookupJoin" }
func (j *LookupJoin) Inputs() []rel.Node   { return []rel.Node{j.base} }
func (j *LookupJoin) RowType() *types.Type { return j.rowType }
func (j *LookupJoin) Traits() trait.Set    { return trait.NewSet(j.adapter.Conv) }
func (j *LookupJoin) Attrs() string {
	return fmt.Sprintf("lookup=[%s], key=[%s=%s]", j.RemoteTable, j.RemoteKey, j.LocalField)
}
func (j *LookupJoin) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewLookupJoin(j.adapter, inputs[0], j.rowType, j.RemoteTable, j.RemoteKey, j.LocalField, j.RemoteCols)
}

// Rules implements core.Adapter.
func (a *Adapter) Rules() []plan.Rule {
	ts := trait.NewSet(a.Conv)
	return []plan.Rule{
		// Scan conversion.
		&plan.FuncRule{
			Name: "SplunkScanRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				if !ok || !isLogical(n) {
					return false
				}
				st, mine := s.Table.(*splunkTable)
				return mine && st.engine == a.Engine
			}),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.TableScan)
				call.Transform(rel.NewTableScan(a.Conv, s.Table, []string{s.Table.Name()}))
			},
		},
		// Filter pushdown: "an adapter which can perform filtering on the
		// backend can implement a rule which matches a LogicalFilter and
		// converts it to the adapter's calling convention" (§5).
		&plan.FuncRule{
			Name: "SplunkFilterRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Filter)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				f := call.Rel(0).(*rel.Filter)
				child := call.Rel(1)
				var pushable, residual []rex.Node
				for _, term := range rex.Conjuncts(f.Condition) {
					if splCondition(term, child.RowType().Fields) != "" {
						pushable = append(pushable, term)
					} else {
						residual = append(residual, term)
					}
				}
				if len(pushable) == 0 {
					return
				}
				var node rel.Node = rel.NewFilterTraits("SplunkFilter", ts, child, rex.And(pushable...))
				if len(residual) > 0 {
					node = rel.NewFilter(node, rex.And(residual...))
				}
				call.Transform(node)
			},
		},
		// Projection pushdown ("| fields ...").
		&plan.FuncRule{
			Name: "SplunkProjectRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Project)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				p := call.Rel(0).(*rel.Project)
				for _, e := range p.Exprs {
					if _, ok := e.(*rex.InputRef); !ok {
						return // SPL fields stage projects columns only
					}
				}
				call.Transform(rel.NewProjectTraits("SplunkProject", ts, call.Rel(1), p.Exprs, p.FieldNames()))
			},
		},
		// Limit pushdown ("| head N").
		&plan.FuncRule{
			Name: "SplunkLimitRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.Sort)
				return ok && isLogical(n) && len(s.Collation) == 0 && s.Fetch >= 0 && s.Offset == 0
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.Sort)
				call.Transform(rel.NewSortTraits("SplunkLimit", ts, call.Rel(1), nil, 0, s.Fetch))
			},
		},
		// The Figure 2 rule: push an inner equi-join between a splunk-side
		// input and a remote SQL table through the converter, turning it
		// into an in-engine lookup join.
		&plan.FuncRule{
			Name: "SplunkLookupJoinRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				j, ok := n.(*rel.Join)
				return ok && isLogical(n) && j.Kind == rel.InnerJoin
			}, plan.MatchNode(a.inConv), plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				return ok && s.Traits().Convention != nil &&
					strings.HasPrefix(s.Traits().Convention.ConventionName(), "jdbc-")
			})),
			Fire: func(call *plan.Call) {
				j := call.Rel(0).(*rel.Join)
				left := call.Rel(1)
				right := call.Rel(2).(*rel.TableScan)
				nLeft := rel.FieldCount(left)
				info := exec.AnalyzeJoin(j.Condition, nLeft)
				if len(info.LeftKeys) != 1 || info.Residual != nil {
					return
				}
				localField := left.RowType().Fields[info.LeftKeys[0]].Name
				remoteKey := right.RowType().Fields[info.RightKeys[0]].Name
				remoteCols := right.RowType().FieldNames()
				call.Transform(NewLookupJoin(a, left, j.RowType(),
					right.Table.Name(), remoteKey, localField, remoteCols))
			},
		},
	}
}

// Converters implements core.Adapter.
func (a *Adapter) Converters() []core.ConverterReg {
	return []core.ConverterReg{{
		From: a.Conv,
		To:   trait.Enumerable,
		Factory: func(input rel.Node) rel.Node {
			return &toEnumerable{
				Converter: rel.NewConverter("SplunkToEnumerable", trait.Enumerable, input),
				adapter:   a,
			}
		},
	}}
}

// MetaProviders implements core.MetaAdapter: a lookup join produces about
// one row per (filtered) left row and costs one remote lookup each, which
// is what makes the Figure 2 final plan cheaper than shipping both tables
// to an external engine.
func (a *Adapter) MetaProviders() []meta.Provider {
	return []meta.Provider{{
		Name: "splunk",
		RowCount: func(q *meta.Query, n rel.Node) (float64, bool) {
			if lj, ok := n.(*LookupJoin); ok {
				return q.RowCount(lj.Inputs()[0]), true
			}
			return 0, false
		},
		NonCumulativeCost: func(q *meta.Query, n rel.Node) (cost.Cost, bool) {
			if lj, ok := n.(*LookupJoin); ok {
				left := q.RowCount(lj.Inputs()[0])
				return cost.New(left, left, left*0.1, 0), true
			}
			return cost.Zero, false
		},
	}}
}

// toEnumerable executes a splunk-convention subtree by generating SPL.
type toEnumerable struct {
	*rel.Converter
	adapter *Adapter
}

func (c *toEnumerable) WithNewInputs(inputs []rel.Node) rel.Node {
	return &toEnumerable{
		Converter: rel.NewConverter("SplunkToEnumerable", trait.Enumerable, inputs[0]),
		adapter:   c.adapter,
	}
}

func (c *toEnumerable) Unwrap() rel.Node { return c.Converter }

func (c *toEnumerable) Bind(ctx *exec.Context) (schema.Cursor, error) {
	bound, err := exec.BindPlanParams(ctx, c.Inputs()[0])
	if err != nil {
		return nil, err
	}
	spl, err := ToSPL(bound)
	if err != nil {
		return nil, err
	}
	_, rows, err := c.adapter.Engine.Search(spl)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// SPL returns the search string for the subtree (for EXPLAIN/tests).
func (c *toEnumerable) SPL() (string, error) { return ToSPL(c.Inputs()[0]) }

// ToSPL renders a splunk-convention subtree as a search pipeline — the
// adapter's query-language translator (Table 2: "Splunk → SPL").
func ToSPL(n rel.Node) (string, error) {
	switch x := n.(type) {
	case *rel.TableScan:
		return "search index=" + x.Table.Name(), nil
	case *rel.Filter:
		child, err := ToSPL(x.Inputs()[0])
		if err != nil {
			return "", err
		}
		if strings.Contains(child, "|") {
			return "", fmt.Errorf("splunk: filter must precede pipeline stages")
		}
		var conds []string
		for _, term := range rex.Conjuncts(x.Condition) {
			c := splCondition(term, x.Inputs()[0].RowType().Fields)
			if c == "" {
				return "", fmt.Errorf("splunk: condition %s is not pushable", term)
			}
			conds = append(conds, c)
		}
		return child + " " + strings.Join(conds, " "), nil
	case *rel.Project:
		child, err := ToSPL(x.Inputs()[0])
		if err != nil {
			return "", err
		}
		inFields := x.Inputs()[0].RowType().Fields
		names := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			ref, ok := e.(*rex.InputRef)
			if !ok {
				return "", fmt.Errorf("splunk: fields stage projects columns only")
			}
			names[i] = inFields[ref.Index].Name
		}
		return child + " | fields " + strings.Join(names, ", "), nil
	case *rel.Sort:
		child, err := ToSPL(x.Inputs()[0])
		if err != nil {
			return "", err
		}
		if len(x.Collation) != 0 || x.Fetch < 0 {
			return "", fmt.Errorf("splunk: only head (limit) is supported")
		}
		return fmt.Sprintf("%s | head %d", child, x.Fetch), nil
	case *LookupJoin:
		child, err := ToSPL(x.Inputs()[0])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s | lookup %s %s=%s output %s",
			child, x.RemoteTable, x.RemoteKey, x.LocalField,
			strings.Join(x.RemoteCols, ",")), nil
	}
	return "", fmt.Errorf("splunk: cannot translate %s to SPL", n.Op())
}

// splCondition renders one conjunct as an SPL search term, or "" when the
// condition cannot be pushed.
func splCondition(term rex.Node, fields []types.Field) string {
	c, ok := term.(*rex.Call)
	if !ok || len(c.Operands) != 2 {
		return ""
	}
	op := map[*rex.Operator]string{
		rex.OpEquals: "=", rex.OpNotEquals: "!=",
		rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
		rex.OpLess: "<", rex.OpLessEqual: "<=",
	}[c.Op]
	if op == "" {
		return ""
	}
	ref, rok := c.Operands[0].(*rex.InputRef)
	lit, lok := c.Operands[1].(*rex.Literal)
	if !rok || !lok {
		// Try the mirrored form: literal OP ref.
		lit, lok = c.Operands[0].(*rex.Literal)
		ref, rok = c.Operands[1].(*rex.InputRef)
		if !rok || !lok {
			return ""
		}
		if m := rex.Mirror(c.Op); m != nil {
			op = map[*rex.Operator]string{
				rex.OpEquals: "=", rex.OpNotEquals: "!=",
				rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
				rex.OpLess: "<", rex.OpLessEqual: "<=",
			}[m]
		}
	}
	if ref.Index >= len(fields) {
		return ""
	}
	val := lit.Value
	var rendered string
	switch v := val.(type) {
	case string:
		rendered = `"` + v + `"`
	case nil:
		return ""
	default:
		rendered = types.FormatValue(v)
	}
	return fields[ref.Index].Name + op + rendered
}
