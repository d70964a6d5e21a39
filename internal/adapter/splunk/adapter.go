package splunk

import (
	"fmt"
	"strconv"
	"strings"

	"calcite/internal/adapter"
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

// Adapter connects a Splunk Engine to the framework under the splunk
// calling convention of Figure 2: search-term filters, field projections,
// head limits and the lookup join into a SQL backend, rendered as SPL.
type Adapter struct {
	*adapter.Adapter
}

// New builds the adapter, reading index metadata from the engine.
func New(schemaName string, engine *Engine) *Adapter {
	a := &Adapter{adapter.New(schemaName, adapter.Backend{
		Kind:   "splunk",
		Prefix: "Splunk",
		// "An adapter which can perform filtering on the backend can
		// implement a rule which matches a LogicalFilter and converts it to
		// the adapter's calling convention" (§5). Search terms precede every
		// pipeline stage.
		Filter: func(cond rex.Node, input rel.Node) ([]rex.Node, []rex.Node) {
			if !searchable(input) {
				return nil, nil
			}
			return adapter.Split(cond, isSearchTerm)
		},
		Project: adapter.ColumnsOnly,
		Limit:   true,
		Run: func(n rel.Node) ([][]any, error) {
			spl, err := ToSPL(n)
			if err != nil {
				return nil, err
			}
			_, rows, err := engine.Search(spl)
			return rows, err
		},
	})}
	for _, name := range engine.IndexNames() {
		idx := engine.indexes[strings.ToLower(name)]
		a.AddTable(idx.Name, types.Row(idx.Fields...), schema.Statistics{RowCount: float64(len(idx.Events))})
	}
	return a
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
	conv        trait.Convention
}

// NewLookupJoin builds a lookup join node in the splunk convention conv.
func NewLookupJoin(conv trait.Convention, left rel.Node, rowType *types.Type, remoteTable, remoteKey, localField string, remoteCols []string) *LookupJoin {
	return &LookupJoin{
		base:        left,
		rowType:     rowType,
		RemoteTable: remoteTable,
		RemoteKey:   remoteKey,
		LocalField:  localField,
		RemoteCols:  remoteCols,
		conv:        conv,
	}
}

func (j *LookupJoin) Op() string           { return "SplunkLookupJoin" }
func (j *LookupJoin) Inputs() []rel.Node   { return []rel.Node{j.base} }
func (j *LookupJoin) RowType() *types.Type { return j.rowType }
func (j *LookupJoin) Traits() trait.Set    { return trait.NewSet(j.conv) }
func (j *LookupJoin) Attrs() string {
	return fmt.Sprintf("lookup=[%s], key=[%s=%s]", j.RemoteTable, j.RemoteKey, j.LocalField)
}
func (j *LookupJoin) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewLookupJoin(j.conv, inputs[0], j.rowType, j.RemoteTable, j.RemoteKey, j.LocalField, j.RemoteCols)
}

// Rules implements core.Adapter: the contract's rules, then the Figure 2
// rule, which pushes an inner equi-join between a splunk-side input and a
// remote SQL table through the converter, turning it into an in-engine
// lookup join.
func (a *Adapter) Rules() []plan.Rule {
	return append(a.Adapter.Rules(), &plan.FuncRule{
		Name: a.RuleName("LookupJoin"),
		Op: plan.MatchNode(adapter.Logical(func(j *rel.Join) bool { return j.Kind == rel.InnerJoin }),
			plan.MatchNode(a.InConv), plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.TableScan)
				return ok && n.Traits().Convention != nil &&
					strings.HasPrefix(n.Traits().Convention.ConventionName(), "jdbc-")
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
			call.Transform(NewLookupJoin(a.Conv, left, j.RowType(),
				right.Table.Name(), remoteKey, localField, remoteCols))
		},
	})
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

// ToSPL renders a splunk-convention subtree as a search pipeline — the
// adapter's query-language translator (Table 2: "Splunk → SPL").
func ToSPL(n rel.Node) (string, error) {
	switch x := n.(type) {
	case *rel.TableScan:
		return "search index=" + x.Table.Name(), nil
	case *rel.Filter:
		if !searchable(x.Inputs()[0]) {
			return "", fmt.Errorf("splunk: filter must precede pipeline stages")
		}
		child, err := ToSPL(x.Inputs()[0])
		if err != nil {
			return "", err
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

// splOps are the comparison operators a search term carries.
var splOps = map[*rex.Operator]string{
	rex.OpEquals: "=", rex.OpNotEquals: "!=",
	rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
	rex.OpLess: "<", rex.OpLessEqual: "<=",
}

// searchable reports whether n is a search with no pipeline stage, which
// more search terms can extend.
func searchable(n rel.Node) bool {
	switch n.(type) {
	case *rel.TableScan, *rel.Filter:
		return true
	}
	return false
}

// isSearchTerm reports whether a conjunct is a search term: a field
// compared with a value.
func isSearchTerm(term rex.Node) bool {
	_, _, _, ok := adapter.ColumnComparison(term, splOps)
	return ok
}

// splCondition renders one conjunct as an SPL search term, or "" when the
// condition cannot be pushed.
func splCondition(term rex.Node, fields []types.Field) string {
	col, op, v, ok := adapter.ColumnComparison(term, splOps)
	if !ok {
		return ""
	}
	rendered := types.FormatValue(v.Value)
	if s, ok := v.Value.(string); ok {
		rendered = strconv.Quote(s)
	}
	return fields[col].Name + op + rendered
}
