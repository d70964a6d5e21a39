package cassandra

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

// cassTable is the adapter's handle for a store table.
type cassTable struct {
	def   TableDef
	store *Store
}

func (t *cassTable) Name() string         { return t.def.Name }
func (t *cassTable) RowType() *types.Type { return types.Row(t.def.Fields...) }
func (t *cassTable) Stats() schema.Statistics {
	return schema.Statistics{RowCount: 1000}
}

// TransferCostFactor implements schema.RemoteTable.
func (t *cassTable) TransferCostFactor() float64 { return 1 }

// Scan falls back to a full CQL scan.
func (t *cassTable) Scan() (schema.Cursor, error) {
	_, rows, err := t.store.Execute("SELECT * FROM " + t.def.Name)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// Adapter connects a Store under the "cassandra" calling convention.
type Adapter struct {
	SchemaName string
	Store      *Store
	Conv       trait.Convention

	schema *schema.BaseSchema
	tables map[string]*cassTable
}

// New builds the adapter from the store's table definitions.
func New(schemaName string, store *Store) *Adapter {
	a := &Adapter{
		SchemaName: schemaName,
		Store:      store,
		Conv:       trait.NewConvention("cassandra"),
		schema:     schema.NewBaseSchema(schemaName),
		tables:     map[string]*cassTable{},
	}
	for _, def := range store.Tables() {
		t := &cassTable{def: def, store: store}
		a.schema.AddTable(t)
		a.tables[strings.ToLower(def.Name)] = t
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

// Rules implements core.Adapter: scan conversion, the key-restricted
// CassandraFilter rule, and the two-precondition CassandraSort rule of §6.
func (a *Adapter) Rules() []plan.Rule {
	ts := trait.NewSet(a.Conv)
	return []plan.Rule{
		&plan.FuncRule{
			Name: "CassandraScanRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				if !ok || !isLogical(n) {
					return false
				}
				ct, mine := s.Table.(*cassTable)
				return mine && ct.store == a.Store
			}),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.TableScan)
				call.Transform(rel.NewTableScan(a.Conv, s.Table, []string{s.Table.Name()}))
			},
		},
		// "This requires that a LogicalFilter has been rewritten to a
		// CassandraFilter to ensure the partition filter is pushed down to
		// the database" (§6).
		&plan.FuncRule{
			Name: "CassandraFilterRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Filter)
				return ok && isLogical(n)
			}, plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				return ok && a.inConv(n) && s != nil
			})),
			Fire: func(call *plan.Call) {
				f := call.Rel(0).(*rel.Filter)
				scan := call.Rel(1).(*rel.TableScan)
				def := scan.Table.(*cassTable).def
				pushable, residual, singlePartition := splitCassandraConds(f.Condition, def)
				if len(pushable) == 0 || !singlePartition {
					// Cassandra rejects filters that do not bind the full
					// partition key (no ALLOW FILTERING in this adapter).
					return
				}
				var node rel.Node = rel.NewFilterTraits("CassandraFilter", ts, scan, rex.And(pushable...))
				if len(residual) > 0 {
					node = rel.NewFilter(node, rex.And(residual...))
				}
				call.Transform(node)
			},
		},
		// Projection pushdown: CQL selects named columns.
		&plan.FuncRule{
			Name: "CassandraProjectRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Project)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				p := call.Rel(0).(*rel.Project)
				for _, e := range p.Exprs {
					if _, ok := e.(*rex.InputRef); !ok {
						return
					}
				}
				call.Transform(rel.NewProjectTraits("CassandraProject", ts, call.Rel(1), p.Exprs, p.FieldNames()))
			},
		},
		// The §6 sort-pushdown rule with its two preconditions.
		&plan.FuncRule{
			Name: "CassandraSortRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.Sort)
				return ok && isLogical(n) && len(s.Collation) > 0
			}, plan.MatchNode(func(n rel.Node) bool {
				f, ok := n.(*rel.Filter)
				return ok && a.inConv(n) && f.Op() == "CassandraFilter"
			})),
			Fire: func(call *plan.Call) {
				sortNode := call.Rel(0).(*rel.Sort)
				filter := call.Rel(1).(*rel.Filter)
				scan, ok := filter.Inputs()[0].(*rel.TableScan)
				if !ok {
					return
				}
				def := scan.Table.(*cassTable).def
				// Precondition 1: the filter restricts to a single
				// partition (equality on every partition key column).
				if !bindsFullPartition(filter.Condition, def) {
					return
				}
				// Precondition 2: the required sort shares a prefix with
				// the clustering order (all ascending, matching storage).
				if !clusteringPrefix(sortNode.Collation, def) {
					return
				}
				call.Transform(rel.NewSortTraits("CassandraSort",
					ts.WithCollation(sortNode.Collation),
					filter, sortNode.Collation, sortNode.Offset, sortNode.Fetch))
			},
		},
		// Limit pushdown onto an already-pushed sort or filter.
		&plan.FuncRule{
			Name: "CassandraLimitRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.Sort)
				return ok && isLogical(n) && len(s.Collation) == 0 && s.Fetch >= 0 && s.Offset == 0
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.Sort)
				call.Transform(rel.NewSortTraits("CassandraLimit", ts, call.Rel(1), nil, 0, s.Fetch))
			},
		},
	}
}

// splitCassandraConds separates pushable key conditions from residual ones
// and reports whether the partition key is fully bound by equality.
func splitCassandraConds(cond rex.Node, def TableDef) (pushable, residual []rex.Node, singlePartition bool) {
	isPartition := map[int]bool{}
	for _, c := range def.PartitionKeys {
		isPartition[c] = true
	}
	isClustering := map[int]bool{}
	for _, c := range def.ClusteringKeys {
		isClustering[c] = true
	}
	bound := map[int]bool{}
	for _, term := range rex.Conjuncts(cond) {
		col, op, _, ok := simpleComparison(term)
		switch {
		case ok && isPartition[col] && op == "=":
			bound[col] = true
			pushable = append(pushable, term)
		case ok && isClustering[col]:
			pushable = append(pushable, term)
		default:
			residual = append(residual, term)
		}
	}
	singlePartition = len(def.PartitionKeys) > 0
	for _, c := range def.PartitionKeys {
		if !bound[c] {
			singlePartition = false
		}
	}
	return pushable, residual, singlePartition
}

// bindsFullPartition reports whether cond binds every partition key column
// with equality.
func bindsFullPartition(cond rex.Node, def TableDef) bool {
	bound := map[int]bool{}
	for _, term := range rex.Conjuncts(cond) {
		if col, op, _, ok := simpleComparison(term); ok && op == "=" {
			bound[col] = true
		}
	}
	for _, c := range def.PartitionKeys {
		if !bound[c] {
			return false
		}
	}
	return len(def.PartitionKeys) > 0
}

// clusteringPrefix reports whether the collation is an ascending prefix of
// the clustering order (or its full descending reversal).
func clusteringPrefix(collation trait.Collation, def TableDef) bool {
	if len(collation) > len(def.ClusteringKeys) {
		return false
	}
	dir := collation[0].Direction
	for i, fc := range collation {
		if fc.Field != def.ClusteringKeys[i] || fc.Direction != dir {
			return false
		}
	}
	return true
}

// simpleComparison decomposes "col OP literal".
func simpleComparison(term rex.Node) (col int, op string, val any, ok bool) {
	c, isCall := term.(*rex.Call)
	if !isCall || len(c.Operands) != 2 {
		return 0, "", nil, false
	}
	opName := map[*rex.Operator]string{
		rex.OpEquals: "=", rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
		rex.OpLess: "<", rex.OpLessEqual: "<=",
	}[c.Op]
	if opName == "" {
		return 0, "", nil, false
	}
	if ref, rok := c.Operands[0].(*rex.InputRef); rok {
		if lit, lok := c.Operands[1].(*rex.Literal); lok && lit.Value != nil {
			return ref.Index, opName, lit.Value, true
		}
	}
	if lit, lok := c.Operands[0].(*rex.Literal); lok && lit.Value != nil {
		if ref, rok := c.Operands[1].(*rex.InputRef); rok {
			if m := rex.Mirror(c.Op); m != nil {
				return ref.Index, map[*rex.Operator]string{
					rex.OpEquals: "=", rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
					rex.OpLess: "<", rex.OpLessEqual: "<=",
				}[m], lit.Value, true
			}
		}
	}
	return 0, "", nil, false
}

// MetaProviders implements core.MetaAdapter: a CassandraSort is free — rows
// within a partition are already stored in clustering order, so the pushed
// sort merely reads them back (§6: exploiting traits "to find plans that
// avoid unnecessary operations").
func (a *Adapter) MetaProviders() []meta.Provider {
	return []meta.Provider{{
		Name: "cassandra",
		NonCumulativeCost: func(q *meta.Query, n rel.Node) (cost.Cost, bool) {
			if s, ok := n.(*rel.Sort); ok && s.Op() == "CassandraSort" {
				rc := q.RowCount(s.Inputs()[0])
				return cost.New(rc, rc*0.1, 0, 0), true
			}
			return cost.Zero, false
		},
	}}
}

// Converters implements core.Adapter.
func (a *Adapter) Converters() []core.ConverterReg {
	return []core.ConverterReg{{
		From: a.Conv,
		To:   trait.Enumerable,
		Factory: func(input rel.Node) rel.Node {
			return &toEnumerable{
				Converter: rel.NewConverter("CassandraToEnumerable", trait.Enumerable, input),
				adapter:   a,
			}
		},
	}}
}

type toEnumerable struct {
	*rel.Converter
	adapter *Adapter
}

func (c *toEnumerable) WithNewInputs(inputs []rel.Node) rel.Node {
	return &toEnumerable{
		Converter: rel.NewConverter("CassandraToEnumerable", trait.Enumerable, inputs[0]),
		adapter:   c.adapter,
	}
}

func (c *toEnumerable) Unwrap() rel.Node { return c.Converter }

func (c *toEnumerable) Bind(ctx *exec.Context) (schema.Cursor, error) {
	bound, err := exec.BindPlanParams(ctx, c.Inputs()[0])
	if err != nil {
		return nil, err
	}
	cql, err := ToCQL(bound)
	if err != nil {
		return nil, err
	}
	_, rows, err := c.adapter.Store.Execute(cql)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// ToCQL renders a cassandra-convention subtree as CQL text.
func ToCQL(n rel.Node) (string, error) {
	sel, table, where, order, limit, err := collect(n)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(sel) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(sel, ", "))
	}
	b.WriteString(" FROM " + table)
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if len(order) > 0 {
		b.WriteString(" ORDER BY " + strings.Join(order, ", "))
	}
	if limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", limit)
	}
	return b.String(), nil
}

func collect(n rel.Node) (sel []string, table string, where, order []string, limit int, err error) {
	limit = -1
	switch x := n.(type) {
	case *rel.TableScan:
		return nil, x.Table.Name(), nil, nil, -1, nil
	case *rel.Filter:
		sel, table, where, order, limit, err = collect(x.Inputs()[0])
		if err != nil {
			return
		}
		fields := x.Inputs()[0].RowType().Fields
		for _, term := range rex.Conjuncts(x.Condition) {
			col, op, val, ok := simpleComparison(term)
			if !ok {
				return nil, "", nil, nil, -1, fmt.Errorf("cassandra: condition %s not translatable to CQL", term)
			}
			where = append(where, fmt.Sprintf("%s %s %s", fields[col].Name, op, cqlLit(val)))
		}
		return
	case *rel.Sort:
		sel, table, where, order, limit, err = collect(x.Inputs()[0])
		if err != nil {
			return
		}
		fields := x.Inputs()[0].RowType().Fields
		for _, fc := range x.Collation {
			dir := ""
			if fc.Direction == trait.Descending {
				dir = " DESC"
			}
			order = append(order, fields[fc.Field].Name+dir)
		}
		if x.Fetch >= 0 {
			limit = int(x.Fetch)
		}
		return
	case *rel.Project:
		sel, table, where, order, limit, err = collect(x.Inputs()[0])
		if err != nil {
			return
		}
		inFields := x.Inputs()[0].RowType().Fields
		var cols []string
		for _, e := range x.Exprs {
			ref, ok := e.(*rex.InputRef)
			if !ok {
				return nil, "", nil, nil, -1, fmt.Errorf("cassandra: CQL projects columns only")
			}
			cols = append(cols, inFields[ref.Index].Name)
		}
		sel = cols
		return
	}
	return nil, "", nil, nil, -1, fmt.Errorf("cassandra: cannot translate %s to CQL", n.Op())
}

func cqlLit(v any) string {
	if s, ok := v.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return types.FormatValue(v)
}
