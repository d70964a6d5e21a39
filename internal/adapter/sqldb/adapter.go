package sqldb

import (
	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rel2sql"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// remoteTable is the adapter's local handle for a server table.
type remoteTable struct {
	name    string
	rowType *types.Type
	stats   schema.Statistics
	server  *Server
}

func (t *remoteTable) Name() string             { return t.name }
func (t *remoteTable) RowType() *types.Type     { return t.rowType }
func (t *remoteTable) Stats() schema.Statistics { return t.stats }

// TransferCostFactor implements schema.RemoteTable: rows pulled from the
// server cross an engine boundary.
func (t *remoteTable) TransferCostFactor() float64 { return 1 }

// Scan lets the enumerable engine fall back to a full remote scan
// ("SELECT * FROM t") when no pushdown applies.
func (t *remoteTable) Scan() (schema.Cursor, error) {
	_, rows, err := t.server.Query("SELECT * FROM " + t.name)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// Adapter connects a Server to the framework under a dedicated calling
// convention (e.g. "jdbc-mysql" in Figure 2).
type Adapter struct {
	SchemaName string
	Server     *Server
	Dialect    rel2sql.Dialect
	Conv       trait.Convention

	schema *schema.BaseSchema
}

// New builds the adapter, reading table metadata from the server (the
// schema-factory step of Figure 3).
func New(schemaName string, server *Server, dialect rel2sql.Dialect) (*Adapter, error) {
	a := &Adapter{
		SchemaName: schemaName,
		Server:     server,
		Dialect:    dialect,
		Conv:       trait.NewConvention("jdbc-" + schemaName),
		schema:     schema.NewBaseSchema(schemaName),
	}
	for _, name := range server.TableNames() {
		rt, stats, err := server.TableType(name)
		if err != nil {
			return nil, err
		}
		a.schema.AddTable(&remoteTable{name: name, rowType: rt, stats: stats, server: server})
	}
	return a, nil
}

// AdapterSchema implements core.Adapter.
func (a *Adapter) AdapterSchema() schema.Schema { return a.schema }

// inConv matches nodes of type T carrying this adapter's convention.
func (a *Adapter) inConv(n rel.Node) bool {
	return trait.SameConvention(n.Traits().Convention, a.Conv)
}

func isLogical(n rel.Node) bool {
	return trait.SameConvention(n.Traits().Convention, trait.Logical)
}

// Rules implements core.Adapter: the JDBC adapter pushes scans, filters,
// projections, sorts, aggregates and two-sided joins into the remote server
// ("any expression represented in the relational algebra can be pushed down
// to adapters with optimizer rules", §5).
func (a *Adapter) Rules() []plan.Rule {
	conv := a.Conv
	ts := trait.NewSet(conv)
	return []plan.Rule{
		&plan.FuncRule{
			Name: "JdbcScanRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				if !ok || !isLogical(n) {
					return false
				}
				_, mine := s.Table.(*remoteTable)
				return mine && a.ownsTable(s.Table)
			}),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.TableScan)
				// Remote names are unqualified within the server.
				call.Transform(rel.NewTableScan(conv, s.Table, []string{s.Table.Name()}))
			},
		},
		&plan.FuncRule{
			Name: "JdbcFilterRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Filter)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				f := call.Rel(0).(*rel.Filter)
				call.Transform(rel.NewFilterTraits("JdbcFilter", ts, call.Rel(1), f.Condition))
			},
		},
		&plan.FuncRule{
			Name: "JdbcProjectRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Project)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				p := call.Rel(0).(*rel.Project)
				call.Transform(rel.NewProjectTraits("JdbcProject", ts, call.Rel(1), p.Exprs, p.FieldNames()))
			},
		},
		&plan.FuncRule{
			Name: "JdbcSortRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Sort)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.Sort)
				call.Transform(rel.NewSortTraits("JdbcSort", ts.WithCollation(s.Collation), call.Rel(1), s.Collation, s.Offset, s.Fetch))
			},
		},
		&plan.FuncRule{
			Name: "JdbcAggregateRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Aggregate)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				agg := call.Rel(0).(*rel.Aggregate)
				for _, c := range agg.Calls {
					if c.Func == rex.AggCollect || c.Func == rex.AggSingleValue {
						return // not expressible in plain SQL
					}
				}
				call.Transform(rel.NewAggregateTraits("JdbcAggregate", ts, call.Rel(1), agg.GroupKeys, agg.Calls))
			},
		},
		&plan.FuncRule{
			Name: "JdbcJoinRule(" + a.SchemaName + ")",
			Op: plan.MatchNode(func(n rel.Node) bool {
				j, ok := n.(*rel.Join)
				return ok && isLogical(n) && j.Kind != rel.SemiJoin && j.Kind != rel.AntiJoin
			}, plan.MatchNode(a.inConv), plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				j := call.Rel(0).(*rel.Join)
				call.Transform(rel.NewJoinTraits("JdbcJoin", ts, j.Kind, call.Rel(1), call.Rel(2), j.Condition))
			},
		},
	}
}

// ownsTable reports whether the table belongs to this adapter's server.
func (a *Adapter) ownsTable(t schema.Table) bool {
	rt, ok := t.(*remoteTable)
	return ok && rt.server == a.Server
}

// Converters implements core.Adapter: a jdbc-convention subtree converts to
// enumerable by unparsing it to dialect SQL and executing it on the server.
func (a *Adapter) Converters() []core.ConverterReg {
	return []core.ConverterReg{{
		From: a.Conv,
		To:   trait.Enumerable,
		Factory: func(input rel.Node) rel.Node {
			return &toEnumerable{
				Converter: rel.NewConverter("JdbcToEnumerable", trait.Enumerable, input),
				adapter:   a,
			}
		},
	}}
}

// toEnumerable executes a remote subtree via generated SQL.
type toEnumerable struct {
	*rel.Converter
	adapter *Adapter
}

func (c *toEnumerable) WithNewInputs(inputs []rel.Node) rel.Node {
	return &toEnumerable{
		Converter: rel.NewConverter("JdbcToEnumerable", trait.Enumerable, inputs[0]),
		adapter:   c.adapter,
	}
}

func (c *toEnumerable) Bind(ctx *exec.Context) (schema.Cursor, error) {
	bound, err := exec.BindPlanParams(ctx, c.Inputs()[0])
	if err != nil {
		return nil, err
	}
	sql, err := c.adapter.PushedSQL(bound)
	if err != nil {
		return nil, err
	}
	_, rows, err := c.adapter.Server.Query(sql)
	if err != nil {
		return nil, err
	}
	return schema.NewSliceCursor(rows), nil
}

// PushedSQL unparses a jdbc-convention subtree without executing it.
func (a *Adapter) PushedSQL(n rel.Node) (string, error) {
	return rel2sql.Unparse(n, a.Dialect)
}

// Unwrap lets the metadata layer cost this converter as a generic
// convention converter (serialization IO at the engine boundary).
func (c *toEnumerable) Unwrap() rel.Node { return c.Converter }
