package sqldb

import (
	"calcite/internal/adapter"
	"calcite/internal/rel"
	"calcite/internal/rel2sql"
	"calcite/internal/rex"
)

// Adapter connects a Server to the framework under a dedicated calling
// convention (e.g. "jdbc-mysql" in Figure 2).
type Adapter = adapter.Adapter

// New builds the adapter, reading table metadata from the server (the
// schema-factory step of Figure 3). The JDBC adapter pushes filters,
// projections, sorts, aggregates and two-sided joins into the server as one
// dialect-SQL statement ("any expression represented in the relational
// algebra can be pushed down to adapters with optimizer rules", §5).
func New(schemaName string, server *Server, dialect rel2sql.Dialect) (*Adapter, error) {
	a := adapter.New(schemaName, adapter.Backend{
		Kind:    "jdbc",
		Prefix:  "Jdbc",
		Filter:  func(cond rex.Node, _ rel.Node) ([]rex.Node, []rex.Node) { return []rex.Node{cond}, nil },
		Project: func(*rel.Project) bool { return true },
		Sort:    func(*rel.Sort, rel.Node) bool { return true },
		Aggregate: func(agg *rel.Aggregate) bool {
			for _, c := range agg.Calls {
				if c.Func == rex.AggCollect || c.Func == rex.AggSingleValue {
					return false // not expressible in plain SQL
				}
			}
			return true
		},
		Join: func(j *rel.Join) bool { return j.Kind != rel.SemiJoin && j.Kind != rel.AntiJoin },
		Run: func(n rel.Node) ([][]any, error) {
			sql, err := rel2sql.Unparse(n, dialect)
			if err != nil {
				return nil, err
			}
			_, rows, err := server.Query(sql)
			return rows, err
		},
	})
	for _, name := range server.TableNames() {
		rt, stats, err := server.TableType(name)
		if err != nil {
			return nil, err
		}
		a.AddTable(name, rt, stats)
	}
	return a, nil
}
