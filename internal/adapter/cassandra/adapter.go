package cassandra

import (
	"fmt"
	"slices"
	"strings"

	"calcite/internal/adapter"
	"calcite/internal/cost"
	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// Adapter connects a Store under the cassandra calling convention: the
// key-restricted CassandraFilter, column projections, limits and the
// two-precondition CassandraSort rule of §6, rendered as CQL.
type Adapter struct {
	*adapter.Adapter
	defs map[string]TableDef
}

// New builds the adapter from the store's table definitions.
func New(schemaName string, store *Store) *Adapter {
	a := &Adapter{defs: map[string]TableDef{}}
	a.Adapter = adapter.New(schemaName, adapter.Backend{
		Kind:    "cassandra",
		Prefix:  "Cassandra",
		Filter:  a.keyFilter,
		Project: adapter.ColumnsOnly,
		Sort:    a.clusteringSort,
		Limit:   true,
		Run: func(n rel.Node) ([][]any, error) {
			cql, err := ToCQL(n)
			if err != nil {
				return nil, err
			}
			_, rows, err := store.Execute(cql)
			return rows, err
		},
	})
	for _, def := range store.Tables() {
		a.defs[def.Name] = def
		a.AddTable(def.Name, types.Row(def.Fields...), schema.Statistics{RowCount: 1000})
	}
	return a
}

// keyFilter pushes the key conditions of a filter on a table scan, and only
// when they bind the full partition key: "This requires that a LogicalFilter
// has been rewritten to a CassandraFilter to ensure the partition filter is
// pushed down to the database" (§6). Cassandra rejects other filters (no
// ALLOW FILTERING in this adapter).
func (a *Adapter) keyFilter(cond rex.Node, input rel.Node) (pushed, residual []rex.Node) {
	scan, ok := input.(*rel.TableScan)
	if !ok {
		return nil, nil
	}
	pushed, residual, singlePartition := splitKeys(cond, a.defs[scan.Table.Name()])
	if !singlePartition {
		return nil, nil
	}
	return pushed, residual
}

// clusteringSort is the §6 sort rule's two preconditions: (1) the sort's
// input is a CassandraFilter restricting a scan to a single partition, and
// (2) the required order shares a prefix with the clustering order. CQL has
// no OFFSET, so a sort with one stays engine-side.
func (a *Adapter) clusteringSort(s *rel.Sort, input rel.Node) bool {
	f, ok := input.(*rel.Filter)
	if !ok || len(s.Collation) == 0 || s.Offset != 0 {
		return false
	}
	scan, ok := f.Inputs()[0].(*rel.TableScan)
	if !ok {
		return false
	}
	def := a.defs[scan.Table.Name()]
	_, _, singlePartition := splitKeys(f.Condition, def)
	return singlePartition && clusteringPrefix(s.Collation, def)
}

// splitKeys separates the conjuncts CQL evaluates — equality on a partition
// key column, a comparison on a clustering column — from the rest, and
// reports whether they bind every partition key column.
func splitKeys(cond rex.Node, def TableDef) (pushed, residual []rex.Node, singlePartition bool) {
	bound := map[int]bool{}
	pushed, residual = adapter.Split(cond, func(term rex.Node) bool {
		col, op, _, ok := adapter.ColumnComparison(term, cqlOps)
		if ok && slices.Contains(def.PartitionKeys, col) && op == "=" {
			bound[col] = true
			return true
		}
		return ok && slices.Contains(def.ClusteringKeys, col)
	})
	singlePartition = len(def.PartitionKeys) > 0
	for _, c := range def.PartitionKeys {
		singlePartition = singlePartition && bound[c]
	}
	return pushed, residual, singlePartition
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

// cqlOps are the comparison operators CQL carries.
var cqlOps = map[*rex.Operator]string{
	rex.OpEquals: "=", rex.OpGreater: ">", rex.OpGreaterEqual: ">=",
	rex.OpLess: "<", rex.OpLessEqual: "<=",
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
			col, op, v, ok := adapter.ColumnComparison(term, cqlOps)
			if !ok {
				return nil, "", nil, nil, -1, fmt.Errorf("cassandra: condition %s not translatable to CQL", term)
			}
			where = append(where, fmt.Sprintf("%s %s %s", fields[col].Name, op, cqlLit(v.Value)))
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
