package mongo

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"calcite/internal/adapter"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// Adapter connects a Store under the mongo calling convention: filters over
// _MAP['field'] comparisons push down as JSON find documents.
type Adapter = adapter.Adapter

// mapRowType is every collection's row type: "a table is created for each
// document collection with a single column named _MAP: a map from document
// identifiers to their data" (§7.1).
var mapRowType = types.Row(types.Field{
	Name: "_MAP",
	Type: types.Map(types.Varchar, types.Any),
})

// New builds the adapter from the store's collections.
func New(schemaName string, store *Store) *Adapter {
	a := adapter.New(schemaName, adapter.Backend{
		Kind:   "mongo",
		Prefix: "Mongo",
		Filter: func(cond rex.Node, _ rel.Node) ([]rex.Node, []rex.Node) {
			return adapter.Split(cond, func(term rex.Node) bool {
				_, _, _, ok := mapFieldComparison(term)
				return ok
			})
		},
		Run: func(n rel.Node) ([][]any, error) {
			collection, filterJSON, err := ToFind(n)
			if err != nil {
				return nil, err
			}
			docs, err := store.Find(collection, filterJSON)
			if err != nil {
				return nil, err
			}
			rows := make([][]any, len(docs))
			for i, d := range docs {
				rows[i] = []any{d}
			}
			return rows, nil
		},
	})
	for _, name := range store.CollectionNames() {
		a.AddTable(name, mapRowType, schema.Statistics{RowCount: 500})
	}
	return a
}

// findOps are the comparison operators a find document carries.
var findOps = map[*rex.Operator]string{
	rex.OpEquals: "$eq", rex.OpNotEquals: "$ne",
	rex.OpGreater: "$gt", rex.OpGreaterEqual: "$gte",
	rex.OpLess: "$lt", rex.OpLessEqual: "$lte",
}

// mapFieldComparison decomposes a pushable condition of the form
// [CAST](_MAP['field']) OP value, either way round.
func mapFieldComparison(term rex.Node) (field string, op string, v *rex.Literal, ok bool) {
	x, op, v, ok := adapter.Comparison(term, findOps)
	if ok {
		field, ok = mapFieldAccess(x)
	}
	return field, op, v, ok
}

// mapFieldAccess recognizes ITEM($0, 'field'), possibly wrapped in CASTs.
func mapFieldAccess(e rex.Node) (string, bool) {
	for {
		c, ok := e.(*rex.Call)
		if !ok {
			return "", false
		}
		if c.Op == rex.OpCast {
			e = c.Operands[0]
			continue
		}
		if c.Op != rex.OpItem {
			return "", false
		}
		if _, ok := c.Operands[0].(*rex.InputRef); !ok {
			return "", false
		}
		key, ok := c.Operands[1].(*rex.Literal)
		if !ok {
			return "", false
		}
		name, ok := key.Value.(string)
		return name, ok
	}
}

// ToFind renders a mongo-convention subtree as (collection, find JSON) —
// the adapter's query-language translator.
func ToFind(n rel.Node) (string, string, error) {
	switch x := n.(type) {
	case *rel.TableScan:
		return x.Table.Name(), "{}", nil
	case *rel.Filter:
		collection, _, err := ToFind(x.Inputs()[0])
		if err != nil {
			return "", "", err
		}
		filter := map[string]any{}
		for _, term := range rex.Conjuncts(x.Condition) {
			field, op, v, ok := mapFieldComparison(term)
			if !ok {
				return "", "", fmt.Errorf("mongo: condition %s not translatable", term)
			}
			cond, _ := filter[field].(map[string]any)
			if cond == nil {
				cond = map[string]any{}
			}
			cond[op] = v.Value
			filter[field] = cond
		}
		buf, err := marshalSorted(filter)
		if err != nil {
			return "", "", err
		}
		return collection, buf, nil
	}
	return "", "", fmt.Errorf("mongo: cannot translate %s", n.Op())
}

// marshalSorted renders a filter document with deterministic key order.
func marshalSorted(filter map[string]any) (string, error) {
	keys := make([]string, 0, len(filter))
	for k := range filter {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		v, err := json.Marshal(filter[k])
		if err != nil {
			return "", err
		}
		parts = append(parts, fmt.Sprintf("%q: %s", k, v))
	}
	return "{" + strings.Join(parts, ", ") + "}", nil
}
