package mongo

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"calcite/internal/core"
	"calcite/internal/exec"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// mongoTable exposes a collection as a single-column table: "a table is
// created for each document collection with a single column named _MAP: a
// map from document identifiers to their data" (§7.1).
type mongoTable struct {
	name  string
	store *Store
}

var mapRowType = types.Row(types.Field{
	Name: "_MAP",
	Type: types.Map(types.Varchar, types.Any),
})

func (t *mongoTable) Name() string             { return t.name }
func (t *mongoTable) RowType() *types.Type     { return mapRowType }
func (t *mongoTable) Stats() schema.Statistics { return schema.Statistics{RowCount: 500} }

// TransferCostFactor implements schema.RemoteTable.
func (t *mongoTable) TransferCostFactor() float64 { return 1 }

func (t *mongoTable) Scan() (schema.Cursor, error) {
	docs, err := t.store.Find(t.name, "{}")
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(docs))
	for i, d := range docs {
		rows[i] = []any{map[string]any(d)}
	}
	return schema.NewSliceCursor(rows), nil
}

// Adapter connects a Store under the "mongo" calling convention.
type Adapter struct {
	SchemaName string
	Store      *Store
	Conv       trait.Convention

	schema *schema.BaseSchema
}

// New builds the adapter from the store's collections.
func New(schemaName string, store *Store) *Adapter {
	a := &Adapter{
		SchemaName: schemaName,
		Store:      store,
		Conv:       trait.NewConvention("mongo"),
		schema:     schema.NewBaseSchema(schemaName),
	}
	for _, name := range store.CollectionNames() {
		a.schema.AddTable(&mongoTable{name: name, store: store})
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

// Rules implements core.Adapter: scans convert to the mongo convention and
// filters over _MAP['field'] expressions push down as JSON find documents.
func (a *Adapter) Rules() []plan.Rule {
	ts := trait.NewSet(a.Conv)
	return []plan.Rule{
		&plan.FuncRule{
			Name: "MongoScanRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				s, ok := n.(*rel.TableScan)
				if !ok || !isLogical(n) {
					return false
				}
				mt, mine := s.Table.(*mongoTable)
				return mine && mt.store == a.Store
			}),
			Fire: func(call *plan.Call) {
				s := call.Rel(0).(*rel.TableScan)
				call.Transform(rel.NewTableScan(a.Conv, s.Table, []string{s.Table.Name()}))
			},
		},
		&plan.FuncRule{
			Name: "MongoFilterRule",
			Op: plan.MatchNode(func(n rel.Node) bool {
				_, ok := n.(*rel.Filter)
				return ok && isLogical(n)
			}, plan.MatchNode(a.inConv)),
			Fire: func(call *plan.Call) {
				f := call.Rel(0).(*rel.Filter)
				var pushable, residual []rex.Node
				for _, term := range rex.Conjuncts(f.Condition) {
					if _, _, _, ok := mapFieldComparison(term); ok {
						pushable = append(pushable, term)
					} else {
						residual = append(residual, term)
					}
				}
				if len(pushable) == 0 {
					return
				}
				var node rel.Node = rel.NewFilterTraits("MongoFilter", ts, call.Rel(1), rex.And(pushable...))
				if len(residual) > 0 {
					node = rel.NewFilter(node, rex.And(residual...))
				}
				call.Transform(node)
			},
		},
	}
}

// mapFieldComparison decomposes a pushable condition of the form
// [CAST](_MAP['field']) OP literal.
func mapFieldComparison(term rex.Node) (field string, op string, val any, ok bool) {
	c, isCall := term.(*rex.Call)
	if !isCall || len(c.Operands) != 2 {
		return "", "", nil, false
	}
	opName := map[*rex.Operator]string{
		rex.OpEquals: "$eq", rex.OpNotEquals: "$ne",
		rex.OpGreater: "$gt", rex.OpGreaterEqual: "$gte",
		rex.OpLess: "$lt", rex.OpLessEqual: "$lte",
	}[c.Op]
	if opName == "" {
		return "", "", nil, false
	}
	fieldName, fok := mapFieldAccess(c.Operands[0])
	lit, lok := c.Operands[1].(*rex.Literal)
	if fok && lok && lit.Value != nil {
		return fieldName, opName, lit.Value, true
	}
	return "", "", nil, false
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

// Converters implements core.Adapter.
func (a *Adapter) Converters() []core.ConverterReg {
	return []core.ConverterReg{{
		From: a.Conv,
		To:   trait.Enumerable,
		Factory: func(input rel.Node) rel.Node {
			return &toEnumerable{
				Converter: rel.NewConverter("MongoToEnumerable", trait.Enumerable, input),
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
		Converter: rel.NewConverter("MongoToEnumerable", trait.Enumerable, inputs[0]),
		adapter:   c.adapter,
	}
}

func (c *toEnumerable) Unwrap() rel.Node { return c.Converter }

func (c *toEnumerable) Bind(ctx *exec.Context) (schema.Cursor, error) {
	bound, err := exec.BindPlanParams(ctx, c.Inputs()[0])
	if err != nil {
		return nil, err
	}
	collection, filterJSON, err := ToFind(bound)
	if err != nil {
		return nil, err
	}
	docs, err := c.adapter.Store.Find(collection, filterJSON)
	if err != nil {
		return nil, err
	}
	rows := make([][]any, len(docs))
	for i, d := range docs {
		rows[i] = []any{map[string]any(d)}
	}
	return schema.NewSliceCursor(rows), nil
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
			field, op, val, ok := mapFieldComparison(term)
			if !ok {
				return "", "", fmt.Errorf("mongo: condition %s not translatable", term)
			}
			cond, _ := filter[field].(map[string]any)
			if cond == nil {
				cond = map[string]any{}
			}
			cond[op] = val
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
