package adapter_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"calcite/internal/adapter"
	"calcite/internal/core"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// listAdapter is a fifth backend, written only against the contract: a
// capability declaration and a Run. Its one table is a [][]any whose backend
// evaluates equality on the first column and nothing else; each request it
// runs is logged as the keys it was asked for.
func listAdapter(schemaName string, rows [][]any, requests *[]string) *adapter.Adapter {
	eq := map[*rex.Operator]string{rex.OpEquals: "="}
	keyTerm := func(term rex.Node) bool {
		col, _, _, ok := adapter.ColumnComparison(term, eq)
		return ok && col == 0
	}
	a := adapter.New(schemaName, adapter.Backend{
		Kind:   "list",
		Prefix: "List",
		Filter: func(cond rex.Node, _ rel.Node) ([]rex.Node, []rex.Node) { return adapter.Split(cond, keyTerm) },
		Run: func(n rel.Node) ([][]any, error) {
			var keys []any
			if f, ok := n.(*rel.Filter); ok {
				for _, term := range rex.Conjuncts(f.Condition) {
					_, _, v, _ := adapter.ColumnComparison(term, eq)
					keys = append(keys, v.Value)
				}
				n = f.Inputs()[0]
			}
			if _, ok := n.(*rel.TableScan); !ok {
				return nil, fmt.Errorf("list: cannot run %s", n.Op())
			}
			*requests = append(*requests, fmt.Sprint(keys))
			var out [][]any
		row:
			for _, r := range rows {
				for _, k := range keys {
					if types.Compare(r[0], k) != 0 {
						continue row
					}
				}
				out = append(out, r)
			}
			return out, nil
		},
	})
	a.AddTable("t", types.Row(types.Field{Name: "k", Type: types.BigInt}, types.Field{Name: "v", Type: types.Varchar}),
		schema.Statistics{RowCount: float64(len(rows))})
	return a
}

// TestContract: from the declaration alone the contract names the rules and
// the converter after the backend and its schema, splits a filter into the
// conjuncts the backend takes and an engine-side residual, runs prepared
// statements like literal ones, and gives the table a fallback scan through
// the same Run.
func TestContract(t *testing.T) {
	rows := [][]any{{int64(1), "a"}, {int64(2), "b"}, {int64(2), "c"}}
	var requests []string
	a := listAdapter("l", rows, &requests)
	var names []string
	for _, r := range a.Rules() {
		names = append(names, r.RuleName())
	}
	if want := []string{"ListScanRule(l)", "ListFilterRule(l)"}; !reflect.DeepEqual(names, want) {
		t.Errorf("rules %v, want %v", names, want)
	}

	f := core.New()
	f.RegisterAdapter(a)
	const sql = "SELECT v FROM l.t WHERE k = 2 AND v <> 'b'"
	res, err := f.Execute("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"EnumerableFilter(condition=[<>($1, 'b')]", "ListToEnumerable(from=[list-l]",
		"ListFilter(condition=[=($0, 2)], convention=list-l)", "List-lTableScan(table=[t]"} {
		if !strings.Contains(res.Plan, want) {
			t.Errorf("plan lacks %s:\n%s", want, res.Plan)
		}
	}
	for _, params := range [][]any{nil, {int64(2)}} {
		q := sql
		if params != nil {
			q = strings.Replace(sql, "2", "?", 1)
		}
		res, err := f.Execute(q, params...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Rows, [][]any{{"c"}}) || requests[len(requests)-1] != "[2]" {
			t.Errorf("%s %v: rows %v after request %s, want [[c]] after [2]", q, params, res.Rows, requests[len(requests)-1])
		}
	}

	tab, _ := a.AdapterSchema().Table("t")
	cur, err := tab.(schema.ScannableTable).Scan()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for ; ; n++ {
		if _, err := cur.Next(); err != nil {
			break
		}
	}
	if n != len(rows) || requests[len(requests)-1] != "[]" {
		t.Errorf("fallback scan read %d rows after request %s, want %d after []", n, requests[len(requests)-1], len(rows))
	}
}
