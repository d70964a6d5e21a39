package exec

import (
	"fmt"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func enumerableTraits() trait.Set { return trait.NewSet(trait.Enumerable) }

// Scan is the enumerable full-table scan over any ScannableTable.
type Scan struct {
	*rel.TableScan
}

// NewScan creates an enumerable scan; the table must be scannable.
func NewScan(table schema.ScannableTable, qualifiedName []string) *Scan {
	return &Scan{TableScan: rel.NewTableScan(trait.Enumerable, table, qualifiedName)}
}

func (s *Scan) WithNewInputs(inputs []rel.Node) rel.Node { return s }

func (s *Scan) Unwrap() rel.Node {
	return rel.NewTableScan(trait.Logical, s.Table, s.QualifiedName)
}

// Filter is the enumerable filter.
type Filter struct {
	*rel.Filter
}

// NewFilter creates an enumerable filter.
func NewFilter(input rel.Node, condition rex.Node) *Filter {
	return &Filter{Filter: rel.NewFilterTraits("EnumerableFilter", enumerableTraits(), input, condition)}
}

func (f *Filter) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewFilter(inputs[0], f.Condition)
}

func (f *Filter) Unwrap() rel.Node { return rel.NewFilter(f.Inputs()[0], f.Condition) }

// Project is the enumerable projection.
type Project struct {
	*rel.Project
}

// NewProject creates an enumerable projection.
func NewProject(input rel.Node, exprs []rex.Node, names []string) *Project {
	return &Project{Project: rel.NewProjectTraits("EnumerableProject", enumerableTraits(), input, exprs, names)}
}

func (p *Project) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewProject(inputs[0], p.Exprs, p.FieldNames())
}

func (p *Project) Unwrap() rel.Node {
	return rel.NewProject(p.Inputs()[0], p.Exprs, p.FieldNames())
}

// Values is the enumerable constant-rows operator.
type Values struct {
	*rel.Values
}

// NewValues creates enumerable Values.
func NewValues(rowType *types.Type, tuples [][]rex.Node) *Values {
	return &Values{Values: rel.NewValuesTraits("EnumerableValues", enumerableTraits(), rowType, tuples)}
}

func (v *Values) WithNewInputs(inputs []rel.Node) rel.Node { return v }

func (v *Values) Unwrap() rel.Node { return rel.NewValues(v.RowType(), v.Tuples) }

func (v *Values) Bind(ctx *Context) (schema.Cursor, error) {
	rows := make([][]any, len(v.Tuples))
	for i, t := range v.Tuples {
		row := make([]any, len(t))
		for j, e := range t {
			val, err := ctx.Evaluator.Eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[j] = val
		}
		rows[i] = row
	}
	return schema.NewSliceCursor(rows), nil
}

// Sort is the enumerable sort with optional OFFSET/FETCH; with an empty
// collation it degenerates to a streaming limit.
type Sort struct {
	*rel.Sort
}

// NewSort creates an enumerable sort.
func NewSort(input rel.Node, collation trait.Collation, offset, fetch int64) *Sort {
	ts := enumerableTraits().WithCollation(collation)
	return &Sort{Sort: rel.NewSortTraits("EnumerableSort", ts, input, collation, offset, fetch)}
}

// NewLimit creates a pure limit (no sorting).
func NewLimit(input rel.Node, offset, fetch int64) *Sort {
	s := NewSort(input, nil, offset, fetch)
	return s
}

func (s *Sort) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewSort(inputs[0], s.Collation, s.Offset, s.Fetch)
}

func (s *Sort) Unwrap() rel.Node {
	return rel.NewSort(s.Inputs()[0], s.Collation, s.Offset, s.Fetch)
}

// CompareRows orders two rows by a collation.
func CompareRows(a, b []any, collation trait.Collation) int {
	for _, fc := range collation {
		c := types.Compare(a[fc.Field], b[fc.Field])
		if fc.Direction == trait.Descending {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Aggregate is the enumerable hash aggregate.
type Aggregate struct {
	*rel.Aggregate
}

// NewAggregate creates an enumerable hash aggregate.
func NewAggregate(input rel.Node, groupKeys []int, calls []rex.AggCall) *Aggregate {
	return &Aggregate{Aggregate: rel.NewAggregateTraits("EnumerableAggregate", enumerableTraits(), input, groupKeys, calls)}
}

func (a *Aggregate) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewAggregate(inputs[0], a.GroupKeys, a.Calls)
}

func (a *Aggregate) Unwrap() rel.Node {
	return rel.NewAggregate(a.Inputs()[0], a.GroupKeys, a.Calls)
}

// SetOp is the enumerable UNION / INTERSECT / MINUS.
type SetOp struct {
	*rel.SetOp
}

// NewSetOp creates an enumerable set operation.
func NewSetOp(kind rel.SetOpKind, all bool, inputs ...rel.Node) *SetOp {
	name := map[rel.SetOpKind]string{
		rel.UnionOp:     "EnumerableUnion",
		rel.IntersectOp: "EnumerableIntersect",
		rel.MinusOp:     "EnumerableMinus",
	}[kind]
	return &SetOp{SetOp: rel.NewSetOpTraits(name, enumerableTraits(), kind, all, inputs...)}
}

func (s *SetOp) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewSetOp(s.Kind, s.All, inputs...)
}

func (s *SetOp) Unwrap() rel.Node { return rel.NewSetOp(s.Kind, s.All, s.Inputs()...) }

func (s *SetOp) Bind(ctx *Context) (schema.Cursor, error) {
	var inputs [][][]any
	for _, in := range s.Inputs() {
		cur, err := BindNode(ctx, in)
		if err != nil {
			return nil, err
		}
		rows, err := drain(cur)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, rows)
	}
	key := func(row []any) string {
		cols := make([]int, len(row))
		for i := range cols {
			cols[i] = i
		}
		return types.HashRowKey(row, cols)
	}
	var out [][]any
	switch s.Kind {
	case rel.UnionOp:
		seen := map[string]bool{}
		for _, rows := range inputs {
			for _, row := range rows {
				if s.All {
					out = append(out, row)
					continue
				}
				k := key(row)
				if !seen[k] {
					seen[k] = true
					out = append(out, row)
				}
			}
		}
	case rel.IntersectOp:
		counts := map[string]int{}
		for _, row := range inputs[1] {
			counts[key(row)]++
		}
		emitted := map[string]bool{}
		for _, row := range inputs[0] {
			k := key(row)
			if counts[k] > 0 {
				if s.All {
					counts[k]--
					out = append(out, row)
				} else if !emitted[k] {
					emitted[k] = true
					out = append(out, row)
				}
			}
		}
	case rel.MinusOp:
		counts := map[string]int{}
		for _, row := range inputs[1] {
			counts[key(row)]++
		}
		emitted := map[string]bool{}
		for _, row := range inputs[0] {
			k := key(row)
			if counts[k] > 0 {
				if s.All {
					counts[k]--
				}
				continue
			}
			if s.All {
				out = append(out, row)
			} else if !emitted[k] {
				emitted[k] = true
				out = append(out, row)
			}
		}
	}
	return schema.NewSliceCursor(out), nil
}

// TableModify is the enumerable INSERT executor.
type TableModify struct {
	*rel.TableModify
}

// NewTableModify creates an enumerable insert.
func NewTableModify(m *rel.TableModify, input rel.Node) *TableModify {
	inner := rel.NewTableModify(m.Table, m.QualifiedName, input)
	return &TableModify{TableModify: inner}
}

func (m *TableModify) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewTableModify(m.TableModify, inputs[0])
}

func (m *TableModify) Op() string { return "EnumerableTableModify" }

func (m *TableModify) Traits() trait.Set { return enumerableTraits() }

// Bind is the one place SQL writes enter a table: every value is assigned to
// its column's declared type with CAST semantics (an integer widens into a
// DOUBLE column, every integral Go kind becomes int64, NULL passes), so a
// typed column stays typed however the statement spelled the value. A value
// with no such conversion fails the statement and nothing is inserted. The
// input rows may belong to a cached plan and are not written to.
func (m *TableModify) Bind(ctx *Context) (schema.Cursor, error) {
	in, err := BindNode(ctx, m.Inputs()[0])
	if err != nil {
		return nil, err
	}
	rows, err := drain(in)
	if err != nil {
		return nil, err
	}
	fields := m.Table.RowType().Fields
	for i, row := range rows {
		if len(row) != len(fields) {
			continue // Insert reports the width
		}
		assigned := make([]any, len(row))
		for c, v := range row {
			if assigned[c], err = types.CoerceTo(v, fields[c].Type); err != nil {
				return nil, fmt.Errorf("exec: INSERT INTO %s: row %d, column %s: %w",
					m.Table.Name(), i, fields[c].Name, err)
			}
		}
		rows[i] = assigned
	}
	if err := m.Table.Insert(rows); err != nil {
		return nil, err
	}
	return schema.NewSliceCursor([][]any{{int64(len(rows))}}), nil
}
