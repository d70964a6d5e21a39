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

// BindBatch evaluates every tuple, parameters bound, as constants.
func (v *Values) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	rows := make([][]any, len(v.Tuples))
	for i, t := range v.Tuples {
		rows[i] = make([]any, len(t))
		for j, e := range t {
			e, err := ctx.bindParams(e)
			if err == nil {
				rows[i][j], err = rex.EvalConstant(e)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return batchesFromRows(rows, rel.FieldCount(v), ctx.batchSize()), nil
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

// BindBatch streams the first input's batches — every input's, for UNION —
// narrowing each batch's selection vector to the rows the operation keeps.
// Rows are equal when their schema.RowKey over all columns is: NULL equals
// NULL and 2 equals 2.0. INTERSECT and EXCEPT first count the second input's
// rows; one count map then decides every variant, and UNION ALL passes
// batches through.
func (s *SetOp) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	c := &setOpCursor{kind: s.Kind, all: s.All, cols: make([]int, rel.FieldCount(s))}
	for i := range c.cols {
		c.cols[i] = i
	}
	inputs := s.Inputs()
	if s.Kind != rel.UnionOp || !s.All {
		c.counts = map[string]int{}
	}
	if s.Kind != rel.UnionOp {
		bc, err := BindBatch(ctx, inputs[1])
		if err != nil {
			return nil, err
		}
		if err := c.count(bc); err != nil {
			return nil, err
		}
		inputs = inputs[:1]
	}
	for _, in := range inputs {
		bc, err := BindBatch(ctx, in)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.ins = append(c.ins, bc)
	}
	return c, nil
}

type setOpCursor struct {
	kind   rel.SetOpKind
	all    bool
	cols   []int          // every column: a row's key spans them all
	counts map[string]int // nil for UNION ALL
	ins    []schema.BatchCursor
	seq    int64 // the inputs' batches are renumbered as one source
	key    []byte
	dense  []int32
	selBuf []int32
}

// count adds the rows of bc (closing it) to the count map.
func (c *setOpCursor) count(bc schema.BatchCursor) error {
	defer bc.Close()
	for {
		b, err := bc.NextBatch()
		if err == schema.Done {
			return nil
		}
		if err != nil {
			return err
		}
		var sel []int32
		sel, c.dense = liveSel(b, c.dense)
		for _, r := range sel {
			c.key = schema.RowKey(c.key[:0], b.Vecs, int(r), c.cols)
			c.counts[string(c.key)]++
		}
	}
}

// keep decides whether row r of vecs is emitted. For INTERSECT the count is
// what the second input still has to match; for EXCEPT ALL, what it still
// has to cancel; for UNION and EXCEPT a key is emitted at its first
// occurrence unless counted, and counted from then on.
func (c *setOpCursor) keep(vecs []*schema.Vector, r int32) bool {
	c.key = schema.RowKey(c.key[:0], vecs, int(r), c.cols)
	n := c.counts[string(c.key)]
	switch {
	case c.kind == rel.IntersectOp:
		if n > 0 {
			if c.all {
				c.counts[string(c.key)] = n - 1
			} else {
				c.counts[string(c.key)] = 0
			}
		}
		return n > 0
	case c.all:
		if n > 0 {
			c.counts[string(c.key)] = n - 1
		}
		return n == 0
	default:
		if n == 0 {
			c.counts[string(c.key)] = 1
		}
		return n == 0
	}
}

func (c *setOpCursor) NextBatch() (*schema.Batch, error) {
	for len(c.ins) > 0 {
		b, err := c.ins[0].NextBatch()
		if err == schema.Done {
			c.ins[0].Close()
			c.ins = c.ins[1:]
			continue
		}
		if err != nil {
			return nil, err
		}
		sel := b.Sel
		if c.counts != nil {
			var live []int32
			live, c.dense = liveSel(b, c.dense)
			sel = c.selBuf[:0]
			for _, r := range live {
				if c.keep(b.Vecs, r) {
					sel = append(sel, r)
				}
			}
			c.selBuf = sel
			if len(sel) == 0 {
				continue
			}
		}
		c.seq++
		return &schema.Batch{Len: b.Len, Vecs: b.Vecs, Sel: sel, Seq: c.seq - 1}, nil
	}
	return nil, schema.Done
}

func (c *setOpCursor) Close() error {
	for _, in := range c.ins {
		in.Close()
	}
	c.ins = nil
	return nil
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

// BindBatch is the one place SQL writes enter a table: the input is drained
// to rows, every value is assigned to its column's declared type with CAST
// semantics (an integer widens into a DOUBLE column, every integral Go kind
// becomes int64, NULL passes), so a typed column stays typed however the
// statement spelled the value, and the rows are inserted. A value with no
// such conversion fails the statement and nothing is inserted. The output is
// one row: the inserted count.
func (m *TableModify) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	in, err := BindBatch(ctx, m.Inputs()[0])
	if err != nil {
		return nil, err
	}
	rows, err := drainBatches(ctx, in)
	if err != nil {
		return nil, err
	}
	fields := m.Table.RowType().Fields
	for i, row := range rows {
		if len(row) != len(fields) {
			continue // Insert reports the width
		}
		for c, v := range row { // drained rows are this statement's own copies
			if row[c], err = types.CoerceTo(v, fields[c].Type); err != nil {
				return nil, fmt.Errorf("exec: INSERT INTO %s: row %d, column %s: %w",
					m.Table.Name(), i, fields[c].Name, err)
			}
		}
	}
	if err := m.Table.Insert(rows); err != nil {
		return nil, err
	}
	return batchesFromRows([][]any{{int64(len(rows))}}, 1, ctx.batchSize()), nil
}
