package meta

import (
	"math"

	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/stats"
	"calcite/internal/types"
)

// Collected-statistics estimation: when ANALYZE has populated per-column
// statistics (null counts, min/max, NDV sketches, equi-depth histograms),
// the default provider derives selectivities and cardinalities from them
// instead of the textbook constants. Every function here degrades to
// (0, false) when no statistics are available, so unanalyzed tables keep
// the exact pre-statistics behaviour.

// ColumnOrigin resolves output column col of n to the base-table scan and
// column it originates from, tracing through filters, sorts, converters,
// physical wrappers, identity projections and join input concatenation.
func ColumnOrigin(n rel.Node, col int) (*rel.TableScan, int, bool) {
	for {
		n = rel.Unwrap(n)
		switch x := n.(type) {
		case *rel.TableScan:
			return x, col, true
		case *rel.Filter, *rel.Sort, *rel.Converter:
			n = x.Inputs()[0]
		case *rel.Project:
			if col >= len(x.Exprs) {
				return nil, 0, false
			}
			ref, ok := x.Exprs[col].(*rex.InputRef)
			if !ok {
				return nil, 0, false
			}
			n, col = x.Inputs()[0], ref.Index
		case *rel.Join:
			nLeft := rel.FieldCount(x.Left())
			if col < nLeft {
				n = x.Left()
			} else if x.Kind.ProjectsRight() {
				n, col = x.Right(), col-nLeft
			} else {
				return nil, 0, false
			}
		default:
			return nil, 0, false
		}
	}
}

// colStats returns the collected statistics of n's output column col, plus
// the row count of the originating table, when the column has been analyzed.
func colStats(n rel.Node, col int) (*stats.ColumnStats, float64, bool) {
	scan, origin, ok := ColumnOrigin(n, col)
	if !ok {
		return nil, 0, false
	}
	ts := scan.Table.Stats()
	cs := ts.ColStats(origin)
	if cs == nil {
		return nil, 0, false
	}
	rows := math.Max(ts.RowCount, 1)
	return cs, rows, true
}

// statsTermSelectivity estimates one conjunct from collected statistics.
// The second result is false when the term's columns have no statistics.
func statsTermSelectivity(q *Query, n rel.Node, term rex.Node) (float64, bool) {
	c, ok := term.(*rex.Call)
	if !ok {
		return 0, false
	}
	switch c.Op {
	case rex.OpIsNull, rex.OpIsNotNull:
		ref, ok := c.Operands[0].(*rex.InputRef)
		if !ok {
			return 0, false
		}
		cs, rows, ok := colStats(n, ref.Index)
		if !ok {
			return 0, false
		}
		nullFrac := cs.NullCount / rows
		if c.Op == rex.OpIsNull {
			return nullFrac, true
		}
		return 1 - nullFrac, true
	case rex.OpNot:
		if s, ok := statsTermSelectivity(q, n, c.Operands[0]); ok {
			return 1 - s, true
		}
		return 0, false
	case rex.OpOr:
		// 1 - Π(1 - s_i), statistics-backed terms only.
		inv := 1.0
		for _, o := range c.Operands {
			s, ok := statsTermSelectivity(q, n, o)
			if !ok {
				return 0, false
			}
			inv *= 1 - s
		}
		return 1 - inv, true
	case rex.OpEquals, rex.OpNotEquals, rex.OpLess, rex.OpLessEqual,
		rex.OpGreater, rex.OpGreaterEqual:
		if s, ok := joinEquiSelectivity(q, n, c); ok {
			return s, true
		}
		return compareSelectivity(n, c)
	}
	return 0, false
}

// joinEquiSelectivity handles the equi-join conjunct l = r across the two
// inputs of a join: selectivity 1/max(ndv(l), ndv(r)), which yields the
// classic join cardinality |L|·|R|/max(ndv(l), ndv(r)). The distinct counts
// come from collected statistics when the tables are analyzed and from the
// sqrt heuristics otherwise, so join estimates stay ordering-sane either
// way — ANALYZE sharpens them.
func joinEquiSelectivity(q *Query, n rel.Node, c *rex.Call) (float64, bool) {
	if c.Op != rex.OpEquals {
		return 0, false
	}
	j, ok := rel.Unwrap(n).(*rel.Join)
	if !ok {
		return 0, false
	}
	a, aok := c.Operands[0].(*rex.InputRef)
	b, bok := c.Operands[1].(*rex.InputRef)
	if !aok || !bok {
		return 0, false
	}
	nLeft := rel.FieldCount(j.Left())
	l, r := a.Index, b.Index
	if l > r {
		l, r = r, l
	}
	if l >= nLeft || r < nLeft {
		return 0, false // both refs on the same side: not a join predicate
	}
	ndvL := q.DistinctRowCount(j.Left(), []int{l})
	ndvR := q.DistinctRowCount(j.Right(), []int{r - nLeft})
	return 1 / math.Max(math.Max(ndvL, ndvR), 1), true
}

// compareSelectivity estimates column-vs-literal comparisons from the
// column's histogram (numeric) or NDV (equality).
func compareSelectivity(n rel.Node, c *rex.Call) (float64, bool) {
	ref, lit, op, ok := normalizeComparison(c)
	if !ok {
		return 0, false
	}
	cs, rows, ok := colStats(n, ref.Index)
	if !ok {
		return 0, false
	}
	nonNullFrac := 1 - cs.NullCount/rows
	if lit.Value == nil {
		return 0.0001, true // comparisons with NULL select nothing
	}
	key, numeric := types.AsFloat(lit.Value)
	switch op {
	case rex.OpEquals, rex.OpNotEquals:
		var eq float64
		switch {
		case numeric && cs.Histogram != nil:
			eq = cs.Histogram.FracEq(key) * nonNullFrac
		case cs.NDV > 0:
			eq = nonNullFrac / cs.NDV
		default:
			return 0, false
		}
		if op == rex.OpNotEquals {
			return clamp01(nonNullFrac - eq), true
		}
		return clamp01(eq), true
	case rex.OpLess, rex.OpLessEqual:
		if !numeric || cs.Histogram == nil {
			return 0, false
		}
		return clamp01(cs.Histogram.FracLess(key, op == rex.OpLessEqual) * nonNullFrac), true
	case rex.OpGreater, rex.OpGreaterEqual:
		if !numeric || cs.Histogram == nil {
			return 0, false
		}
		le := cs.Histogram.FracLess(key, op != rex.OpGreaterEqual)
		return clamp01((1 - le) * nonNullFrac), true
	}
	return 0, false
}

// normalizeComparison orients a binary comparison into (column ref, literal,
// op) form, flipping the operator when the literal is on the left.
func normalizeComparison(c *rex.Call) (*rex.InputRef, *rex.Literal, *rex.Operator, bool) {
	if len(c.Operands) != 2 {
		return nil, nil, nil, false
	}
	if ref, ok := c.Operands[0].(*rex.InputRef); ok {
		if lit, ok := c.Operands[1].(*rex.Literal); ok {
			return ref, lit, c.Op, true
		}
	}
	if lit, ok := c.Operands[0].(*rex.Literal); ok {
		if ref, ok := c.Operands[1].(*rex.InputRef); ok {
			return ref, lit, flipComparison(c.Op), true
		}
	}
	return nil, nil, nil, false
}

func flipComparison(op *rex.Operator) *rex.Operator {
	switch op {
	case rex.OpLess:
		return rex.OpGreater
	case rex.OpLessEqual:
		return rex.OpGreaterEqual
	case rex.OpGreater:
		return rex.OpLess
	case rex.OpGreaterEqual:
		return rex.OpLessEqual
	}
	return op // =, <> are symmetric
}

// statsDistinct estimates the distinct count of cols on a table scan from
// collected NDVs: the product of per-column NDVs capped by the row count.
func statsDistinct(ts schema.Statistics, cols []int) (float64, bool) {
	if len(cols) == 0 {
		return 1, true
	}
	d := 1.0
	for _, c := range cols {
		cs := ts.ColStats(c)
		if cs == nil || cs.NDV <= 0 {
			return 0, false
		}
		d *= cs.NDV
	}
	return math.Min(d, math.Max(ts.RowCount, 1)), true
}
