package meta

import (
	"math"

	"calcite/internal/cost"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
)

// DefaultProvider returns the built-in metadata provider: table statistics
// where available, textbook cardinality estimation elsewhere, and the
// CPU/IO/memory cost model of §6.
func DefaultProvider() Provider {
	return Provider{
		Name:              "default",
		RowCount:          defaultRowCount,
		Selectivity:       defaultSelectivity,
		DistinctRowCount:  defaultDistinct,
		ColumnsUnique:     defaultUnique,
		Collations:        defaultCollations,
		NonCumulativeCost: defaultSelfCost,
		AverageRowSize:    defaultRowSize,
	}
}

func defaultRowCount(q *Query, n rel.Node) (float64, bool) {
	n = rel.Unwrap(n)
	switch x := n.(type) {
	case *rel.TableScan:
		rc := x.Table.Stats().RowCount
		if rc <= 0 {
			rc = 100
		}
		return rc, true
	case *rel.Filter:
		return q.RowCount(x.Inputs()[0]) * q.Selectivity(x.Inputs()[0], x.Condition), true
	case *rel.Project:
		return q.RowCount(x.Inputs()[0]), true
	case *rel.Join:
		left, right := q.RowCount(x.Left()), q.RowCount(x.Right())
		switch x.Kind {
		case rel.SemiJoin, rel.AntiJoin:
			return math.Max(left*q.Selectivity(x, x.Condition), 1), true
		}
		sel := q.Selectivity(x, x.Condition)
		return math.Max(left*right*sel, 1), true
	case *rel.Aggregate:
		if len(x.GroupKeys) == 0 {
			return 1, true
		}
		return q.DistinctRowCount(x.Inputs()[0], x.GroupKeys), true
	case *rel.Sort:
		rc := q.RowCount(x.Inputs()[0])
		if x.Offset > 0 {
			rc = math.Max(rc-float64(x.Offset), 0)
		}
		if x.Fetch >= 0 {
			rc = math.Min(rc, float64(x.Fetch))
		}
		return math.Max(rc, 1), true
	case *rel.SetOp:
		total := 0.0
		for _, in := range x.Inputs() {
			total += q.RowCount(in)
		}
		switch x.Kind {
		case rel.UnionOp:
			if !x.All {
				total *= 0.7
			}
			return total, true
		case rel.IntersectOp, rel.MinusOp:
			return math.Max(q.RowCount(x.Inputs()[0])*0.5, 1), true
		}
	case *rel.Values:
		return math.Max(float64(len(x.Tuples)), 1), true
	case *rel.Window:
		return q.RowCount(x.Inputs()[0]), true
	case *rel.Converter:
		return q.RowCount(x.Inputs()[0]), true
	case *rel.TableModify:
		return 1, true
	}
	// Unknown operators (adapter-specific): pass through single input.
	if ins := n.Inputs(); len(ins) == 1 {
		return q.RowCount(ins[0]), true
	}
	return 0, false
}

// defaultSelectivity estimates predicate selectivity. Each conjunct is
// first tried against collected column statistics (histogram ranges, NDV
// equality, null fractions, and the 1/max(ndv) equi-join rule — see
// stats.go); conjuncts whose columns have no statistics fall back to the
// classic System-R constants: 0.15 per equality, 0.5 per inequality/range,
// combined multiplicatively over conjunctions.
func defaultSelectivity(q *Query, n rel.Node, predicate rex.Node) (float64, bool) {
	if predicate == nil || rex.IsAlwaysTrue(predicate) {
		return 1, true
	}
	if rex.IsAlwaysFalse(predicate) {
		return 0.0001, true
	}
	sel := 1.0
	var terms [4]rex.Node
	for _, term := range rex.AppendConjuncts(terms[:0], predicate) {
		if s, ok := statsTermSelectivity(q, n, term); ok {
			sel *= s
		} else {
			sel *= termSelectivity(term)
		}
	}
	return sel, true
}

func termSelectivity(term rex.Node) float64 {
	c, ok := term.(*rex.Call)
	if !ok {
		return 0.25
	}
	switch c.Op {
	case rex.OpEquals:
		return 0.15
	case rex.OpNotEquals:
		return 0.85
	case rex.OpLess, rex.OpLessEqual, rex.OpGreater, rex.OpGreaterEqual:
		return 0.5
	case rex.OpIsNull:
		return 0.1
	case rex.OpIsNotNull:
		return 0.9
	case rex.OpLike:
		return 0.25
	case rex.OpOr:
		// 1 - Π(1 - s_i)
		inv := 1.0
		for _, o := range c.Operands {
			inv *= 1 - termSelectivity(o)
		}
		return 1 - inv
	case rex.OpNot:
		return 1 - termSelectivity(c.Operands[0])
	}
	return 0.25
}

func defaultDistinct(q *Query, n rel.Node, cols []int) (float64, bool) {
	n = rel.Unwrap(n)
	switch x := n.(type) {
	case *rel.TableScan:
		rc := q.RowCount(n)
		if x.Table.Stats().IsKey(cols) {
			return rc, true
		}
		// Collected NDVs (ANALYZE) beat the heuristic.
		if d, ok := statsDistinct(x.Table.Stats(), cols); ok {
			return d, true
		}
		// Heuristic: each column contributes sqrt of table cardinality.
		d := 1.0
		for range cols {
			d *= math.Sqrt(rc)
		}
		return math.Min(d, rc), true
	case *rel.Filter:
		d := q.DistinctRowCount(x.Inputs()[0], cols)
		return math.Min(d, q.RowCount(x)), true
	case *rel.Join:
		// Columns drawn from a single input keep that input's distinct
		// count (capped by the join output size).
		nLeft := rel.FieldCount(x.Left())
		allLeft, allRight := true, true
		for _, c := range cols {
			if c >= nLeft {
				allLeft = false
			} else {
				allRight = false
			}
		}
		if allLeft && len(cols) > 0 {
			return math.Min(q.DistinctRowCount(x.Left(), cols), q.RowCount(x)), true
		}
		if allRight && len(cols) > 0 && x.Kind.ProjectsRight() {
			shifted := make([]int, len(cols))
			for i, c := range cols {
				shifted[i] = c - nLeft
			}
			return math.Min(q.DistinctRowCount(x.Right(), shifted), q.RowCount(x)), true
		}
	case *rel.Project:
		// Map output cols to input refs where possible.
		var inCols []int
		for _, c := range cols {
			if c < len(x.Exprs) {
				if ref, ok := x.Exprs[c].(*rex.InputRef); ok {
					inCols = append(inCols, ref.Index)
					continue
				}
			}
			return math.Min(q.RowCount(x), math.Pow(q.RowCount(x), 0.7)), true
		}
		return q.DistinctRowCount(x.Inputs()[0], inCols), true
	case *rel.Converter:
		return q.DistinctRowCount(x.Inputs()[0], cols), true
	}
	rc := q.RowCount(n)
	return math.Min(math.Pow(rc, 0.8), rc), true
}

func defaultUnique(q *Query, n rel.Node, cols []int) (bool, bool) {
	n = rel.Unwrap(n)
	switch x := n.(type) {
	case *rel.TableScan:
		return x.Table.Stats().IsKey(cols), true
	case *rel.Filter:
		return q.ColumnsUnique(x.Inputs()[0], cols), true
	case *rel.Sort:
		return q.ColumnsUnique(x.Inputs()[0], cols), true
	case *rel.Aggregate:
		// The group keys are a key of the aggregate output.
		covered := true
		for i := range x.GroupKeys {
			found := false
			for _, c := range cols {
				if c == i {
					found = true
					break
				}
			}
			if !found {
				covered = false
				break
			}
		}
		return covered && len(x.GroupKeys) > 0, true
	case *rel.Project:
		var inCols []int
		for _, c := range cols {
			if c < len(x.Exprs) {
				if ref, ok := x.Exprs[c].(*rex.InputRef); ok {
					inCols = append(inCols, ref.Index)
					continue
				}
			}
			return false, true
		}
		return q.ColumnsUnique(x.Inputs()[0], inCols), true
	}
	return false, false
}

// defaultCollations propagates known sort orders: Sort establishes one,
// Filter and Limit preserve it, Project preserves it through identity
// column mappings.
func defaultCollations(q *Query, n rel.Node) (trait.Collation, bool) {
	if c := n.Traits().Collation; len(c) > 0 {
		return c, true
	}
	n = rel.Unwrap(n)
	switch x := n.(type) {
	case *rel.Sort:
		return x.Collation, true
	case *rel.Filter:
		return q.Collations(x.Inputs()[0]), true
	case *rel.Converter:
		return q.Collations(x.Inputs()[0]), true
	case *rel.Project:
		in := q.Collations(x.Inputs()[0])
		if len(in) == 0 {
			return nil, true
		}
		// input ordinal -> output ordinal for identity projections
		mapping := map[int]int{}
		for out, e := range x.Exprs {
			if ref, ok := e.(*rex.InputRef); ok {
				if _, dup := mapping[ref.Index]; !dup {
					mapping[ref.Index] = out
				}
			}
		}
		var out trait.Collation
		for _, fc := range in {
			o, ok := mapping[fc.Field]
			if !ok {
				break
			}
			out = append(out, trait.FieldCollation{Field: o, Direction: fc.Direction})
		}
		return out, true
	}
	return nil, true
}

// defaultSelfCost is the CPU/IO/memory cost model.
func defaultSelfCost(q *Query, n rel.Node) (cost.Cost, bool) {
	n = rel.Unwrap(n)
	switch x := n.(type) {
	case *rel.TableScan:
		rc := q.RowCount(n)
		return cost.New(rc, rc, rc*q.AverageRowSize(n)/1024, 0), true
	case *rel.Filter:
		in := q.RowCount(x.Inputs()[0])
		return cost.New(in, in, 0, 0), true
	case *rel.Project:
		in := q.RowCount(x.Inputs()[0])
		return cost.New(in, in*float64(len(x.Exprs))*0.1, 0, 0), true
	case *rel.Join:
		left, right := q.RowCount(x.Left()), q.RowCount(x.Right())
		// Hash join estimate: build on right, probe left.
		return cost.New(left+right, left+right, 0, right*q.AverageRowSize(x.Right())), true
	case *rel.Aggregate:
		in := q.RowCount(x.Inputs()[0])
		groups := q.RowCount(x)
		return cost.New(in, in*(1+0.2*float64(len(x.Calls))), 0, groups*q.AverageRowSize(x)), true
	case *rel.Sort:
		in := q.RowCount(x.Inputs()[0])
		// Sort is n log n CPU; pure limit is linear.
		cpu := in
		if len(x.Collation) > 0 {
			cpu = in * math.Log2(math.Max(in, 2))
		}
		return cost.New(in, cpu, 0, in*q.AverageRowSize(x)), true
	case *rel.SetOp:
		total := 0.0
		for _, in := range x.Inputs() {
			total += q.RowCount(in)
		}
		mem := 0.0
		if !x.All || x.Kind != rel.UnionOp {
			mem = total * q.AverageRowSize(x)
		}
		return cost.New(total, total, 0, mem), true
	case *rel.Values:
		return cost.New(float64(len(x.Tuples)), float64(len(x.Tuples)), 0, 0), true
	case *rel.Window:
		in := q.RowCount(x.Inputs()[0])
		return cost.New(in, in*math.Log2(math.Max(in, 2)), 0, in*q.AverageRowSize(x)), true
	case *rel.Converter:
		// Crossing an engine boundary serializes rows (IO), per Figure 2's
		// preference for plans that avoid unnecessary convention changes.
		rc := q.RowCount(x.Inputs()[0])
		return cost.New(rc, rc*0.1, rc*q.AverageRowSize(x)/1024+1, 0), true
	case *rel.TableModify:
		rc := q.RowCount(x.Inputs()[0])
		return cost.New(rc, rc, rc, 0), true
	}
	rc := q.RowCount(n)
	return cost.New(rc, rc, 0, 0), true
}

func defaultRowSize(q *Query, n rel.Node) (float64, bool) {
	return float64(8 * len(n.RowType().Fields)), true
}
