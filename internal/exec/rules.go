package exec

import (
	"math"

	"calcite/internal/cost"
	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// logicalOp builds an operand matching nodes of type T in the logical
// convention (adapter-specific nodes share Go types with logical ones but
// carry their adapter's convention, so the convention check is essential).
func logicalOp[T rel.Node]() *plan.Operand {
	return plan.MatchNode(func(n rel.Node) bool {
		if _, ok := n.(T); !ok {
			return false
		}
		return trait.SameConvention(n.Traits().Convention, trait.Logical)
	})
}

// Rules returns the conversion rules from the logical convention to the
// enumerable convention — the rule set that makes any logical plan
// executable client-side (§5: with just a table scan, "the Calcite optimizer
// is then able to use client-side operators ... to execute arbitrary SQL
// queries against these tables").
func Rules() []plan.Rule {
	return []plan.Rule{
		ScanRule(), FilterRule(), ProjectRule(), SortRule(), AggregateRule(),
		StreamAggregateRule(), HashJoinRule(),
		SetOpRule(), ValuesRule(), WindowRule(), TableModifyRule(), IndexScanRule(),
	}
}

// ScanRule converts a logical scan of a scannable table.
func ScanRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableTableScanRule",
		Op:   logicalOp[*rel.TableScan](),
		Fire: func(call *plan.Call) {
			scan := call.Rel(0).(*rel.TableScan)
			if st, ok := scan.Table.(schema.ScannableTable); ok {
				call.Transform(NewScan(st, scan.QualifiedName))
			}
		},
	}
}

// FilterRule converts a logical filter.
func FilterRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableFilterRule",
		Op:   logicalOp[*rel.Filter](),
		Fire: func(call *plan.Call) {
			f := call.Rel(0).(*rel.Filter)
			call.Transform(NewFilter(call.Convert(f.Inputs()[0], trait.Enumerable), f.Condition))
		},
	}
}

// ProjectRule converts a logical projection.
func ProjectRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableProjectRule",
		Op:   logicalOp[*rel.Project](),
		Fire: func(call *plan.Call) {
			p := call.Rel(0).(*rel.Project)
			call.Transform(NewProject(call.Convert(p.Inputs()[0], trait.Enumerable), p.Exprs, p.FieldNames()))
		},
	}
}

// SortRule converts a logical sort/limit.
func SortRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableSortRule",
		Op:   logicalOp[*rel.Sort](),
		Fire: func(call *plan.Call) {
			s := call.Rel(0).(*rel.Sort)
			call.Transform(NewSort(call.Convert(s.Inputs()[0], trait.Enumerable), s.Collation, s.Offset, s.Fetch))
		},
	}
}

// AggregateRule converts a logical aggregate.
func AggregateRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableAggregateRule",
		Op:   logicalOp[*rel.Aggregate](),
		Fire: func(call *plan.Call) {
			a := call.Rel(0).(*rel.Aggregate)
			call.Transform(NewAggregate(call.Convert(a.Inputs()[0], trait.Enumerable), a.GroupKeys, a.Calls))
		},
	}
}

// StreamAggregateRule converts a logical streaming (windowed) aggregation.
func StreamAggregateRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableStreamAggregateRule",
		Op:   logicalOp[*rel.StreamAggregate](),
		Fire: func(call *plan.Call) {
			a := call.Rel(0).(*rel.StreamAggregate)
			call.Transform(NewStreamAgg(call.Convert(a.Inputs()[0], trait.Enumerable),
				a.Window, a.LatenessMs, a.GroupKeys, a.Calls))
		},
	}
}

// HashJoinRule converts every logical join to a hash join.
func HashJoinRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableHashJoinRule",
		Op:   logicalOp[*rel.Join](),
		Fire: func(call *plan.Call) {
			j := call.Rel(0).(*rel.Join)
			call.Transform(NewHashJoin(j.Kind,
				call.Convert(j.Left(), trait.Enumerable),
				call.Convert(j.Right(), trait.Enumerable),
				j.Condition))
		},
	}
}

// SetOpRule converts logical set operations.
func SetOpRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableSetOpRule",
		Op:   logicalOp[*rel.SetOp](),
		Fire: func(call *plan.Call) {
			s := call.Rel(0).(*rel.SetOp)
			inputs := make([]rel.Node, len(s.Inputs()))
			for i, in := range s.Inputs() {
				inputs[i] = call.Convert(in, trait.Enumerable)
			}
			call.Transform(NewSetOp(s.Kind, s.All, inputs...))
		},
	}
}

// ValuesRule converts logical Values.
func ValuesRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableValuesRule",
		Op:   logicalOp[*rel.Values](),
		Fire: func(call *plan.Call) {
			v := call.Rel(0).(*rel.Values)
			call.Transform(NewValues(v.RowType(), v.Tuples))
		},
	}
}

// WindowRule converts logical window aggregates.
func WindowRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableWindowRule",
		Op:   logicalOp[*rel.Window](),
		Fire: func(call *plan.Call) {
			w := call.Rel(0).(*rel.Window)
			call.Transform(NewWindow(call.Convert(w.Inputs()[0], trait.Enumerable), w.Groups))
		},
	}
}

// TableModifyRule converts logical INSERT.
func TableModifyRule() plan.Rule {
	return &plan.FuncRule{
		Name: "EnumerableTableModifyRule",
		Op:   logicalOp[*rel.TableModify](),
		Fire: func(call *plan.Call) {
			m := call.Rel(0).(*rel.TableModify)
			call.Transform(NewTableModify(m, call.Convert(m.Inputs()[0], trait.Enumerable)))
		},
	}
}

// MetadataProvider returns cost metadata for the enumerable physical
// operators: index and remote scans, the hash join and the sort.
func MetadataProvider() meta.Provider {
	return meta.Provider{
		Name: "enumerable",
		// An index lookup returns rows / NDV of its column: one on a declared
		// key, the filter's estimate on a column without statistics.
		RowCount: func(q *meta.Query, n rel.Node) (float64, bool) {
			x, ok := n.(*IndexScan)
			if !ok {
				return 0, false
			}
			st := x.Table.Stats()
			switch cs := st.ColStats(x.Col); {
			case st.IsKey([]int{x.Col}):
				return 1, true
			case cs != nil && cs.NDV > 0:
				return st.RowCount / cs.NDV, true
			}
			return q.RowCount(x.proto), true
		},
		NonCumulativeCost: func(q *meta.Query, n rel.Node) (cost.Cost, bool) {
			switch x := n.(type) {
			case *IndexScan:
				// A lookup reads the rows it returns and no others.
				rc := q.RowCount(x)
				return cost.New(rc, rc, 0, 0), true
			case *Scan:
				// A full scan of a remote table ships every row across the
				// engine boundary; charging that transfer is what makes
				// pushdown win (§5).
				if rt, ok := x.Table.(schema.RemoteTable); ok {
					rc := q.RowCount(x)
					return cost.New(rc, rc, rc*rt.TransferCostFactor(), 0), true
				}
				return cost.Zero, false
			case *HashJoin:
				// Without an equi key every probe row meets every build row.
				left, right := q.RowCount(x.Left()), q.RowCount(x.Right())
				cpu := left + right*2
				if len(x.Info.LeftKeys) == 0 {
					cpu = left * right
				}
				return cost.New(left+right, cpu, 0, right*q.AverageRowSize(x.Right())), true
			case *Sort:
				in := q.RowCount(x.Inputs()[0])
				cpu := in
				if len(x.Collation) > 0 {
					cpu = in * math.Log2(math.Max(in, 2))
				}
				return cost.New(in, cpu, 0, in*q.AverageRowSize(x)), true
			}
			return cost.Zero, false
		},
	}
}
