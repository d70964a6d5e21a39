// Package mv implements the two materialized-view rewriting algorithms of
// §6 of the paper:
//
//   - view substitution: a registered (definition plan, storage table) pair
//     lets the planner substitute part of the algebra tree with a scan of
//     the materialization, including partial rewritings that add residual
//     filters or rollup aggregates on top;
//
//   - lattices: data sources declared to form a star schema expose their
//     materializations as tiles; an aggregate query over the lattice is
//     answered from the smallest tile whose dimensions cover the query.
package mv

import (
	"sync"

	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// MaterializedView pairs a view's definition plan with the table that holds
// its materialized rows.
type MaterializedView struct {
	Name  string
	Plan  rel.Node
	Table schema.Table
	// Bases are the row counts the materialization was computed from.
	Bases Snapshot
}

// Snapshot holds the row count (Statistics.RowCount) of each table a
// materialization is computed from, read before computing it. Tables only
// grow: one that reports another count has rows the materialization lacks.
type Snapshot map[schema.Table]float64

// TakeSnapshot records the row count of every table n scans.
func TakeSnapshot(n rel.Node) Snapshot {
	s := Snapshot{}
	for _, t := range rel.ScannedTables(n) {
		s[t] = t.Stats().RowCount
	}
	return s
}

// Fresh reports whether every recorded table still has its recorded count.
func (s Snapshot) Fresh() bool {
	for t, rows := range s {
		if t.Stats().RowCount != rows {
			return false
		}
	}
	return true
}

// Registry holds materialized views and lattices known to the planner.
type Registry struct {
	mu       sync.RWMutex
	views    []*MaterializedView
	lattices []*Lattice
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a materialized view.
func (r *Registry) Register(v *MaterializedView) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.views = append(r.views, v)
}

// RegisterLattice adds a lattice.
func (r *Registry) RegisterLattice(l *Lattice) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lattices = append(r.lattices, l)
}

// Views returns the registered views.
func (r *Registry) Views() []*MaterializedView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*MaterializedView(nil), r.views...)
}

// Lattices returns the registered lattices.
func (r *Registry) Lattices() []*Lattice {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Lattice(nil), r.lattices...)
}

// Materializations returns the tables of the views and tiles computed from
// t: a write to t leaves them stale, and plans that read them must go.
func (r *Registry) Materializations(t schema.Table) []schema.Table {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []schema.Table
	for _, v := range r.views {
		if _, ok := v.Bases[t]; ok {
			out = append(out, v.Table)
		}
	}
	for _, l := range r.lattices {
		for _, tile := range l.Tiles {
			if _, ok := tile.Bases[t]; ok {
				out = append(out, tile.Table)
			}
		}
	}
	return out
}

// SubstitutionRules returns the planner rules for all registered views and
// lattices. Per §6, "the scan operator over the materialized view and the
// materialized view definition plan are registered with the planner, and
// transformation rules that try to unify expressions in the plan are
// triggered".
func (r *Registry) SubstitutionRules() []plan.Rule {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []plan.Rule
	if len(r.views) > 0 {
		out = append(out, r.substitutionRule())
	}
	for _, l := range r.lattices {
		out = append(out, l.Rule())
	}
	return out
}

// substitutionRule matches any logical node and attempts view unification.
func (r *Registry) substitutionRule() plan.Rule {
	return &plan.FuncRule{
		Name: "MaterializedViewSubstitutionRule",
		Op: plan.MatchNode(func(n rel.Node) bool {
			return trait.SameConvention(n.Traits().Convention, trait.Logical)
		}),
		Fire: func(call *plan.Call) {
			node := call.Rel(0)
			for _, v := range r.Views() {
				if !v.Bases.Fresh() {
					continue
				}
				if sub := r.unify(node, v); sub != nil {
					call.Transform(sub)
				}
			}
		},
	}
}

// unify attempts to rewrite node to use view v. Supported unifications:
//
//  1. exact match: digest(node) == digest(view plan) → scan(view table);
//  2. residual filter: node = Filter(cond, X) where X matches the view →
//     Filter(cond, scan) — the "partial rewritings that include additional
//     operators, e.g. filters with residual predicate conditions" of §6;
//  3. aggregate rollup: node = Aggregate(keys ⊆ view keys, rollupable
//     calls) over the same input as an aggregate view → rollup over scan.
func (r *Registry) unify(node rel.Node, v *MaterializedView) rel.Node {
	viewDigest := rel.Digest(v.Plan)
	scan := rel.NewTableScan(trait.Logical, v.Table, []string{v.Name})

	// (1) exact
	if rel.Digest(node) == viewDigest {
		return scan
	}

	// (2) residual filter above a view match
	if f, ok := node.(*rel.Filter); ok {
		if rel.Digest(f.Inputs()[0]) == viewDigest {
			return rel.NewFilter(scan, f.Condition)
		}
	}

	// (3) aggregate rollup: query GROUP BY keys are a subset of the view's.
	qAgg, ok := node.(*rel.Aggregate)
	if !ok {
		return nil
	}
	vAgg, ok := v.Plan.(*rel.Aggregate)
	if !ok {
		return nil
	}
	if rel.Digest(qAgg.Inputs()[0]) != rel.Digest(vAgg.Inputs()[0]) {
		return nil
	}
	return RollupAggregate(qAgg, vAgg, scan)
}

// RollupAggregate rewrites query aggregate qAgg as a rollup over a
// materialized aggregate vAgg stored in `scan`. Returns nil when the rollup
// is not derivable.
func RollupAggregate(qAgg, vAgg *rel.Aggregate, scan rel.Node) rel.Node {
	// Map query group keys (input ordinals) to view output positions.
	viewKeyPos := map[int]int{} // input ordinal -> view output ordinal
	for i, k := range vAgg.GroupKeys {
		viewKeyPos[k] = i
	}
	newKeys := make([]int, len(qAgg.GroupKeys))
	for i, k := range qAgg.GroupKeys {
		pos, ok := viewKeyPos[k]
		if !ok {
			return nil // query groups by a dimension the view lost
		}
		newKeys[i] = pos
	}
	// Each query aggregate call must be derivable from a view call.
	viewCallPos := func(c rex.AggCall) int {
		for i, vc := range vAgg.Calls {
			if vc.Func == c.Func && vc.Distinct == c.Distinct && sameInts(vc.Args, c.Args) {
				return len(vAgg.GroupKeys) + i
			}
		}
		return -1
	}
	newCalls := make([]rex.AggCall, len(qAgg.Calls))
	for i, c := range qAgg.Calls {
		if c.Distinct {
			return nil // DISTINCT aggregates do not roll up
		}
		pos := viewCallPos(c)
		if pos < 0 {
			return nil
		}
		switch c.Func {
		case rex.AggSum, rex.AggMin, rex.AggMax:
			newCalls[i] = rex.NewAggCall(c.Func, []int{pos}, false, c.Name)
		case rex.AggCount:
			// COUNT rolls up as SUM of partial counts.
			newCalls[i] = rex.NewAggCall(rex.AggSum, []int{pos}, false, c.Name)
		default:
			return nil // AVG etc. are not directly rollupable
		}
	}
	return rel.NewAggregate(scan, newKeys, newCalls)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
