package rules

import (
	"math"
	"math/bits"

	"calcite/internal/meta"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
)

// Cost-based join-order enumeration (§2 of the paper: the "dynamic
// programming approach" that avoids the local minima of purely heuristic
// optimizers, made tractable by collapsing the commute/associate search
// space into one enumeration pass). It runs as two consecutive Hep phases
// (see core.Framework.Optimize):
//
//  1. JoinToMultiJoinRule collapses every tree of binary inner joins into a
//     single flat rel.MultiJoin holding the factors and all join conjuncts;
//  2. LoptOptimizeJoinRule expands each MultiJoin back into a binary join
//     tree chosen from estimated cardinalities — exact dynamic programming
//     over connected subsets up to dpFactorLimit factors, a greedy
//     cheapest-pair construction beyond.
//
// Both cost only the pairs that can win: a pair whose bound — pairCost with
// its row count at 1 — is >= the incumbent's cost is skipped unbuilt. That
// leaves the chosen tree the same, bit for bit, given meta.Query.RowCount ≥ 1
// (the bound is the same sum in the same order, and float addition is
// monotone) and the incumbent's replacement on a strict < (a skipped pair
// could only have tied the first minimum). A costed pair is estimated once,
// outside the metadata memo (meta.Query.CandidateRowCount), and only each
// subset's chosen tree is memoized. On plan_adhoc half the pairs are costed,
// at about 3.5 µs each on a 2-core host, from about 8.
//
// Because the second phase rewrites every MultiJoin, the flat form never
// reaches physical planning or execution.

// dpFactorLimit is the largest factor count planned with exact dynamic
// programming (3^k subset-split work); larger joins use the greedy builder.
const dpFactorLimit = 10

// JoinToMultiJoinRule collapses a tree of binary inner joins (whose inputs
// may already be MultiJoins) into a flat MultiJoin. Non-inner joins stop the
// flattening and become opaque factors. A plain two-way join with nothing to
// flatten is left alone: it keeps its written input order, so single-join
// plans (and the adapter pushdown rules that pattern-match them) are
// untouched — the enumeration only engages where there is an order to
// choose, i.e. three or more factors.
func JoinToMultiJoinRule() plan.Rule {
	return &plan.FuncRule{
		Name: "JoinToMultiJoinRule",
		Op:   logical[*rel.Join](),
		Fire: func(call *plan.Call) {
			j := call.Rel(0).(*rel.Join)
			if j.Kind != rel.InnerJoin {
				return
			}
			if !flattenable(j.Left()) && !flattenable(j.Right()) {
				return
			}
			var factors []rel.Node
			var conjuncts []rex.Node
			var splice func(n rel.Node, shift int)
			splice = func(n rel.Node, shift int) {
				switch x := n.(type) {
				case *rel.MultiJoin:
					factors = append(factors, x.Inputs()...)
					for _, c := range x.Conjuncts {
						conjuncts = append(conjuncts, rex.Shift(c, shift))
					}
				case *rel.Join:
					if !flattenable(n) {
						factors = append(factors, n)
						return
					}
					splice(x.Left(), shift)
					splice(x.Right(), shift+rel.FieldCount(x.Left()))
					for _, c := range rex.Conjuncts(x.Condition) {
						conjuncts = append(conjuncts, rex.Shift(c, shift))
					}
				default:
					factors = append(factors, n)
				}
			}
			splice(j.Left(), 0)
			splice(j.Right(), rel.FieldCount(j.Left()))
			if len(factors) > 63 {
				return // beyond the enumeration bitmask; keep binary joins
			}
			// The join's own condition is already in concatenated
			// [left, right] coordinates.
			conjuncts = append(conjuncts, rex.Conjuncts(j.Condition)...)
			call.Transform(rel.NewMultiJoin(factors, conjuncts))
		},
	}
}

// flattenable reports whether n can be spliced into an enclosing MultiJoin:
// a logical MultiJoin or a logical inner Join.
func flattenable(n rel.Node) bool {
	if !trait.SameConvention(n.Traits().Convention, trait.Logical) {
		return false
	}
	switch x := n.(type) {
	case *rel.MultiJoin:
		return true
	case *rel.Join:
		return x.Kind == rel.InnerJoin
	}
	return false
}

// LoptOptimizeJoinRule orders the factors of a MultiJoin into a binary
// inner-join tree by estimated cardinality and cost, mirroring Calcite's
// LoptOptimizeJoinRule. Conjuncts referencing a single factor are pushed
// onto that factor as filters before enumeration; factor-free conjuncts end
// up in a filter above the tree; a projection restores the original column
// order when the chosen factor order differs from the input order. The
// enumeration adds the pairs it considers and those it costs to counts.
func LoptOptimizeJoinRule(counts *JoinOrderCounts) plan.Rule {
	return &plan.FuncRule{
		Name: "LoptOptimizeJoinRule",
		Op:   plan.MatchType[*rel.MultiJoin](),
		Fire: func(call *plan.Call) {
			mj := call.Rel(0).(*rel.MultiJoin)
			if ordered := orderMultiJoin(call.Meta, mj, counts); ordered != nil {
				call.Transform(ordered)
			}
		},
	}
}

// JoinOrderCounts counts the pairs of partial trees the enumeration
// considers, and those of them it costs: the pairs that could still win.
type JoinOrderCounts struct{ Considered, Costed int }

// joinVertex is one factor of the enumeration, with its global column
// offset in the MultiJoin's concatenated coordinate space.
type joinVertex struct {
	node   rel.Node
	offset int
	width  int
}

// joinTree is a partially built join over a set of factors. order lists the
// factor indices in output-column order.
type joinTree struct {
	node  rel.Node
	mask  uint64
	order []int
	rows  float64
	cost  float64
}

// orderMultiJoin plans a binary join tree for the MultiJoin, or returns nil
// when no reordering is possible (e.g. too many factors for the bitmask).
func orderMultiJoin(mq *meta.Query, mj *rel.MultiJoin, counts *JoinOrderCounts) rel.Node {
	factors := mj.Inputs()
	k := len(factors)
	if k < 2 || k > 63 {
		return nil
	}
	vertices := make([]*joinVertex, k)
	offset := 0
	for i, f := range factors {
		vertices[i] = &joinVertex{node: f, offset: offset, width: rel.FieldCount(f)}
		offset += vertices[i].width
	}
	factorOf := func(col int) int {
		for i := k - 1; i >= 0; i-- {
			if col >= vertices[i].offset {
				return i
			}
		}
		return 0
	}

	// Partition conjuncts by factor support.
	type edge struct {
		cond    rex.Node
		support uint64
	}
	var edges []edge
	var topConds []rex.Node
	perFactor := make([][]rex.Node, k)
	for _, c := range mj.Conjuncts {
		if rex.IsAlwaysTrue(c) {
			continue
		}
		var support uint64
		for col := range rex.InputBitmap(c) {
			support |= 1 << uint(factorOf(col))
		}
		switch bits.OnesCount64(support) {
		case 0:
			topConds = append(topConds, c)
		case 1:
			fi := bits.TrailingZeros64(support)
			perFactor[fi] = append(perFactor[fi], rex.Shift(c, -vertices[fi].offset))
		default:
			edges = append(edges, edge{cond: c, support: support})
		}
	}
	for fi, conds := range perFactor {
		if len(conds) > 0 {
			vertices[fi].node = rel.NewFilter(vertices[fi].node, rex.And(conds...))
		}
	}

	base := func(i int) *joinTree {
		return &joinTree{
			node:  vertices[i].node,
			mask:  1 << uint(i),
			order: []int{i},
			rows:  mq.RowCount(vertices[i].node),
		}
	}

	connected := func(a, b uint64) bool {
		union := a | b
		for _, e := range edges {
			if e.support&^union == 0 && e.support&a != 0 && e.support&b != 0 {
				return true
			}
		}
		return false
	}

	// combine joins L and R (L as the streamed/probe side, R as the build
	// side), applying every not-yet-applied conjunct contained in the union —
	// unless the pair cannot beat incumbent, when it returns nil unbuilt.
	layoutOffset := make([]int, k) // factor → column offset in the tree placed last
	place := func(order []int) {
		at := 0
		for _, f := range order {
			layoutOffset[f] = at
			at += vertices[f].width
		}
	}
	moveRef := func(x rex.Node) rex.Node {
		if ref, ok := x.(*rex.InputRef); ok {
			f := factorOf(ref.Index)
			return rex.NewInputRef(layoutOffset[f]+ref.Index-vertices[f].offset, ref.T)
		}
		return x
	}
	combine := func(l, r, incumbent *joinTree) *joinTree {
		counts.Considered++
		if incumbent != nil && pairCost(l, r, 1) >= incumbent.cost {
			return nil
		}
		counts.Costed++
		union := l.mask | r.mask
		layout := append(append(make([]int, 0, len(l.order)+len(r.order)), l.order...), r.order...)
		place(layout)
		conds := make([]rex.Node, 0, 4)
		for _, e := range edges {
			if e.support&^union == 0 && e.support&l.mask != 0 && e.support&r.mask != 0 {
				conds = append(conds, rex.Transform(e.cond, moveRef))
			}
		}
		node := rel.NewJoin(rel.InnerJoin, l.node, r.node, rex.And(conds...))
		rows := mq.CandidateRowCount(node)
		return &joinTree{node: node, mask: union, order: layout, rows: rows, cost: pairCost(l, r, rows)}
	}
	// keep memoizes a chosen tree's row count for the pairs built over it.
	keep := func(t *joinTree) { mq.KeepRowCount(t.node, t.rows) }

	full := uint64(1)<<uint(k) - 1
	var result *joinTree
	if k <= dpFactorLimit {
		result = dpOrder(k, base, connected, combine, keep)
	} else {
		result = greedyOrder(k, base, connected, combine, keep)
	}
	if result == nil {
		return nil
	}
	if result.mask != full {
		return nil
	}

	out := result.node
	if len(topConds) > 0 {
		out = rel.NewFilter(out, rex.And(topConds...))
	}
	// Restore the original column order unless the enumeration kept it.
	identity := true
	for i, f := range result.order {
		if f != i {
			identity = false
			break
		}
	}
	if !identity {
		place(result.order)
		fields := mj.RowType().Fields
		exprs := make([]rex.Node, len(fields))
		names := make([]string, len(fields))
		for f, v := range vertices {
			for i := 0; i < v.width; i++ {
				global := v.offset + i
				exprs[global] = rex.NewInputRef(layoutOffset[f]+i, fields[global].Type)
				names[global] = fields[global].Name
			}
		}
		out = rel.NewProject(out, exprs, names)
	}
	return out
}

// pairCost is the cost of L ⋈ R producing rows: it mirrors the physical hash
// join (probe left once, build the right side at double weight) plus the
// intermediate result size. pairCost(l, r, 1) is the pair's lower bound.
func pairCost(l, r *joinTree, rows float64) float64 {
	return l.cost + r.cost + rows + l.rows + 2*r.rows
}

// dpOrder runs Selinger-style dynamic programming over factor subsets,
// considering bushy shapes. Cross products are admitted only for subsets
// with no connected split. Each subset's chosen tree is kept.
func dpOrder(k int, base func(int) *joinTree, connected func(a, b uint64) bool,
	combine func(l, r, incumbent *joinTree) *joinTree, keep func(*joinTree)) *joinTree {
	best := make([]*joinTree, 1<<uint(k))
	for i := 0; i < k; i++ {
		best[1<<uint(i)] = base(i)
	}
	for mask := uint64(1); mask < 1<<uint(k); mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		for pass := 0; pass < 2 && best[mask] == nil; pass++ {
			allowCross := pass == 1
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask ^ sub
				l, r := best[sub], best[other]
				if l == nil || r == nil {
					continue
				}
				if !allowCross && !connected(sub, other) {
					continue
				}
				if cand := combine(l, r, best[mask]); cand != nil &&
					(best[mask] == nil || cand.cost < best[mask].cost) {
					best[mask] = cand
				}
			}
		}
		keep(best[mask])
	}
	return best[(uint64(1)<<uint(k))-1]
}

// greedyOrder builds the tree by repeatedly merging the pair of partial
// trees with the cheapest combined cost, preferring connected pairs. Each
// merged tree is kept.
func greedyOrder(k int, base func(int) *joinTree, connected func(a, b uint64) bool,
	combine func(l, r, incumbent *joinTree) *joinTree, keep func(*joinTree)) *joinTree {
	parts := make([]*joinTree, k)
	for i := range parts {
		parts[i] = base(i)
	}
	for len(parts) > 1 {
		bestI, bestJ := -1, -1
		var bestTree *joinTree
		bestCost := math.Inf(1)
		for pass := 0; pass < 2 && bestTree == nil; pass++ {
			allowCross := pass == 1
			for i := 0; i < len(parts); i++ {
				for j := 0; j < len(parts); j++ {
					if i == j {
						continue
					}
					if !allowCross && !connected(parts[i].mask, parts[j].mask) {
						continue
					}
					cand := combine(parts[i], parts[j], bestTree)
					if cand != nil && cand.cost < bestCost {
						bestCost, bestTree, bestI, bestJ = cand.cost, cand, i, j
					}
				}
			}
		}
		if bestTree == nil {
			return nil
		}
		keep(bestTree)
		lo, hi := bestI, bestJ
		if lo > hi {
			lo, hi = hi, lo
		}
		parts[lo] = bestTree
		parts = append(parts[:hi], parts[hi+1:]...)
	}
	return parts[0]
}

// JoinOrderRules returns the two-phase join-order enumeration rule sets:
// phase one collapses inner-join trees into MultiJoins, phase two expands
// them into cardinality-ordered binary join trees. The phases must run in
// separate Hep passes (the expansion's output would otherwise re-trigger
// the collapse). counts accumulates phase two's considered and costed pairs.
func JoinOrderRules() (collapse, order []plan.Rule, counts *JoinOrderCounts) {
	counts = &JoinOrderCounts{}
	return []plan.Rule{JoinToMultiJoinRule()}, []plan.Rule{LoptOptimizeJoinRule(counts)}, counts
}
