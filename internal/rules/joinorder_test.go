package rules

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"calcite/internal/feedback"
	"calcite/internal/meta"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/types"
)

// TestJoinOrderMatchesExhaustive: on random MultiJoins — chain, star, cycle,
// clique and disconnected join graphs, factor row counts drawn with repeats
// and including 1, with and without a feedback store holding row corrections
// for one orientation of some factor pairs — the enumeration chooses the tree
// an exhaustive enumeration chooses when it costs every pair through the same
// meta.Query: the same digest at the same cost, over the same pairs.
func TestJoinOrderMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rowChoices := []float64{1, 1, 2, 5, 10, 10, 40, 100, 100, 1000, 1000, 25000}
	shapes := []string{"chain", "star", "cycle", "clique", "disconnected"}
	var considered, costed int
	for iter := 0; iter < 150; iter++ {
		k := 3 + rng.Intn(5) // exact dynamic programming
		if iter%10 == 9 {
			k = dpFactorLimit + 1 + rng.Intn(2) // the greedy builder
		}
		shape := shapes[iter%len(shapes)]
		withFeedback := iter%2 == 1
		name := fmt.Sprintf("%d/%s/k=%d/feedback=%v", iter, shape, k, withFeedback)

		mj := randomMultiJoin(rng, k, shape, rowChoices)
		mq := meta.NewQuery()
		var store *feedback.Store
		if withFeedback {
			store = feedback.NewStore()
			teachOrientations(t, rng, store, mj)
			mq.Prepend(store.MetaProvider())
		}

		var counts JoinOrderCounts
		out := orderMultiJoin(mq, mj, &counts)
		if out == nil {
			t.Fatalf("%s: no plan", name)
		}
		tree := out
		if p, ok := out.(*rel.Project); ok {
			tree = p.Inputs()[0]
		}

		mq.InvalidateCache()
		want, pairs := exhaustiveOrder(mq, mj)
		if got, w := rel.Digest(tree), rel.Digest(want.node); got != w {
			t.Fatalf("%s: enumeration chose\n%s\nexhaustive chose\n%s", name, rel.Explain(tree), rel.Explain(want.node))
		}
		if got := treeCost(mq, tree); got != want.cost {
			t.Fatalf("%s: chosen tree costs %v, exhaustive %v", name, got, want.cost)
		}
		if counts.Considered != pairs || counts.Costed > counts.Considered {
			t.Fatalf("%s: %d considered, %d costed; exhaustive costed %d", name, counts.Considered, counts.Costed, pairs)
		}
		if store != nil && store.Counters().Corrections == 0 {
			t.Fatalf("%s: no learned row count took part", name)
		}
		considered += counts.Considered
		costed += counts.Costed
	}
	if costed >= considered {
		t.Fatalf("the bound skipped nothing: %d of %d pairs costed", costed, considered)
	}
	t.Logf("%d of %d pairs costed", costed, considered)
}

// randomMultiJoin builds k factors with row counts drawn from rows, joined
// by equalities on random columns in the given graph shape; one factor in
// four carries a filter of its own.
func randomMultiJoin(rng *rand.Rand, k int, shape string, rows []float64) *rel.MultiJoin {
	factors := make([]rel.Node, k)
	for i := range factors {
		factors[i] = mjScan(fmt.Sprintf("f%d", i), rows[rng.Intn(len(rows))])
	}
	col := func(f int) int { return 2*f + rng.Intn(2) } // every factor has two columns
	var conjuncts []rex.Node
	edge := func(a, b int) { conjuncts = append(conjuncts, eqRef(col(a), col(b))) }
	switch shape {
	case "chain", "cycle":
		for i := 0; i+1 < k; i++ {
			edge(i, i+1)
		}
		if shape == "cycle" {
			edge(k-1, 0)
		}
	case "star":
		hub := rng.Intn(k)
		for i := 0; i < k; i++ {
			if i != hub {
				edge(hub, i)
			}
		}
	case "clique":
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edge(i, j)
			}
		}
	case "disconnected": // two chains with nothing between them
		split := 1 + rng.Intn(k-1)
		for i := 0; i+1 < k; i++ {
			if i+1 != split {
				edge(i, i+1)
			}
		}
	}
	for i := 0; i < k; i++ {
		if rng.Intn(4) == 0 {
			conjuncts = append(conjuncts, rex.Eq(rex.NewInputRef(col(i), types.BigInt), rex.Int(rng.Int63n(5))))
		}
	}
	rng.Shuffle(len(conjuncts), func(i, j int) { conjuncts[i], conjuncts[j] = conjuncts[j], conjuncts[i] })
	return rel.NewMultiJoin(factors, conjuncts)
}

// teachOrientations harvests observed row counts for joins of random joined
// factor pairs, built as the enumeration builds them, in one orientation
// only: the reverse orientation has another NodeKey and keeps its estimate.
func teachOrientations(t *testing.T, rng *rand.Rand, store *feedback.Store, mj *rel.MultiJoin) {
	t.Helper()
	e := newRefEnum(mj)
	k := len(e.vertices)
	var pairs [][2]int
	for l := 0; l < k; l++ {
		for r := 0; r < k; r++ {
			if l != r && e.connected(1<<uint(l), 1<<uint(r)) {
				pairs = append(pairs, [2]int{l, r})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs[:(len(pairs)+1)/2] {
		j := e.join(e.leaf(p[0]), e.leaf(p[1])).node
		actual := []int64{1, 3, 60, 5000, 200000}[rng.Intn(5)]
		est := &feedback.PlanEstimates{Fingerprint: "teach", ByPath: map[string]feedback.OpEstimate{
			"0": {Path: "0", Op: "Join", Key: feedback.NodeKey(j), Rows: 100},
		}}
		snap := &obs.TraceSnapshot{Fingerprint: "teach", Spans: &obs.SpanStats{Path: "0", Rows: actual}}
		store.Harvest(snap, est)
	}
}

// refTree is a partial tree of the exhaustive enumeration.
type refTree struct {
	node       rel.Node
	mask       uint64
	order      []int
	rows, cost float64
}

// refEnum rebuilds, independently of the enumerator, the factors (with their
// own conjuncts pushed onto them as filters) and the joins it builds.
type refEnum struct {
	vertices []rel.Node
	offsets  []int
	edges    []rex.Node
	supports []uint64
}

func newRefEnum(mj *rel.MultiJoin) *refEnum {
	e := &refEnum{}
	at := 0
	for _, f := range mj.Inputs() {
		e.vertices = append(e.vertices, f)
		e.offsets = append(e.offsets, at)
		at += rel.FieldCount(f)
	}
	own := make([][]rex.Node, len(e.vertices))
	for _, c := range mj.Conjuncts {
		var support uint64
		for col := range rex.InputBitmap(c) {
			support |= 1 << uint(e.factorOf(col))
		}
		if bits.OnesCount64(support) == 1 {
			f := bits.TrailingZeros64(support)
			own[f] = append(own[f], rex.Shift(c, -e.offsets[f]))
			continue
		}
		e.edges, e.supports = append(e.edges, c), append(e.supports, support)
	}
	for f, conds := range own {
		if len(conds) > 0 {
			e.vertices[f] = rel.NewFilter(e.vertices[f], rex.And(conds...))
		}
	}
	return e
}

func (e *refEnum) factorOf(col int) int {
	f := 0
	for i, off := range e.offsets {
		if col >= off {
			f = i
		}
	}
	return f
}

func (e *refEnum) leaf(f int) *refTree {
	return &refTree{node: e.vertices[f], mask: 1 << uint(f), order: []int{f}}
}

func (e *refEnum) connected(a, b uint64) bool {
	for _, s := range e.supports {
		if s&^(a|b) == 0 && s&a != 0 && s&b != 0 {
			return true
		}
	}
	return false
}

// join builds L ⋈ R with every conjunct over both sides, its column
// references moved to the [L, R] layout.
func (e *refEnum) join(l, r *refTree) *refTree {
	order := append(append([]int(nil), l.order...), r.order...)
	at := map[int]int{}
	pos := 0
	for _, f := range order {
		at[f] = pos
		pos += rel.FieldCount(e.vertices[f])
	}
	var conds []rex.Node
	for i, s := range e.supports {
		if s&^(l.mask|r.mask) == 0 && s&l.mask != 0 && s&r.mask != 0 {
			conds = append(conds, rex.Transform(e.edges[i], func(x rex.Node) rex.Node {
				if ref, ok := x.(*rex.InputRef); ok {
					f := e.factorOf(ref.Index)
					return rex.NewInputRef(at[f]+ref.Index-e.offsets[f], ref.T)
				}
				return x
			}))
		}
	}
	node := rel.NewJoin(rel.InnerJoin, l.node, r.node, rex.And(conds...))
	return &refTree{node: node, mask: l.mask | r.mask, order: order}
}

// exhaustiveOrder costs every pair the enumeration considers, each through
// mq.RowCount, and keeps the first cheapest in the enumeration's order:
// subsets by dynamic programming up to dpFactorLimit factors, the greedy
// merge beyond. It returns the chosen tree and the number of pairs costed.
func exhaustiveOrder(mq *meta.Query, mj *rel.MultiJoin) (*refTree, int) {
	e := newRefEnum(mj)
	k := len(e.vertices)
	pairs := 0
	cost := func(l, r *refTree) *refTree {
		pairs++
		t := e.join(l, r)
		t.rows = mq.RowCount(t.node)
		t.cost = l.cost + r.cost + t.rows + l.rows + 2*r.rows
		return t
	}
	leaf := func(f int) *refTree {
		t := e.leaf(f)
		t.rows = mq.RowCount(t.node)
		return t
	}
	if k <= dpFactorLimit {
		best := make([]*refTree, 1<<uint(k))
		for f := 0; f < k; f++ {
			best[1<<uint(f)] = leaf(f)
		}
		for mask := uint64(1); mask < 1<<uint(k); mask++ {
			for pass := 0; bits.OnesCount64(mask) > 1 && pass < 2 && best[mask] == nil; pass++ {
				for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
					if pass == 0 && !e.connected(sub, mask^sub) {
						continue
					}
					if c := cost(best[sub], best[mask^sub]); best[mask] == nil || c.cost < best[mask].cost {
						best[mask] = c
					}
				}
			}
		}
		return best[1<<uint(k)-1], pairs
	}
	parts := make([]*refTree, k)
	for f := range parts {
		parts[f] = leaf(f)
	}
	for len(parts) > 1 {
		var win *refTree
		wi, wj, winCost := 0, 0, math.Inf(1)
		for pass := 0; pass < 2 && win == nil; pass++ {
			for i := range parts {
				for j := range parts {
					if i == j || pass == 0 && !e.connected(parts[i].mask, parts[j].mask) {
						continue
					}
					if c := cost(parts[i], parts[j]); c.cost < winCost {
						win, wi, wj, winCost = c, i, j, c.cost
					}
				}
			}
		}
		lo, hi := min(wi, wj), max(wi, wj)
		parts[lo] = win
		parts = append(parts[:hi], parts[hi+1:]...)
	}
	return parts[0], pairs
}

// treeCost recomputes a join tree's cost the way the enumeration adds it up.
func treeCost(mq *meta.Query, n rel.Node) float64 {
	j, ok := n.(*rel.Join)
	if !ok {
		return 0
	}
	l, r := j.Left(), j.Right()
	return treeCost(mq, l) + treeCost(mq, r) + mq.RowCount(j) + mq.RowCount(l) + 2*mq.RowCount(r)
}
