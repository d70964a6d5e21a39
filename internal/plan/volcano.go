package plan

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"

	"calcite/internal/cost"
	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// FixPointMode selects when the cost-based engine stops (§6: the planner
// "continues until [it] reaches a configurable fix point": either
// exhaustively, or heuristically when the plan cost has not improved by more
// than a threshold δ in the last iterations).
type FixPointMode int

const (
	// Exhaustive explores until no rule produces a new expression.
	Exhaustive FixPointMode = iota
	// Heuristic stops once the best cost improves by less than Delta
	// (relative) for Patience consecutive iterations.
	Heuristic
)

// VolcanoPlanner is the cost-based planner engine. Expressions are
// registered with a digest derived from their attributes and inputs;
// expressions with equal digests are grouped into equivalence sets, and sets
// discovered to contain a common expression are merged (§6). Rule firings
// enumerate pattern bindings across set members, so one firing benefits
// every equivalent parent.
type VolcanoPlanner struct {
	// Meta is the metadata/cost session; a default one is created if nil.
	Meta *meta.Query
	// Mode selects the fix point behaviour.
	Mode FixPointMode
	// Delta is the relative cost-improvement threshold for Heuristic mode.
	Delta float64
	// Patience is the number of no-improvement iterations tolerated in
	// Heuristic mode before stopping.
	Patience int
	// MaxRounds bounds planning iterations. Default 40.
	MaxRounds int
	// MaxExpressions aborts registration-explosion. Default 50000.
	MaxExpressions int

	rules []Rule

	sets     []*eqSet
	parent   []int           // union-find over set ids
	byID     map[int32]int   // interned digest id -> set id
	firedKey map[string]bool // (rule, binding digests) already fired
	nRels    int

	// converterFactories create convention converters: from -> factories.
	converterFactories map[string][]converterFactory

	// Stats, exposed for tests and the planning benchmarks.
	Fired  int
	Rounds int
}

type converterFactory struct {
	to      trait.Convention
	factory func(input rel.Node) rel.Node
}

type eqSet struct {
	id   int
	rels []rel.Node
}

// NewVolcanoPlanner creates a cost-based planner with the given rules.
func NewVolcanoPlanner(rules ...Rule) *VolcanoPlanner {
	return &VolcanoPlanner{
		rules:              rules,
		byID:               map[int32]int{},
		firedKey:           map[string]bool{},
		converterFactories: map[string][]converterFactory{},
		Delta:              0.01,
		Patience:           1,
	}
}

// AddConverter registers a convention converter: whenever an expression in
// convention `from` is registered, factory(subset) is added to its
// equivalence set in convention `to`. This is how adapters teach the planner
// to move data between engines (the converters of Figure 2).
func (p *VolcanoPlanner) AddConverter(from, to trait.Convention, factory func(input rel.Node) rel.Node) {
	key := from.ConventionName()
	p.converterFactories[key] = append(p.converterFactories[key], converterFactory{to: to, factory: factory})
}

// SubsetRef is the placeholder for "any expression of equivalence set S in
// convention C" — the analogue of Calcite's RelSubset. Rules create them via
// Call.Convert; they are resolved to concrete best plans during extraction
// and never appear in final plans.
type SubsetRef struct {
	planner *VolcanoPlanner
	setID   int
	conv    trait.Convention
	rowType *types.Type
}

func (s *SubsetRef) Op() string           { return "Subset" }
func (s *SubsetRef) Inputs() []rel.Node   { return nil }
func (s *SubsetRef) RowType() *types.Type { return s.rowType }
func (s *SubsetRef) Traits() trait.Set    { return trait.NewSet(s.conv) }
func (s *SubsetRef) Attrs() string {
	return "set=" + strconv.Itoa(s.planner.find(s.setID)) + ", conv=" + s.conv.ConventionName()
}
func (s *SubsetRef) WithNewInputs(inputs []rel.Node) rel.Node { return s }

// UnstableDigest marks the reference rel.Unstable: its set id is renumbered
// when sets merge, so no digest over it may be memoized.
func (s *SubsetRef) UnstableDigest() {}

// representative returns a non-subset member of the set, preferring logical
// expressions (stable metadata).
func (p *VolcanoPlanner) representative(setID int) rel.Node {
	set := p.sets[p.find(setID)]
	var fallback rel.Node
	for _, r := range set.rels {
		if _, ok := r.(*SubsetRef); ok {
			continue
		}
		if trait.SameConvention(r.Traits().Convention, trait.Logical) {
			return r
		}
		if fallback == nil {
			fallback = r
		}
	}
	return fallback
}

// subsetMetadataProvider lets the metadata layer see through SubsetRef
// placeholders by delegating to a set representative — an example of the
// pluggable provider chain of §6.
func (p *VolcanoPlanner) subsetMetadataProvider() meta.Provider {
	deref := func(n rel.Node) rel.Node {
		if s, ok := n.(*SubsetRef); ok {
			if r := s.planner.representative(s.setID); r != nil {
				return r
			}
		}
		return nil
	}
	return meta.Provider{
		Name: "volcano-subset",
		RowCount: func(q *meta.Query, n rel.Node) (float64, bool) {
			if r := deref(n); r != nil {
				return q.RowCount(r), true
			}
			return 0, false
		},
		DistinctRowCount: func(q *meta.Query, n rel.Node, cols []int) (float64, bool) {
			if r := deref(n); r != nil {
				return q.DistinctRowCount(r, cols), true
			}
			return 0, false
		},
		ColumnsUnique: func(q *meta.Query, n rel.Node, cols []int) (bool, bool) {
			if r := deref(n); r != nil {
				return q.ColumnsUnique(r, cols), true
			}
			return false, false
		},
		Collations: func(q *meta.Query, n rel.Node) (trait.Collation, bool) {
			if r := deref(n); r != nil {
				return q.Collations(r), true
			}
			return nil, false
		},
		NonCumulativeCost: func(q *meta.Query, n rel.Node) (cost.Cost, bool) {
			if _, ok := n.(*SubsetRef); ok {
				return cost.Zero, true
			}
			return cost.Zero, false
		},
		AverageRowSize: func(q *meta.Query, n rel.Node) (float64, bool) {
			if r := deref(n); r != nil {
				return q.AverageRowSize(r), true
			}
			return 0, false
		},
	}
}

func (p *VolcanoPlanner) find(id int) int {
	for p.parent[id] != id {
		p.parent[id] = p.parent[p.parent[id]]
		id = p.parent[id]
	}
	return id
}

func (p *VolcanoPlanner) set(id int) *eqSet { return p.sets[p.find(id)] }

// register interns n (and its subtree) and returns its set id.
func (p *VolcanoPlanner) register(n rel.Node) int {
	if s, ok := n.(*SubsetRef); ok {
		return p.find(s.setID)
	}
	for _, in := range n.Inputs() {
		p.register(in)
	}
	d := p.Meta.Digests().ID(n)
	if id, ok := p.byID[d]; ok {
		return p.find(id)
	}
	id := len(p.sets)
	p.sets = append(p.sets, &eqSet{id: id, rels: []rel.Node{n}})
	p.parent = append(p.parent, id)
	p.byID[d] = id
	p.nRels++
	p.materializeConverters(id, n)
	return id
}

// addToSet adds n to set id (deduped by digest), merging if n's digest is
// already known elsewhere.
func (p *VolcanoPlanner) addToSet(id int, n rel.Node) {
	id = p.find(id)
	for _, in := range n.Inputs() {
		p.register(in)
	}
	d := p.Meta.Digests().ID(n)
	if other, ok := p.byID[d]; ok {
		p.merge(id, other)
		return
	}
	set := p.sets[id]
	set.rels = append(set.rels, n)
	p.byID[d] = id
	p.nRels++
	p.materializeConverters(id, n)
}

// materializeConverters adds convention-converter expressions for n into its
// set.
func (p *VolcanoPlanner) materializeConverters(setID int, n rel.Node) {
	conv := n.Traits().Convention
	if conv == nil {
		return
	}
	for _, cf := range p.converterFactories[conv.ConventionName()] {
		sub := &SubsetRef{planner: p, setID: p.find(setID), conv: conv, rowType: n.RowType()}
		converted := cf.factory(sub)
		d := p.Meta.Digests().ID(converted)
		if _, ok := p.byID[d]; ok {
			continue
		}
		set := p.sets[p.find(setID)]
		set.rels = append(set.rels, converted)
		p.byID[d] = p.find(setID)
		p.nRels++
	}
}

// merge unifies two equivalence sets ("the planner has found a duplicate and
// hence will merge Sa and Sb into a new set of equivalences", §6).
func (p *VolcanoPlanner) merge(a, b int) {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return
	}
	p.parent[rb] = ra
	seen := map[int32]bool{}
	var merged []rel.Node
	for _, r := range append(p.sets[ra].rels, p.sets[rb].rels...) {
		d := p.Meta.Digests().ID(r)
		if !seen[d] {
			seen[d] = true
			merged = append(merged, r)
		}
	}
	p.sets[ra].rels = merged
	p.sets[rb].rels = nil
	p.reindex()
}

// reindex rebuilds the digest index (digests of SubsetRefs change when sets
// merge).
func (p *VolcanoPlanner) reindex() {
	p.byID = map[int32]int{}
	for id, set := range p.sets {
		if p.find(id) != id {
			continue
		}
		seen := map[int32]bool{}
		var kept []rel.Node
		for _, r := range set.rels {
			d := p.Meta.Digests().ID(r)
			if seen[d] {
				continue
			}
			seen[d] = true
			kept = append(kept, r)
			p.byID[d] = id
		}
		set.rels = kept
	}
}

// volcano implements transformSink.
func (p *VolcanoPlanner) transform(c *Call, n rel.Node) {
	rootSet := p.register(c.Rels[0])
	p.addToSet(rootSet, n)
}

func (p *VolcanoPlanner) convert(input rel.Node, conv trait.Convention) rel.Node {
	var id int
	if s, ok := input.(*SubsetRef); ok {
		id = s.setID
	} else {
		id = p.register(input)
	}
	return &SubsetRef{planner: p, setID: id, conv: conv, rowType: input.RowType()}
}

// Optimize runs the engine: it registers root, fires rules to the
// configured fix point, and extracts the cheapest plan producing root's
// rows in the target convention.
func (p *VolcanoPlanner) Optimize(root rel.Node, target trait.Convention) (rel.Node, error) {
	if p.Meta == nil {
		p.Meta = meta.NewQuery()
	}
	p.Meta.Prepend(p.subsetMetadataProvider())
	if p.MaxRounds <= 0 {
		p.MaxRounds = 40
	}
	if p.MaxExpressions <= 0 {
		p.MaxExpressions = 50000
	}
	rootSet := p.register(root)

	lastBest := math.Inf(1)
	noImprove := 0
	for round := 0; round < p.MaxRounds; round++ {
		p.Rounds = round + 1
		fired := p.fireRound()
		p.Meta.InvalidateCache()
		if fired == 0 {
			break // exhaustive fix point: no rule changed anything
		}
		if p.Mode == Heuristic {
			_, c, err := p.extractBest(p.find(rootSet), target)
			cur := math.Inf(1)
			if err == nil {
				cur = c.Scalar()
			}
			if lastBest-cur <= p.Delta*math.Abs(lastBest) {
				noImprove++
				if noImprove >= p.Patience {
					break
				}
			} else {
				noImprove = 0
			}
			if cur < lastBest {
				lastBest = cur
			}
		}
		if p.nRels > p.MaxExpressions {
			break
		}
	}

	best, _, err := p.extractBest(p.find(rootSet), target)
	if err != nil {
		return nil, err
	}
	return best, nil
}

// fireRound scans every registered expression and fires every new rule
// binding once. Returns the number of firings that added expressions.
func (p *VolcanoPlanner) fireRound() int {
	fired := 0
	// Snapshot: rules may add rels/sets while firing.
	type item struct {
		setID int
		n     rel.Node
	}
	var worklist []item
	for id := range p.sets {
		if p.find(id) != id {
			continue
		}
		for _, r := range p.sets[id].rels {
			if _, ok := r.(*SubsetRef); ok {
				continue
			}
			worklist = append(worklist, item{id, r})
		}
	}
	for _, it := range worklist {
		for _, r := range p.rules {
			for _, binding := range p.matchOperand(r.Operand(), it.n, 0) {
				key := p.bindingKey(r, binding)
				if p.firedKey[key] {
					continue
				}
				p.firedKey[key] = true
				before := p.nRels
				call := &Call{Rels: binding, Meta: p.Meta, planner: p}
				r.OnMatch(call)
				p.Fired++
				if p.nRels > before {
					fired++
				}
				if p.nRels > p.MaxExpressions {
					return fired
				}
			}
		}
	}
	return fired
}

// bindingKey names a firing by rule and the interned digests of its binding.
func (p *VolcanoPlanner) bindingKey(r Rule, binding []rel.Node) string {
	b := append([]byte(r.RuleName()), 0)
	for _, n := range binding {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Meta.Digests().ID(n)))
	}
	return string(b)
}

// matchOperand enumerates bindings of the pattern rooted at o against node n,
// where child operands range over equivalence-set members of n's inputs.
// depth bounds pathological patterns.
func (p *VolcanoPlanner) matchOperand(o *Operand, n rel.Node, depth int) [][]rel.Node {
	if depth > 8 {
		return nil
	}
	if o.Match != nil && !o.Match(n) {
		return nil
	}
	if o.anyChildren || o.Children == nil {
		return [][]rel.Node{{n}}
	}
	inputs := n.Inputs()
	if len(o.Children) != len(inputs) {
		return nil
	}
	// For each input position, collect sub-bindings over set members.
	perChild := make([][][]rel.Node, len(inputs))
	for i, in := range inputs {
		members := p.membersOf(in)
		for _, m := range members {
			subs := p.matchOperand(o.Children[i], m, depth+1)
			perChild[i] = append(perChild[i], subs...)
		}
		if len(perChild[i]) == 0 {
			return nil
		}
		// Bound fan-out per child to keep rounds tractable.
		if len(perChild[i]) > 16 {
			perChild[i] = perChild[i][:16]
		}
	}
	// Cartesian product.
	out := [][]rel.Node{{n}}
	for _, subs := range perChild {
		var next [][]rel.Node
		for _, prefix := range out {
			for _, s := range subs {
				nb := make([]rel.Node, 0, len(prefix)+len(s))
				nb = append(nb, prefix...)
				nb = append(nb, s...)
				next = append(next, nb)
			}
		}
		out = next
		if len(out) > 64 {
			out = out[:64]
		}
	}
	return out
}

// membersOf returns the concrete equivalence-set members usable as a match
// for input node in.
func (p *VolcanoPlanner) membersOf(in rel.Node) []rel.Node {
	var id int
	if s, ok := in.(*SubsetRef); ok {
		id = s.setID
	} else {
		d := p.Meta.Digests().ID(in)
		known, ok := p.byID[d]
		if !ok {
			return []rel.Node{in}
		}
		id = known
	}
	set := p.set(id)
	out := make([]rel.Node, 0, len(set.rels))
	for _, r := range set.rels {
		if _, ok := r.(*SubsetRef); ok {
			continue
		}
		out = append(out, r)
	}
	return out
}

type bestKey struct {
	set  int
	conv string
}

// extractBest selects the cheapest expression of the set in the given
// convention, recursively substituting best children, using the cost model
// from the metadata providers.
func (p *VolcanoPlanner) extractBest(setID int, target trait.Convention) (rel.Node, cost.Cost, error) {
	memo := map[bestKey]*bestEntry{}
	n, c := p.best(setID, target, memo)
	if n == nil {
		return nil, cost.Infinite, fmt.Errorf("plan: no implementation found for set %d in convention %q", p.find(setID), target.ConventionName())
	}
	return n, c, nil
}

type bestEntry struct {
	node    rel.Node
	cost    cost.Cost
	inProg  bool
	visited bool
}

func (p *VolcanoPlanner) best(setID int, conv trait.Convention, memo map[bestKey]*bestEntry) (rel.Node, cost.Cost) {
	setID = p.find(setID)
	key := bestKey{setID, conv.ConventionName()}
	if e, ok := memo[key]; ok {
		if e.inProg {
			return nil, cost.Infinite // cycle
		}
		return e.node, e.cost
	}
	entry := &bestEntry{inProg: true, cost: cost.Infinite}
	memo[key] = entry

	// Deterministic order for stable plans.
	d := p.Meta.Digests()
	rels := append([]rel.Node(nil), p.sets[setID].rels...)
	sort.Slice(rels, func(i, j int) bool { return d.Digest(rels[i]) < d.Digest(rels[j]) })

	for _, r := range rels {
		if _, ok := r.(*SubsetRef); ok {
			continue
		}
		if !trait.SameConvention(r.Traits().Convention, conv) {
			continue
		}
		inputs := r.Inputs()
		newInputs := make([]rel.Node, len(inputs))
		total := p.Meta.NonCumulativeCost(r)
		feasible := true
		for i, in := range inputs {
			var childNode rel.Node
			var childCost cost.Cost
			if s, ok := in.(*SubsetRef); ok {
				childNode, childCost = p.best(s.setID, s.conv, memo)
			} else {
				cid, ok := p.byID[p.Meta.Digests().ID(in)]
				if !ok {
					childNode, childCost = in, p.Meta.CumulativeCost(in)
				} else {
					childNode, childCost = p.best(cid, in.Traits().Convention, memo)
				}
			}
			if childNode == nil || childCost.IsInfinite() {
				feasible = false
				break
			}
			newInputs[i] = childNode
			total = total.Plus(childCost)
		}
		if !feasible || total.IsInfinite() {
			continue
		}
		if total.Less(entry.cost) {
			node := r
			if len(inputs) > 0 {
				node = r.WithNewInputs(newInputs)
			}
			entry.node = node
			entry.cost = total
		}
	}
	entry.inProg = false
	entry.visited = true
	return entry.node, entry.cost
}

// ExpressionCount returns the number of registered expressions (for tests
// and the planning benchmarks).
func (p *VolcanoPlanner) ExpressionCount() int { return p.nRels }

// SetCount returns the number of live equivalence sets.
func (p *VolcanoPlanner) SetCount() int {
	n := 0
	for id := range p.sets {
		if p.find(id) == id && len(p.sets[id].rels) > 0 {
			n++
		}
	}
	return n
}
