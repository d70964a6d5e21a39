package feedback

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// twinGen draws one seeded random shape as two trees — logical operators and
// the enumerable operators that implement them — recording which subtrees
// hold a dynamic parameter. Literal strings that merely look like one
// ("'?1'") are drawn too. With logicalOnly it also draws MultiJoins, which
// have no physical counterpart.
type twinGen struct {
	rng         *rand.Rand
	logicalOnly bool
	bound       map[rel.Node]bool
}

type twin struct{ logical, physical rel.Node }

func (g *twinGen) pred() (rex.Node, bool) {
	var rhs rex.Node = rex.Int(int64(g.rng.Intn(5)))
	param := false
	switch g.rng.Intn(3) {
	case 0:
		rhs, param = &rex.DynamicParam{Index: g.rng.Intn(3), T: types.BigInt}, true
	case 1:
		rhs = rex.Str(fmt.Sprintf("?%d", g.rng.Intn(3)))
	}
	return rex.NewCall(rex.OpGreater, rex.NewInputRef(0, types.BigInt), rhs), param
}

func (g *twinGen) tree(depth int) twin {
	if depth == 0 {
		tb := testTable([]string{"t", "u"}[g.rng.Intn(2)], 10)
		return twin{rel.NewTableScan(trait.Logical, tb, []string{tb.Name()}), exec.NewScan(tb, []string{tb.Name()})}
	}
	in := g.tree(depth - 1)
	var out twin
	param := g.bound[in.logical]
	choices := 5
	if g.logicalOnly {
		choices = 6
	}
	switch g.rng.Intn(choices) {
	case 0:
		cond, p := g.pred()
		out, param = twin{rel.NewFilter(in.logical, cond), exec.NewFilter(in.physical, cond)}, param || p
	case 1:
		exprs := []rex.Node{rex.NewInputRef(0, types.BigInt)}
		out = twin{rel.NewProject(in.logical, exprs, []string{"a"}), exec.NewProject(in.physical, exprs, []string{"a"})}
	case 2:
		right := g.tree(depth - 1)
		cond, p := g.pred()
		cond = rex.And(rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(rel.FieldCount(in.logical), types.BigInt)), cond)
		out = twin{rel.NewJoin(rel.InnerJoin, in.logical, right.logical, cond),
			exec.NewHashJoin(rel.InnerJoin, in.physical, right.physical, cond)}
		param = param || p || g.bound[right.logical]
	case 3:
		coll := trait.Collation{{Field: 0}}
		out = twin{rel.NewSort(in.logical, coll, 0, 5), exec.NewSort(in.physical, coll, 0, 5)}
	case 4:
		// A converter over a shared leaf: its attributes name the input's
		// convention, so both trees must convert the same node.
		leaf := g.tree(0).logical
		c := rel.NewConverter("LogicalToEnumerableConverter", trait.Enumerable, leaf)
		out, param = twin{c, c}, false
	default:
		cond, p := g.pred()
		right := g.tree(depth - 1)
		mj := rel.NewMultiJoin([]rel.Node{in.logical, right.logical}, []rex.Node{cond})
		out, param = twin{mj, mj}, param || p || g.bound[right.logical]
	}
	g.bound[out.logical], g.bound[out.physical] = param, param
	return out
}

// TestNodeKeyMemoProperties: over seeded random trees, in a session memo and
// from scratch, equal structure gives equal keys, a logical node and its
// physical counterpart share a key, and Bound is set exactly when a
// parameter sits somewhere in the subtree.
func TestNodeKeyMemoProperties(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for _, logicalOnly := range []bool{false, true} {
			gen := func() (*twinGen, twin) {
				g := &twinGen{rng: rand.New(rand.NewSource(seed)), logicalOnly: logicalOnly, bound: map[rel.Node]bool{}}
				return g, g.tree(1 + int(seed)%4)
			}
			g, a := gen()
			_, b := gen()
			session, digests := keyMemo{}, rel.NewDigests()
			var walk func(x, y twin)
			walk = func(x, y twin) {
				kx := session.of(x.logical, digests, false)
				switch {
				case kx != keyMemo{}.of(x.logical, nil, false):
					t.Fatalf("seed %d: session key differs from scratch for %s", seed, x.logical.Op())
				case kx.key != NodeKey(y.logical):
					t.Fatalf("seed %d: equal structure, different keys at %s", seed, x.logical.Op())
				case !logicalOnly && kx.key != NodeKey(x.physical):
					t.Fatalf("seed %d: %s and %s keys differ", seed, x.logical.Op(), x.physical.Op())
				case kx.bound != g.bound[x.logical]:
					t.Fatalf("seed %d: bound=%v for %s{%s}, want %v", seed, kx.bound, x.logical.Op(), x.logical.Attrs(), g.bound[x.logical])
				}
				for i := range x.logical.Inputs() {
					walk(twin{x.logical.Inputs()[i], x.physical.Inputs()[i]},
						twin{y.logical.Inputs()[i], y.physical.Inputs()[i]})
				}
			}
			walk(a, b)
		}
	}
}

// movable stands in for the Volcano planner's set reference: its attributes
// change after construction.
type movable struct {
	rel.Node
	set *int
}

func (m *movable) Attrs() string   { return fmt.Sprintf("set=%d", *m.set) }
func (m *movable) UnstableDigest() {}

// TestNodeKeyOverUnstableNotMemoized: a session's key for a node above an
// unstable one follows the change; a memoized key would not.
func TestNodeKeyOverUnstableNotMemoized(t *testing.T) {
	set := 1
	ref := &movable{Node: rel.NewTableScan(trait.Logical, testTable("t", 10), []string{"t"}), set: &set}
	f := rel.NewFilter(ref, rex.NewCall(rex.OpGreater, rex.NewInputRef(0, types.BigInt), rex.Int(1)))
	session, digests := keyMemo{}, rel.NewDigests()
	before := session.of(f, digests, false).key
	set = 2
	if after := session.of(f, digests, false).key; after == before || after != NodeKey(f) {
		t.Fatalf("key over a moved set: before %x, after %x, from scratch %x", before, after, NodeKey(f))
	}
}

// boundedRound harvests statement i: sixteen operators whose correction keys
// are unique to it, so corrections outgrow their cap as fast as statements
// outgrow theirs.
func boundedRound(s *Store, i int) {
	fp := fmt.Sprintf("fp%d", i)
	pe := &PlanEstimates{Fingerprint: fp, ByPath: map[string]OpEstimate{}}
	root := &obs.SpanStats{Name: "Filter", Path: "0", Rows: 5}
	for j := 0; j < CorrectionCap/StatementCap; j++ {
		path := "0"
		if j > 0 {
			path = fmt.Sprintf("0.%d", j-1)
			root.Children = append(root.Children, &obs.SpanStats{Name: "TableScan", Path: path, Rows: 40})
		}
		pe.ByPath[path] = OpEstimate{Path: path, Op: "Filter", Key: uint64(i)<<8 | uint64(j), Rows: 10}
	}
	s.Harvest(&obs.TraceSnapshot{Fingerprint: fp, SQL: fp, Spans: root}, pe)
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFeedbackStoreBounded pushes ten capacities' worth of distinct
// statements through Harvest: both bounded maps stay within their caps, the
// live heap stops growing once they are full, and a statement harvested every
// round is never evicted.
func TestFeedbackStoreBounded(t *testing.T) {
	s := NewStore()
	hot := -1
	var heap2x uint64
	for i := 0; i < 10*StatementCap; i++ {
		boundedRound(s, i)
		boundedRound(s, hot)
		if fps, ops := s.Size(); fps > StatementCap || ops > CorrectionCap {
			t.Fatalf("after %d statements: %d records, %d corrections; caps %d, %d", i+1, fps, ops, StatementCap, CorrectionCap)
		}
		if i+1 == 2*StatementCap {
			heap2x = liveHeap()
		}
	}
	if grown := int64(liveHeap()) - int64(heap2x); grown > 2<<20 {
		t.Fatalf("live heap grew %d bytes between 2x and 10x the statement cap", grown)
	}
	reports := s.Report()
	if len(reports) > StatementCap {
		t.Fatalf("report lists %d statements, cap %d", len(reports), StatementCap)
	}
	found := false
	for _, r := range reports {
		found = found || r.Fingerprint == fmt.Sprintf("fp%d", hot)
	}
	_, ok := s.corrections[uint64(hot)<<8]
	if !found || !ok {
		t.Fatalf("statement harvested every round was evicted: record %v, correction %v", found, ok)
	}
}
