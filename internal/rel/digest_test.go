package rel_test

import (
	"math/rand"
	"strings"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// refDigest is the from-scratch recursive digest the session memo must
// reproduce byte for byte.
func refDigest(n rel.Node) string {
	var b strings.Builder
	b.WriteString(n.Op())
	if conv := n.Traits().Convention; conv != nil && !trait.SameConvention(conv, trait.Logical) {
		b.WriteString("." + conv.ConventionName())
	}
	if a := n.Attrs(); a != "" {
		b.WriteString("{" + a + "}")
	}
	if ins := n.Inputs(); len(ins) > 0 {
		parts := make([]string, len(ins))
		for i, in := range ins {
			parts[i] = refDigest(in)
		}
		b.WriteString("(" + strings.Join(parts, ",") + ")")
	}
	return b.String()
}

// treeGen draws seeded random plan trees: logical operators, their
// enumerable wrappers, converters, MultiJoins, predicates over ?n parameters,
// and subtrees reused under several parents.
type treeGen struct {
	rng    *rand.Rand
	tables []*schema.MemTable
	pool   []rel.Node
}

func newTreeGen(seed int64) *treeGen {
	g := &treeGen{rng: rand.New(rand.NewSource(seed))}
	for _, name := range []string{"t", "u"} {
		g.tables = append(g.tables, schema.NewMemTable(name, types.Row(
			types.Field{Name: "a", Type: types.BigInt},
			types.Field{Name: "b", Type: types.BigInt},
		), nil))
	}
	return g
}

func (g *treeGen) pred() rex.Node {
	var rhs rex.Node = rex.Int(int64(g.rng.Intn(5)))
	switch g.rng.Intn(3) {
	case 0:
		rhs = &rex.DynamicParam{Index: g.rng.Intn(3), T: types.BigInt}
	case 1:
		rhs = rex.Str("?" + string(rune('0'+g.rng.Intn(3))))
	}
	return rex.NewCall(rex.OpGreater, rex.NewInputRef(0, types.BigInt), rhs)
}

func (g *treeGen) tree(depth int) rel.Node {
	if len(g.pool) > 0 && g.rng.Intn(5) == 0 {
		return g.pool[g.rng.Intn(len(g.pool))]
	}
	var n rel.Node
	enum := g.rng.Intn(2) == 0
	if depth == 0 {
		tb := g.tables[g.rng.Intn(len(g.tables))]
		n = rel.NewTableScan(trait.Logical, tb, []string{tb.Name()})
		if enum {
			n = exec.NewScan(tb, []string{tb.Name()})
		}
		g.pool = append(g.pool, n)
		return n
	}
	in := g.tree(depth - 1)
	switch g.rng.Intn(6) {
	case 0:
		n = rel.NewFilter(in, g.pred())
		if enum {
			n = exec.NewFilter(in, g.pred())
		}
	case 1:
		exprs := []rex.Node{rex.NewInputRef(0, types.BigInt), rex.NewCall(rex.OpPlus, rex.NewInputRef(0, types.BigInt), rex.Int(1))}
		n = rel.NewProject(in, exprs, []string{"a", "c"})
		if enum {
			n = exec.NewProject(in, exprs, []string{"a", "c"})
		}
	case 2:
		right := g.tree(depth - 1)
		cond := rex.And(rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(rel.FieldCount(in), types.BigInt)), g.pred())
		n = rel.NewJoin(rel.InnerJoin, in, right, cond)
		if enum {
			n = exec.NewHashJoin(rel.InnerJoin, in, right, cond)
		}
	case 3:
		n = rel.NewSort(in, trait.Collation{{Field: 0, Direction: trait.Descending}}, 0, int64(g.rng.Intn(3))-1)
		if enum {
			n = exec.NewSort(in, trait.Collation{{Field: 0}}, 0, 10)
		}
	case 4:
		n = rel.NewConverter("LogicalToEnumerableConverter", trait.Enumerable, in)
	default:
		n = rel.NewMultiJoin([]rel.Node{in, g.tree(depth - 1)}, []rex.Node{g.pred()})
	}
	g.pool = append(g.pool, n)
	return n
}

// TestDigestMemoMatchesRecursive: across one session fed with many random
// trees, the memo's digest of every node is the recursive digest, and ids
// are equal exactly when digests are.
func TestDigestMemoMatchesRecursive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := newTreeGen(seed)
		d := rel.NewDigests()
		byID := map[int32]string{}
		byDigest := map[string]int32{}
		for i := 0; i < 10; i++ {
			rel.Walk(g.tree(1+g.rng.Intn(4)), func(n rel.Node) bool {
				want := refDigest(n)
				if got := d.Digest(n); got != want {
					t.Fatalf("seed %d: memo digest\n got %s\nwant %s", seed, got, want)
				}
				if got := rel.Digest(n); got != want {
					t.Fatalf("seed %d: rel.Digest\n got %s\nwant %s", seed, got, want)
				}
				id := d.ID(n)
				if prev, ok := byID[id]; ok && prev != want {
					t.Fatalf("seed %d: id %d names %s and %s", seed, id, prev, want)
				}
				if prev, ok := byDigest[want]; ok && prev != id {
					t.Fatalf("seed %d: digest %s has ids %d and %d", seed, want, prev, id)
				}
				byID[id], byDigest[want] = want, id
				return true
			})
		}
	}
}

// relabeled wraps a filter with attributes of its own, as adapter operators
// do: a memo keyed by anything the two share would answer one for the other.
type relabeled struct{ *rel.Filter }

func (r *relabeled) Attrs() string { return r.Filter.Attrs() + ", relabeled" }

// TestDigestWrapperNeverSharesEntry: a physical wrapper and the node it
// embeds are different memo entries, whichever is digested first.
func TestDigestWrapperNeverSharesEntry(t *testing.T) {
	g := newTreeGen(7)
	f := rel.NewFilter(g.tree(2), g.pred())
	w := &relabeled{f}
	for _, order := range [][]rel.Node{{f, w}, {w, f}} {
		d := rel.NewDigests()
		for _, n := range order {
			if got, want := d.Digest(n), refDigest(n); got != want {
				t.Fatalf("digest\n got %s\nwant %s", got, want)
			}
		}
		if d.ID(f) == d.ID(w) {
			t.Fatal("wrapper and embedded filter share an id")
		}
	}
	e := exec.NewFilter(f, g.pred())
	d := rel.NewDigests()
	if d.Digest(e.Filter) != refDigest(e.Filter) || d.Digest(e) != refDigest(e) {
		t.Fatal("enumerable wrapper and its embedded filter digest differently from scratch")
	}
}
