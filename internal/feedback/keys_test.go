package feedback

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// renderedKey is NodeKey computed from the rendered attribute strings, the
// way keys were built before a join's attributes were hashed as rendered.
func renderedKey(n rel.Node) uint64 {
	u := rel.Unwrap(n)
	h := uint64(fnvOffset)
	hashString(&h, strings.TrimPrefix(strings.TrimPrefix(u.Op(), "Logical"), "Enumerable"))
	hashString(&h, "{"+u.Attrs())
	for _, in := range n.Inputs() {
		hashString(&h, "(")
		hashUint64(&h, renderedKey(in))
	}
	return h
}

// renderedSignature is conditionSignature built from the names it hashes:
// "schema.table#col" per side, sides ordered, conjuncts sorted and joined.
func renderedSignature(n rel.Node, condition rex.Node) string {
	if condition == nil || rex.IsAlwaysTrue(condition) {
		return ""
	}
	var parts []string
	for _, term := range rex.Conjuncts(condition) {
		c, ok := term.(*rex.Call)
		if !ok || c.Op != rex.OpEquals || len(c.Operands) != 2 {
			return ""
		}
		var names [2]string
		for i, o := range c.Operands {
			ref, ok := o.(*rex.InputRef)
			if !ok {
				return ""
			}
			scan, col, ok := meta.ColumnOrigin(n, ref.Index)
			if !ok {
				return ""
			}
			names[i] = strings.Join(scan.QualifiedName, ".") + "#" + strconv.Itoa(col)
		}
		sort.Strings(names[:])
		parts = append(parts, names[0]+"="+names[1])
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// TestNodeKeysGroupAsRenderedNames: over seeded random trees, every node's key —
// a candidate's included, which is not stored — is the key of its rendered
// attributes; and over random join conditions, two share a signature exactly
// when their rendered signatures are equal, with 0 exactly for "".
func TestNodeKeysGroupAsRenderedNames(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		g := &twinGen{rng: rand.New(rand.NewSource(seed)), logicalOnly: true, bound: map[rel.Node]bool{}}
		root := g.tree(1 + int(seed)%4).logical
		session, digests := keyMemo{}, rel.NewDigests()
		rel.Walk(root, func(n rel.Node) bool {
			if got, want := (keyMemo{}).of(n, digests, true).key, renderedKey(n); got != want {
				t.Fatalf("seed %d: %s{%s}: candidate key %x, rendered %x", seed, n.Op(), n.Attrs(), got, want)
			}
			if got := session.of(n, digests, false).key; got != renderedKey(n) {
				t.Fatalf("seed %d: %s{%s}: session key differs from rendered", seed, n.Op(), n.Attrs())
			}
			return true
		})
		if _, ok := session[root]; !ok {
			t.Fatalf("seed %d: session did not store the root's key", seed)
		}
	}

	rng := rand.New(rand.NewSource(7))
	scans := []rel.Node{
		rel.NewTableScan(trait.Logical, testTable("t", 1), []string{"s", "t"}),
		rel.NewTableScan(trait.Logical, testTable("u", 1), []string{"u"}),
		rel.NewTableScan(trait.Logical, testTable("v", 1), []string{"s", "v"}),
	}
	leaf := func() rel.Node {
		n := scans[rng.Intn(len(scans))]
		if rng.Intn(3) == 0 {
			n = rel.NewFilter(n, rex.NewCall(rex.OpGreater, rex.NewInputRef(1, types.BigInt), rex.Int(2)))
		}
		return n
	}
	type sig struct {
		hash     uint64
		rendered string
	}
	var sigs []sig
	for i := 0; i < 400; i++ {
		l, r := leaf(), leaf()
		if rng.Intn(2) == 0 {
			l = rel.NewJoin(rel.InnerJoin, l, leaf(), rex.Bool(true))
		}
		nl, width := rel.FieldCount(l), rel.FieldCount(l)+rel.FieldCount(r)
		var conj []rex.Node
		for c := 1 + rng.Intn(3); c > 0; c-- {
			a := rex.Node(rex.NewInputRef(rng.Intn(nl), types.BigInt))
			b := rex.Node(rex.NewInputRef(nl+rng.Intn(width-nl), types.BigInt))
			switch rng.Intn(10) {
			case 0:
				b = rex.Int(1)
			case 1, 2, 3, 4:
				a, b = b, a
			}
			conj = append(conj, rex.Eq(a, b))
		}
		j := rel.NewJoin(rel.InnerJoin, l, r, rex.And(conj...))
		sigs = append(sigs, sig{conditionSignature(j, j.Condition), renderedSignature(j, j.Condition)})
	}
	classes := map[string]bool{}
	for _, x := range sigs {
		classes[x.rendered] = true
		if (x.hash == 0) != (x.rendered == "") {
			t.Fatalf("signature %x for rendered %q", x.hash, x.rendered)
		}
		for _, y := range sigs {
			if (x.hash == y.hash) != (x.rendered == y.rendered) {
				t.Fatalf("signatures %x, %x for rendered %q, %q", x.hash, y.hash, x.rendered, y.rendered)
			}
		}
	}
	t.Logf("%d rendered signatures among %d conditions", len(classes), len(sigs))
	if len(classes) < 50 {
		t.Fatalf("only %d distinct rendered signatures among %d", len(classes), len(sigs))
	}
}
