package plan

import (
	"strconv"
	"strings"
	"testing"

	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// TestDigestAboveSubsetRefFollowsMerge: in a Volcano session, a node over a
// set reference must get a new digest and id once its set merges into
// another — the memo may not keep what it computed before the merge.
func TestDigestAboveSubsetRefFollowsMerge(t *testing.T) {
	scan := func(name string) rel.Node {
		tb := schema.NewMemTable(name, types.Row(types.Field{Name: "k", Type: types.BigInt}), nil)
		return rel.NewTableScan(trait.Logical, tb, []string{name})
	}
	p := NewVolcanoPlanner()
	p.Meta = meta.NewQuery()
	a, b := p.register(scan("a")), p.register(scan("b"))
	f := rel.NewFilter(p.convert(scan("b"), trait.Logical),
		rex.NewCall(rex.OpGreater, rex.NewInputRef(0, types.BigInt), rex.Int(1)))
	d := p.Meta.Digests()
	before, beforeID := d.Digest(f), d.ID(f)
	if !d.Volatile(f) || !strings.Contains(before, "set="+strconv.Itoa(b)) {
		t.Fatalf("digest before the merge: %s", before)
	}

	p.merge(a, b)
	after := d.Digest(f)
	if after != rel.Digest(f) || !strings.Contains(after, "set="+strconv.Itoa(a)) {
		t.Fatalf("digest after merging set %d into %d: %s (from scratch: %s)", b, a, after, rel.Digest(f))
	}
	if d.ID(f) == beforeID {
		t.Fatal("id kept across the merge")
	}
}
