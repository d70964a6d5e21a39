// Package rel implements the relational algebra at the core of the framework
// (§4 of the paper). A query is represented as a tree of relational operators
// (Node). Every node carries a trait set describing its physical properties
// (calling convention, collation); logical and physical operators share the
// same representation and differ only in traits, exactly as in Calcite.
//
// Node digests — canonical strings over the operator, its attributes and its
// input digests — drive duplicate detection in the cost-based planner (§6).
package rel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// Node is a relational expression.
type Node interface {
	// Op returns the operator name for display and digesting, e.g.
	// "LogicalFilter" or "EnumerableHashJoin".
	Op() string
	// Inputs returns the child expressions.
	Inputs() []Node
	// RowType returns the type of the rows produced (a ROW type).
	RowType() *types.Type
	// Traits returns the node's physical traits.
	Traits() trait.Set
	// Attrs renders the node's own attributes (no inputs) for digests and
	// EXPLAIN, e.g. "condition=[>($1, 25)]".
	Attrs() string
	// WithNewInputs returns a copy of the node with the inputs replaced.
	// len(inputs) must match len(Inputs()).
	WithNewInputs(inputs []Node) Node
}

// Wrapped is implemented by physical operators that wrap a logical
// prototype; Unwrap returns an equivalent logical node with the same inputs.
// The metadata layer uses it to derive logical properties (row counts,
// collations) of physical operators it does not know about.
type Wrapped interface {
	Unwrap() Node
}

// Unwrap returns n's logical prototype: n itself unless it is Wrapped.
func Unwrap(n Node) Node {
	for {
		w, ok := n.(Wrapped)
		if !ok {
			return n
		}
		n = w.Unwrap()
	}
}

// Synthetic marks physical operators materialized after optimization —
// exchanges, partition sources, partial-aggregation stages inserted by the
// parallel rewrite. They have no counterpart in the optimized plan, so the
// trace layer skips them when computing stable operator path ids: a
// synthetic node passes its position in the optimized tree through to its
// (single) input unchanged.
type Synthetic interface {
	SyntheticNode()
}

// Unstable marks a node whose attributes can change after construction: the
// Volcano planner's equivalence-set reference, renumbered when sets merge.
type Unstable interface {
	UnstableDigest()
}

// Digest returns the canonical digest of the subtree rooted at n. Two nodes
// with equal digests produce the same multiset of rows.
func Digest(n Node) string {
	return NewDigests().Digest(n)
}

// Digests is one planning session's memo of node digests. A node's own part
// (operator, convention, attributes) is rendered once; its digest is built
// from that and its inputs' digests, its id — equal ids, equal digests —
// interns that part with its inputs' ids, so a new node over known inputs
// costs its own attributes, not its subtree. Entries are keyed by the node
// interface value: a physical wrapper and the node it embeds never share one.
// Nothing over an Unstable node is stored. Not safe for concurrent use.
type Digests struct {
	nodes map[Node]nodeDigest
	ids   map[string]int32
	exprs map[rex.Node]string
}

// nodeDigest is one node's entry; volatile: its subtree holds an Unstable.
type nodeDigest struct {
	attrs, self, digest string
	id                  int32
	hasID, volatile     bool
}

// NewDigests returns an empty memo.
func NewDigests() *Digests {
	return &Digests{nodes: map[Node]nodeDigest{}, ids: map[string]int32{}, exprs: map[rex.Node]string{}}
}

// Expr returns e.String(), memoized by expression identity.
func (d *Digests) Expr(e rex.Node) string {
	s, ok := d.exprs[e]
	if !ok {
		s = e.String()
		d.exprs[e] = s
	}
	return s
}

// Attrs returns n.Attrs(), rendering a filter's condition through Expr: the
// digest and the metadata keys naming it share one rendering.
func (d *Digests) Attrs(n Node) string { return d.entry(n).attrs }

// Volatile reports whether n's subtree holds an Unstable node.
func (d *Digests) Volatile(n Node) bool { return d.entry(n).volatile }

func (d *Digests) entry(n Node) nodeDigest {
	e, ok := d.nodes[n]
	if ok {
		return e
	}
	if f, ok := n.(*Filter); ok {
		e.attrs = filterAttrs(d.Expr(f.Condition))
	} else {
		e.attrs = n.Attrs()
	}
	e.self = selfDigest(n, e.attrs)
	_, unstable := n.(Unstable)
	e.volatile = unstable
	for _, in := range n.Inputs() {
		e.volatile = e.volatile || d.entry(in).volatile
	}
	if !unstable {
		d.nodes[n] = e
	}
	return e
}

// Digest returns Digest(n).
func (d *Digests) Digest(n Node) string {
	e := d.entry(n)
	if e.digest != "" {
		return e.digest
	}
	s := e.self
	if inputs := n.Inputs(); len(inputs) > 0 {
		parts := make([]string, len(inputs))
		for i, in := range inputs {
			parts[i] = d.Digest(in)
		}
		s += "(" + strings.Join(parts, ",") + ")"
	}
	if !e.volatile {
		e.digest = s
		d.nodes[n] = e
	}
	return s
}

// ID returns n's interned id.
func (d *Digests) ID(n Node) int32 {
	e := d.entry(n)
	if e.hasID {
		return e.id
	}
	key := append(binary.AppendUvarint(nil, uint64(len(e.self))), e.self...)
	for _, in := range n.Inputs() {
		key = binary.LittleEndian.AppendUint32(key, uint32(d.ID(in)))
	}
	id, ok := d.ids[string(key)]
	if !ok {
		id = int32(len(d.ids))
		d.ids[string(key)] = id
	}
	if !e.volatile {
		e.id, e.hasID = id, true
		d.nodes[n] = e
	}
	return id
}

// selfDigest is the part of n's digest that is n's own: operator, a
// non-logical convention, attributes.
func selfDigest(n Node, attrs string) string {
	s := n.Op()
	if conv := n.Traits().Convention; conv != nil && !trait.SameConvention(conv, trait.Logical) {
		s += "." + conv.ConventionName()
	}
	if attrs != "" {
		s += "{" + attrs + "}"
	}
	return s
}

// Explain renders the subtree as an indented multi-line plan, the format
// used by EXPLAIN and by the paper-figure reproductions.
func Explain(n Node) string {
	return ExplainAnnotated(n, nil)
}

// ExplainAnnotated renders the subtree like Explain, appending the result of
// annotate (when non-nil and non-empty) to each node's line. The connection
// layer uses it to surface the optimizer's estimated row counts and costs in
// EXPLAIN output.
func ExplainAnnotated(n Node, annotate func(Node) string) string {
	var b strings.Builder
	explain(n, 0, &b, annotate)
	return b.String()
}

func explain(n Node, depth int, b *strings.Builder, annotate func(Node) string) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op())
	var parts []string
	if a := n.Attrs(); a != "" {
		parts = append(parts, a)
	}
	conv := n.Traits().Convention
	if conv != nil && !trait.SameConvention(conv, trait.Logical) {
		parts = append(parts, "convention="+conv.ConventionName())
	}
	if len(parts) > 0 {
		b.WriteString("(" + strings.Join(parts, ", ") + ")")
	}
	if annotate != nil {
		if extra := annotate(n); extra != "" {
			b.WriteString(": ")
			b.WriteString(extra)
		}
	}
	b.WriteByte('\n')
	for _, in := range n.Inputs() {
		explain(in, depth+1, b, annotate)
	}
}

// Walk visits n and all descendants pre-order; visit returns false to prune.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, in := range n.Inputs() {
		Walk(in, visit)
	}
}

// WalkPaths visits the plan rooted at root pre-order, with each node's parent
// and its stable path id: "0" for the root, parent+"."+inputIndex below. A
// Synthetic node has the empty path: it passes the position of the operator
// it stands in front of through to its first input, so a path computed on
// the optimized plan names the same operator in the prepared (parallelized)
// plan. A synthetic node's other inputs, and everything below them, get the
// empty path too.
func WalkPaths(root Node, visit func(n, parent Node, path string)) {
	var walk func(n, parent Node, path string)
	walk = func(n, parent Node, path string) {
		_, synthetic := n.(Synthetic)
		own := path
		if synthetic {
			own = ""
		}
		visit(n, parent, own)
		for i, in := range n.Inputs() {
			p := ""
			if synthetic && i == 0 {
				p = path
			} else if own != "" {
				p = own + "." + strconv.Itoa(i)
			}
			walk(in, n, p)
		}
	}
	walk(root, nil, "0")
}

// ScannedTables returns the distinct tables the plan rooted at n scans, in
// whatever convention (physical leaves are unwrapped to their logical
// prototype: a scan, or the filtered scan an index lookup stands for) — the
// index table-keyed plan invalidation is built on.
func ScannedTables(n Node) []schema.Table {
	var out []schema.Table
	Walk(n, func(n Node) bool {
		if len(n.Inputs()) > 0 {
			return true
		}
		Walk(Unwrap(n), func(u Node) bool {
			if scan, ok := u.(*TableScan); ok && !slices.Contains(out, scan.Table) {
				out = append(out, scan.Table)
			}
			return true
		})
		return true
	})
	return out
}

// Count returns the number of nodes in the subtree.
func Count(n Node) int {
	c := 0
	Walk(n, func(Node) bool { c++; return true })
	return c
}

// TransformUp rewrites the tree bottom-up: fn is applied to each node after
// its children have been rewritten.
func TransformUp(n Node, fn func(Node) Node) Node {
	inputs := n.Inputs()
	if len(inputs) > 0 {
		newInputs := make([]Node, len(inputs))
		changed := false
		for i, in := range inputs {
			newInputs[i] = TransformUp(in, fn)
			if newInputs[i] != in {
				changed = true
			}
		}
		if changed {
			n = n.WithNewInputs(newInputs)
		}
	}
	return fn(n)
}

// FieldCount returns the number of output fields of n.
func FieldCount(n Node) int {
	if j, ok := n.(*Join); ok && j.Kind.ProjectsRight() { // without building the row type
		return FieldCount(j.Left()) + FieldCount(j.Right())
	}
	return len(n.RowType().Fields)
}

// base carries the pieces every operator shares.
type base struct {
	op      string
	inputs  []Node
	rowType *types.Type
	traits  trait.Set
}

func newBase(op string, traits trait.Set, rowType *types.Type, inputs ...Node) base {
	return base{op: op, inputs: inputs, rowType: rowType, traits: traits}
}

func (b *base) Op() string           { return b.op }
func (b *base) Inputs() []Node       { return b.inputs }
func (b *base) RowType() *types.Type { return b.rowType }
func (b *base) Traits() trait.Set    { return b.traits }

func checkInputs(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("rel: %s requires %d inputs, got %d", op, want, got))
	}
}
