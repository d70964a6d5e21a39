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
	"fmt"
	"slices"
	"strings"

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

// Synthetic marks physical operators materialized after optimization —
// exchanges, partition sources, partial-aggregation stages inserted by the
// parallel rewrite. They have no counterpart in the optimized plan, so the
// trace layer skips them when computing stable operator path ids: a
// synthetic node passes its position in the optimized tree through to its
// (single) input unchanged.
type Synthetic interface {
	SyntheticNode()
}

// Digest returns the canonical digest of the subtree rooted at n. Two nodes
// with equal digests produce the same multiset of rows.
func Digest(n Node) string {
	var b strings.Builder
	writeDigest(n, &b)
	return b.String()
}

func writeDigest(n Node, b *strings.Builder) {
	b.WriteString(n.Op())
	conv := n.Traits().Convention
	if conv != nil && !trait.SameConvention(conv, trait.Logical) {
		b.WriteByte('.')
		b.WriteString(conv.ConventionName())
	}
	if a := n.Attrs(); a != "" {
		b.WriteByte('{')
		b.WriteString(a)
		b.WriteByte('}')
	}
	inputs := n.Inputs()
	if len(inputs) > 0 {
		b.WriteByte('(')
		for i, in := range inputs {
			if i > 0 {
				b.WriteByte(',')
			}
			writeDigest(in, b)
		}
		b.WriteByte(')')
	}
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

// ScannedTables returns the distinct tables the plan rooted at n scans, in
// whatever convention (physical scans are unwrapped to their logical
// prototype) — the index table-keyed plan invalidation is built on.
func ScannedTables(n Node) []schema.Table {
	var out []schema.Table
	Walk(n, func(n Node) bool {
		if len(n.Inputs()) > 0 {
			return true
		}
		for {
			w, ok := n.(Wrapped)
			if !ok {
				break
			}
			n = w.Unwrap()
		}
		if scan, ok := n.(*TableScan); ok && !slices.Contains(out, scan.Table) {
			out = append(out, scan.Table)
		}
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
func FieldCount(n Node) int { return len(n.RowType().Fields) }

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
