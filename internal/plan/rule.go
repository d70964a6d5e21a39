// Package plan implements the planner engines of §6 of the paper. Two
// engines are provided, mirroring Calcite:
//
//   - VolcanoPlanner: a cost-based engine using dynamic programming in the
//     style of the Volcano optimizer generator. Expressions are registered
//     with a digest; equivalent expressions are grouped into equivalence
//     sets; rules fire until a configurable fix point — either exhaustively
//     or until the best cost stops improving by more than a threshold δ.
//
//   - HepPlanner: an exhaustive rule-driven engine that applies rules until
//     the expression no longer changes, without considering cost. Rules can
//     be organized into consecutive phases (multi-stage optimization).
//
// Both engines share the Rule / Operand / Call abstractions.
package plan

import (
	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/trait"
)

// Rule is a planner rule: it matches a pattern in the operator tree and
// registers an equivalent (usually cheaper) expression. Rules must preserve
// semantics (§6: "a rule matches a given pattern in the tree and executes a
// transformation that preserves semantics of that expression").
type Rule interface {
	// RuleName returns a unique, human-readable name, e.g.
	// "FilterIntoJoinRule".
	RuleName() string
	// Operand returns the root of the pattern this rule matches.
	Operand() *Operand
	// OnMatch fires the rule for one binding. Implementations call
	// call.Transform with zero or more equivalent expressions.
	OnMatch(call *Call)
}

// FuncRule adapts a function to the Rule interface.
type FuncRule struct {
	Name string
	Op   *Operand
	Fire func(call *Call)
}

func (r *FuncRule) RuleName() string  { return r.Name }
func (r *FuncRule) Operand() *Operand { return r.Op }
func (r *FuncRule) OnMatch(call *Call) {
	r.Fire(call)
}

// Operand is a node pattern: a predicate on a relational expression plus
// patterns for its inputs. A nil Children slice matches any inputs; an empty
// non-nil slice requires a leaf.
type Operand struct {
	// Match tests whether the pattern applies to a node.
	Match func(rel.Node) bool
	// Children are patterns for the node's inputs, matched positionally.
	// nil means "any inputs".
	Children []*Operand
	// anyChildren distinguishes nil-initialized from explicitly empty.
	anyChildren bool
}

// MatchNode builds an operand matching nodes satisfying pred, with child
// patterns. Passing no children means "any inputs"; use Leaf for "no inputs".
func MatchNode(pred func(rel.Node) bool, children ...*Operand) *Operand {
	if len(children) == 0 {
		return &Operand{Match: pred, anyChildren: true}
	}
	return &Operand{Match: pred, Children: children}
}

// MatchType builds an operand matching nodes of dynamic type T.
func MatchType[T rel.Node](children ...*Operand) *Operand {
	return MatchNode(func(n rel.Node) bool {
		_, ok := n.(T)
		return ok
	}, children...)
}

// AnyNode matches any node, any inputs.
func AnyNode() *Operand { return MatchNode(func(rel.Node) bool { return true }) }

// Call is the context passed to a firing rule: the matched nodes (pre-order
// over the operand pattern), the metadata session, and the transform sink.
type Call struct {
	// Rels holds the bound nodes: Rels[0] is the pattern root.
	Rels []rel.Node
	// Meta is the planning session's metadata query interface (§6:
	// metadata "provid[es] information to the rules while they are being
	// applied").
	Meta *meta.Query

	planner transformSink
}

// Rel returns the i-th bound node (0 = pattern root).
func (c *Call) Rel(i int) rel.Node { return c.Rels[i] }

// Transform registers an expression equivalent to the matched root.
func (c *Call) Transform(n rel.Node) {
	if c.planner != nil {
		c.planner.transform(c, n)
	}
}

// Convert returns a placeholder requiring `input` in convention conv. In the
// Volcano planner this is a reference to input's equivalence set restricted
// to the convention (the analogue of Calcite's RelSubset); in the Hep
// planner, which has no equivalence sets, it returns input unchanged.
func (c *Call) Convert(input rel.Node, conv trait.Convention) rel.Node {
	if c.planner == nil {
		return input
	}
	return c.planner.convert(input, conv)
}

// transformSink abstracts the planner receiving rule output.
type transformSink interface {
	transform(c *Call, n rel.Node)
	convert(input rel.Node, conv trait.Convention) rel.Node
}

// matchConcrete matches an operand pattern against a concrete tree (used by
// the Hep planner): children are matched against the node's actual inputs.
// Returns the pre-order binding, or nil.
func matchConcrete(o *Operand, n rel.Node) []rel.Node {
	if o.Match != nil && !o.Match(n) {
		return nil
	}
	binding := []rel.Node{n}
	if o.anyChildren || o.Children == nil {
		return binding
	}
	inputs := n.Inputs()
	if len(o.Children) != len(inputs) {
		return nil
	}
	for i, co := range o.Children {
		sub := matchConcrete(co, inputs[i])
		if sub == nil {
			return nil
		}
		binding = append(binding, sub...)
	}
	return binding
}
