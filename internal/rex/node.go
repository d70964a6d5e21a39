// Package rex implements row expressions: the scalar expression trees that
// appear inside relational operators (filter conditions, projections, join
// predicates, window specifications). It corresponds to Calcite's RexNode
// layer and includes the operator table, an interpreter, and an algebraic
// simplifier used by the reduce-expressions planner rules.
package rex

import (
	"fmt"
	"strconv"
	"strings"

	"calcite/internal/types"
)

// Node is a row expression. Implementations are immutable.
type Node interface {
	// Type returns the static type of the expression.
	Type() *types.Type
	// String returns the canonical digest of the expression, used for plan
	// digests and equivalence detection in the planner.
	String() string
}

// InputRef references a column of the input row by ordinal, printed as "$n".
type InputRef struct {
	Index int
	T     *types.Type
}

// NewInputRef returns a reference to input field index with the given type.
func NewInputRef(index int, t *types.Type) *InputRef {
	return &InputRef{Index: index, T: t}
}

func (r *InputRef) Type() *types.Type { return r.T }
func (r *InputRef) String() string    { return string(AppendDigest(nil, r)) }

// Literal is a constant value.
type Literal struct {
	Value any
	T     *types.Type
}

// NewLiteral returns a literal of the given type.
func NewLiteral(v any, t *types.Type) *Literal { return &Literal{Value: v, T: t} }

// Bool, Int, Float, Str, Null are literal shorthands.
func Bool(b bool) *Literal     { return NewLiteral(b, types.Boolean) }
func Int(i int64) *Literal     { return NewLiteral(i, types.BigInt) }
func Float(f float64) *Literal { return NewLiteral(f, types.Double) }
func Str(s string) *Literal    { return NewLiteral(s, types.Varchar) }
func Null() *Literal           { return NewLiteral(nil, types.Null) }
func Timestamp(ms int64) *Literal {
	return NewLiteral(ms, types.Timestamp)
}

func (l *Literal) Type() *types.Type { return l.T }
func (l *Literal) String() string {
	if l.Value == nil {
		return "NULL"
	}
	if s, ok := l.Value.(string); ok {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return types.FormatValue(l.Value)
}

// Call applies an operator to operands.
type Call struct {
	Op       *Operator
	Operands []Node
	T        *types.Type
}

// NewCall builds a call whose type is inferred by the operator; use
// NewCallTyped to override (e.g. CAST).
func NewCall(op *Operator, operands ...Node) *Call {
	t := types.Any
	if op.infer != nil {
		t = op.infer(operands)
	}
	return &Call{Op: op, Operands: operands, T: t}
}

// NewCallTyped builds a call with an explicit result type.
func NewCallTyped(op *Operator, t *types.Type, operands ...Node) *Call {
	return &Call{Op: op, Operands: operands, T: t}
}

func (c *Call) Type() *types.Type { return c.T }

func (c *Call) String() string { return string(AppendDigest(nil, c)) }

// AppendDigest appends n.String() to dst. It renders references, parameters
// and calls without fmt or intermediate strings, so a caller that only
// hashes or compares the text can render into a reused buffer.
func AppendDigest(dst []byte, n Node) []byte {
	switch x := n.(type) {
	case *InputRef:
		return strconv.AppendInt(append(dst, '$'), int64(x.Index), 10)
	case *DynamicParam:
		return strconv.AppendInt(append(dst, '?'), int64(x.Index), 10)
	case *Call:
		if x.Op == OpCast {
			dst = AppendDigest(append(dst, "CAST("...), x.Operands[0])
			return append(append(append(dst, " AS "...), x.T.String()...), ')')
		}
		dst = append(append(dst, x.Op.Name...), '(')
		for i, o := range x.Operands {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendDigest(dst, o)
		}
		return append(dst, ')')
	}
	return append(dst, n.String()...)
}

// DynamicParam is a prepared-statement placeholder ("?"), printed as "?n".
type DynamicParam struct {
	Index int
	T     *types.Type
}

func (p *DynamicParam) Type() *types.Type { return p.T }
func (p *DynamicParam) String() string    { return string(AppendDigest(nil, p)) }

// BindParams returns n with every DynamicParam replaced by a Literal carrying
// the bound value, normalized into the runtime value set (types.Normalize);
// n itself is not modified, so a cached plan stays shareable across
// executions. Kernel matching, compilation and the adapters' query renderers
// all run on the result and never see a placeholder.
func BindParams(n Node, params []any) (Node, error) {
	var err error
	bound := Transform(n, func(x Node) Node {
		p, ok := x.(*DynamicParam)
		if !ok {
			return x
		}
		if p.Index >= len(params) {
			err = fmt.Errorf("rex: unbound parameter ?%d", p.Index)
			return x
		}
		return NewLiteral(types.Normalize(params[p.Index]), p.T)
	})
	return bound, err
}

// Walk visits n and every sub-expression in pre-order; the visit function
// returns false to prune descent.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	if c, ok := n.(*Call); ok {
		for _, o := range c.Operands {
			Walk(o, visit)
		}
	}
}

// InputBitmap returns the set of input ordinals referenced by n.
func InputBitmap(n Node) map[int]bool {
	refs := map[int]bool{}
	Walk(n, func(x Node) bool {
		if r, ok := x.(*InputRef); ok {
			refs[r.Index] = true
		}
		return true
	})
	return refs
}

// MaxInputRef returns the highest input ordinal referenced, or -1.
func MaxInputRef(n Node) int {
	max := -1
	Walk(n, func(x Node) bool {
		if r, ok := x.(*InputRef); ok && r.Index > max {
			max = r.Index
		}
		return true
	})
	return max
}

// Shift returns a copy of n with every input reference shifted by delta.
func Shift(n Node, delta int) Node {
	return Transform(n, func(x Node) Node {
		if r, ok := x.(*InputRef); ok {
			return NewInputRef(r.Index+delta, r.T)
		}
		return x
	})
}

// Remap returns a copy of n with input references rewritten through mapping;
// references absent from the mapping are preserved.
func Remap(n Node, mapping map[int]int) Node {
	return Transform(n, func(x Node) Node {
		if r, ok := x.(*InputRef); ok {
			if to, ok := mapping[r.Index]; ok {
				return NewInputRef(to, r.T)
			}
		}
		return x
	})
}

// Transform rewrites an expression bottom-up. fn receives each node after
// its operands were rewritten and returns the replacement.
func Transform(n Node, fn func(Node) Node) Node {
	if c, ok := n.(*Call); ok {
		ops := make([]Node, len(c.Operands))
		changed := false
		for i, o := range c.Operands {
			ops[i] = Transform(o, fn)
			if ops[i] != o {
				changed = true
			}
		}
		if changed {
			n = &Call{Op: c.Op, Operands: ops, T: c.T}
		}
	}
	return fn(n)
}

// Substitute replaces input references using exprs: reference $i becomes
// exprs[i]. Used when merging projections.
func Substitute(n Node, exprs []Node) Node {
	return Transform(n, func(x Node) Node {
		if r, ok := x.(*InputRef); ok && r.Index < len(exprs) {
			return exprs[r.Index]
		}
		return x
	})
}

// Conjuncts flattens a boolean expression into its top-level AND terms.
func Conjuncts(n Node) []Node { return AppendConjuncts(nil, n) }

// AppendConjuncts appends n's top-level AND terms to dst, so a caller that
// only reads them can collect them in a stack buffer.
func AppendConjuncts(dst []Node, n Node) []Node {
	if n == nil {
		return dst
	}
	if c, ok := n.(*Call); ok && c.Op == OpAnd {
		for _, o := range c.Operands {
			dst = AppendConjuncts(dst, o)
		}
		return dst
	}
	if l, ok := n.(*Literal); ok {
		if b, ok := l.Value.(bool); ok && b {
			return dst // TRUE contributes nothing
		}
	}
	return append(dst, n)
}

// And builds the conjunction of the given terms (TRUE for none, the sole
// term for one).
func And(terms ...Node) Node {
	var buf [8]Node
	flat := buf[:0]
	for _, t := range terms {
		flat = AppendConjuncts(flat, t)
	}
	switch len(flat) {
	case 0:
		return Bool(true)
	case 1:
		return flat[0]
	}
	return NewCall(OpAnd, append([]Node(nil), flat...)...)
}

// Or builds the disjunction of the given terms.
func Or(terms ...Node) Node {
	switch len(terms) {
	case 0:
		return Bool(false)
	case 1:
		return terms[0]
	}
	return NewCall(OpOr, terms...)
}

// Eq builds an equality comparison.
func Eq(a, b Node) Node { return NewCall(OpEquals, a, b) }

// IsAlwaysTrue reports whether n is the literal TRUE.
func IsAlwaysTrue(n Node) bool {
	l, ok := n.(*Literal)
	if !ok {
		return false
	}
	b, ok := l.Value.(bool)
	return ok && b
}

// IsAlwaysFalse reports whether n is the literal FALSE.
func IsAlwaysFalse(n Node) bool {
	l, ok := n.(*Literal)
	if !ok {
		return false
	}
	b, ok := l.Value.(bool)
	return ok && !b
}

// IsConstant reports whether n contains no input references or parameters.
func IsConstant(n Node) bool {
	ok := true
	Walk(n, func(x Node) bool {
		switch x.(type) {
		case *InputRef, *DynamicParam:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// IsIdentityProjection reports whether exprs is exactly $0..$n-1 over an
// input with n fields.
func IsIdentityProjection(exprs []Node, inputFieldCount int) bool {
	if len(exprs) != inputFieldCount {
		return false
	}
	for i, e := range exprs {
		r, ok := e.(*InputRef)
		if !ok || r.Index != i {
			return false
		}
	}
	return true
}
