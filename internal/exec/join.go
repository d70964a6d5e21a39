package exec

import (
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// JoinInfo splits a join condition into equi-join key pairs and a residual
// non-equi condition. Keys are expressed as (left ordinal, right ordinal)
// pairs relative to each side's row.
type JoinInfo struct {
	LeftKeys  []int
	RightKeys []int
	Residual  rex.Node // nil when fully equi
}

// AnalyzeJoin extracts equi-join keys from a condition given the width of
// the left input.
func AnalyzeJoin(condition rex.Node, leftWidth int) JoinInfo {
	var info JoinInfo
	var residual []rex.Node
	for _, term := range rex.Conjuncts(condition) {
		c, ok := term.(*rex.Call)
		if !ok || c.Op != rex.OpEquals {
			residual = append(residual, term)
			continue
		}
		l, lok := c.Operands[0].(*rex.InputRef)
		r, rok := c.Operands[1].(*rex.InputRef)
		if !lok || !rok {
			residual = append(residual, term)
			continue
		}
		switch {
		case l.Index < leftWidth && r.Index >= leftWidth:
			info.LeftKeys = append(info.LeftKeys, l.Index)
			info.RightKeys = append(info.RightKeys, r.Index-leftWidth)
		case r.Index < leftWidth && l.Index >= leftWidth:
			info.LeftKeys = append(info.LeftKeys, r.Index)
			info.RightKeys = append(info.RightKeys, l.Index-leftWidth)
		default:
			residual = append(residual, term)
		}
	}
	if len(residual) > 0 {
		info.Residual = rex.And(residual...)
	}
	return info
}

// HashJoin is the enumerable equi-join: it collects the right ("build")
// input into a hash table and probes it with left rows — the paper's
// EnumerableJoin, which "implements joins by collecting rows from its child
// nodes and joining on the desired attributes" (§5).
type HashJoin struct {
	*rel.Join
	Info JoinInfo
}

// NewHashJoin creates a hash join; the condition must contain at least one
// equi-key pair (callers should check AnalyzeJoin first).
func NewHashJoin(kind rel.JoinKind, left, right rel.Node, condition rex.Node) *HashJoin {
	j := rel.NewJoinTraits("EnumerableHashJoin", enumerableTraits(), kind, left, right, condition)
	return &HashJoin{Join: j, Info: AnalyzeJoin(condition, rel.FieldCount(left))}
}

func (j *HashJoin) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewHashJoin(j.Kind, inputs[0], inputs[1], j.Condition)
}

func (j *HashJoin) Unwrap() rel.Node {
	return rel.NewJoin(j.Kind, j.Left(), j.Right(), j.Condition)
}

// NestedLoopJoin is the enumerable general-condition join.
type NestedLoopJoin struct {
	*rel.Join
}

// NewNestedLoopJoin creates a nested-loop join for arbitrary conditions.
func NewNestedLoopJoin(kind rel.JoinKind, left, right rel.Node, condition rex.Node) *NestedLoopJoin {
	j := rel.NewJoinTraits("EnumerableNestedLoopJoin", enumerableTraits(), kind, left, right, condition)
	return &NestedLoopJoin{Join: j}
}

func (j *NestedLoopJoin) WithNewInputs(inputs []rel.Node) rel.Node {
	return NewNestedLoopJoin(j.Kind, inputs[0], inputs[1], j.Condition)
}

func (j *NestedLoopJoin) Unwrap() rel.Node {
	return rel.NewJoin(j.Kind, j.Left(), j.Right(), j.Condition)
}

// Bind materializes both inputs and tests the condition on every pair of
// rows, padding or filtering by the join kind.
func (j *NestedLoopJoin) Bind(ctx *Context) (schema.Cursor, error) {
	leftCur, err := BindNode(ctx, j.Left())
	if err != nil {
		return nil, err
	}
	leftRows, err := drain(leftCur)
	if err != nil {
		return nil, err
	}
	rightCur, err := BindNode(ctx, j.Right())
	if err != nil {
		return nil, err
	}
	rightRows, err := drain(rightCur)
	if err != nil {
		return nil, err
	}

	leftWidth := rel.FieldCount(j.Left())
	rightWidth := rel.FieldCount(j.Right())
	concat := func(l, r []any) []any {
		out := make([]any, 0, leftWidth+rightWidth)
		out = append(out, l...)
		out = append(out, r...)
		return out
	}
	nullRight := make([]any, rightWidth)
	nullLeft := make([]any, leftWidth)

	var out [][]any
	rightMatched := make([]bool, len(rightRows))
	for _, lrow := range leftRows {
		matched := false
		for ri, rrow := range rightRows {
			if j.Condition != nil {
				ok, err := ctx.Evaluator.EvalBool(j.Condition, concat(lrow, rrow))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			rightMatched[ri] = true
			if j.Kind == rel.SemiJoin || j.Kind == rel.AntiJoin {
				break // one match decides; the left row is emitted below
			}
			out = append(out, concat(lrow, rrow))
		}
		switch j.Kind {
		case rel.SemiJoin:
			if matched {
				out = append(out, append([]any(nil), lrow...))
			}
		case rel.AntiJoin:
			if !matched {
				out = append(out, append([]any(nil), lrow...))
			}
		case rel.LeftJoin, rel.FullJoin:
			if !matched {
				out = append(out, concat(lrow, nullRight))
			}
		}
	}
	if j.Kind == rel.RightJoin || j.Kind == rel.FullJoin {
		for ri, rrow := range rightRows {
			if !rightMatched[ri] {
				out = append(out, concat(nullLeft, rrow))
			}
		}
	}
	return schema.NewSliceCursor(out), nil
}
