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

// NestedLoopJoin is the enumerable general-condition join: the join the
// planner costs as comparing every pair of rows. It executes on the hash
// join's kernel — equi conjuncts of its condition, if any, are hashed and
// the rest is the compiled residual over candidate pairs.
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

// BindBatch runs the join on the join kernel (bindJoin). Without an equi
// conjunct every build row is a candidate; such a build cannot be split into
// Grace partitions, so past a denied grant it finishes in memory.
func (j *NestedLoopJoin) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	return bindJoin(ctx, j.Join, AnalyzeJoin(j.Condition, rel.FieldCount(j.Left())), "NestedLoopJoin", nil)
}
