package exec

import (
	"calcite/internal/rel"
	"calcite/internal/rex"
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

// HashJoin is the enumerable join: it collects the right ("build") input
// into a hash table on the equi keys of its condition and probes it with
// left rows — the paper's EnumerableJoin, which "implements joins by
// collecting rows from its child nodes and joining on the desired
// attributes" (§5). A condition without equi keys makes every build row a
// candidate of every probe row; the rest of the condition is the compiled
// residual over candidate pairs.
type HashJoin struct {
	*rel.Join
	Info JoinInfo
}

// NewHashJoin creates a hash join for an arbitrary condition, split into
// equi keys and residual by AnalyzeJoin.
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
