package exec

import (
	"slices"

	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// IndexScan is the index access path: the rows of an indexed table whose
// column Col equals Key, a literal or a parameter, read through the table's
// index. It is a leaf but not a Scan, so the parallel rewrite leaves it serial
// with no exchange above it.
type IndexScan struct {
	*rel.TableScan
	Col int
	Key rex.Node
	// proto, the filter =($Col, Key) over the logical scan, is the logical
	// equivalent (Unwrap).
	proto *rel.Filter
}

// NewIndexScan creates the lookup of key on column col of scan's table.
func NewIndexScan(scan *rel.TableScan, col int, key rex.Node) *IndexScan {
	cond := rex.NewCall(rex.OpEquals, rex.NewInputRef(col, scan.RowType().Fields[col].Type), key)
	return &IndexScan{TableScan: rel.NewTableScan(trait.Enumerable, scan.Table, scan.QualifiedName),
		Col: col, Key: key, proto: rel.NewFilter(scan, cond)}
}

func (s *IndexScan) Op() string { return "EnumerableIndexScan" }
func (s *IndexScan) Attrs() string {
	return s.TableScan.Attrs() + ", key=[" + s.proto.Condition.String() + "]"
}
func (s *IndexScan) WithNewInputs([]rel.Node) rel.Node { return s }
func (s *IndexScan) Unwrap() rel.Node                  { return s.proto }

// BindBatch looks the bound key up. A key the canonical encoding does not
// compare with the column's type (a string for a BIGINT), or a column whose
// index newer statistics dropped, filters a scan instead: the lookup never
// answers otherwise than the filter it replaced.
func (s *IndexScan) BindBatch(ctx *Context) (schema.BatchCursor, error) {
	key, err := ctx.bindParams(s.Key)
	if err != nil {
		return nil, err
	}
	t := s.Table.(schema.IndexedTable)
	if v := key.(*rex.Literal).Value; (v == nil || indexable(s.RowType().Fields[s.Col].Type, v)) && t.Indexed(s.Col) {
		return t.Lookup(s.Col, v)
	}
	return NewFilter(NewScan(t, s.QualifiedName), s.proto.Condition).BindBatch(ctx)
}

// indexable reports whether a key compares with a column of type t as its
// canonical encoding does: a number with a number, a string with a string.
func indexable(t *types.Type, v any) bool {
	switch v.(type) {
	case int64, float64:
		return t.Kind.IsNumeric()
	case string:
		return t.Kind.IsCharacter()
	}
	return false
}

// IndexScanRule turns a logical filter over a scan of an indexed table into
// one lookup per conjunct $c = literal | ? on an indexed column, the other
// conjuncts left as a residual filter. Volcano keeps scan + filter as well and
// picks by cost (MetadataProvider).
func IndexScanRule() plan.Rule {
	isScan := logicalOp[*rel.TableScan]().Match
	return &plan.FuncRule{
		Name: "EnumerableIndexScanRule",
		Op: plan.MatchNode(logicalOp[*rel.Filter]().Match, plan.MatchNode(func(n rel.Node) bool {
			if !isScan(n) {
				return false
			}
			_, ok := n.(*rel.TableScan).Table.(schema.IndexedTable)
			return ok
		})),
		Fire: func(call *plan.Call) {
			scan := call.Rel(1).(*rel.TableScan)
			terms := rex.Conjuncts(call.Rel(0).(*rel.Filter).Condition)
			for i, term := range terms {
				if col, key, ok := indexKey(scan, term); ok {
					var n rel.Node = NewIndexScan(scan, col, key)
					if rest := slices.Delete(slices.Clone(terms), i, i+1); len(rest) > 0 {
						n = NewFilter(n, rex.And(rest...))
					}
					call.Transform(n)
				}
			}
		},
	}
}

// indexKey decomposes term as $c = key, either way round, where column c is
// indexed and key is a parameter or a non-NULL literal the column's encoding
// compares with.
func indexKey(scan *rel.TableScan, term rex.Node) (int, rex.Node, bool) {
	c, ok := term.(*rex.Call)
	if !ok || c.Op != rex.OpEquals || len(c.Operands) != 2 {
		return 0, nil, false
	}
	for i, x := range c.Operands {
		ref, isRef := x.(*rex.InputRef)
		key := c.Operands[1-i]
		lit, isLit := key.(*rex.Literal)
		_, isParam := key.(*rex.DynamicParam)
		if isRef && scan.Table.(schema.IndexedTable).Indexed(ref.Index) &&
			(isParam || isLit && lit.Value != nil && indexable(ref.T, lit.Value)) {
			return ref.Index, key, true
		}
	}
	return 0, nil, false
}
