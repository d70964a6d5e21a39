package mv

import (
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// Lattice declares that a fact table (with optional dimension joins
// pre-denormalized) forms a star schema whose aggregations are organized in
// a lattice of tiles (§6, after [22] "Implementing Data Cubes Efficiently").
// Each tile is a materialization of the fact table grouped by a subset of
// dimension columns; incoming aggregate queries are answered from the
// smallest covering tile. The lattice approach "is especially efficient in
// matching expressions over data sources organized in a star schema" but
// "more restrictive than view substitution".
type Lattice struct {
	// Name labels the lattice.
	Name string
	// Fact is the fact table all tiles summarize.
	Fact schema.Table
	// FactName is the qualified name used for scans of the fact table.
	FactName []string
	// Tiles, from coarsest to finest; Rule picks the first (i.e. smallest)
	// covering tile.
	Tiles []*Tile
}

// Tile is one materialization of the lattice: the fact table grouped by
// Dims with Measures computed.
type Tile struct {
	// Dims are the fact-table column ordinals the tile groups by.
	Dims []int
	// Measures are the aggregate calls materialized (args are fact-table
	// ordinals).
	Measures []rex.AggCall
	// Table stores the tile rows: [dims..., measures...].
	Table schema.Table
	// Name is the tile's table name.
	Name string
	// Bases are the row counts the tile was computed from.
	Bases Snapshot
}

// covers reports whether the tile's dimensions include all of dims, and
// returns the mapping dim ordinal -> tile output position.
func (t *Tile) covers(dims []int) (map[int]int, bool) {
	pos := map[int]int{}
	for i, d := range t.Dims {
		pos[d] = i
	}
	for _, d := range dims {
		if _, ok := pos[d]; !ok {
			return nil, false
		}
	}
	return pos, true
}

// Rule returns the planner rule that answers Aggregate(Scan(fact)) queries
// from tiles.
func (l *Lattice) Rule() plan.Rule {
	return &plan.FuncRule{
		Name: "LatticeTileRule(" + l.Name + ")",
		Op: plan.MatchNode(func(n rel.Node) bool {
			a, ok := n.(*rel.Aggregate)
			return ok && trait.SameConvention(a.Traits().Convention, trait.Logical)
		}),
		Fire: func(call *plan.Call) {
			agg := call.Rel(0).(*rel.Aggregate)
			scan, ok := agg.Inputs()[0].(*rel.TableScan)
			if !ok || scan.Table != l.Fact {
				return
			}
			for _, tile := range l.Tiles {
				if !tile.Bases.Fresh() {
					continue
				}
				if rewritten := l.rewriteWithTile(agg, tile); rewritten != nil {
					call.Transform(rewritten)
					return
				}
			}
		},
	}
}

// rewriteWithTile answers agg from tile when the tile's dimensions cover the
// query's group keys and every measure is derivable.
func (l *Lattice) rewriteWithTile(agg *rel.Aggregate, tile *Tile) rel.Node {
	dimPos, ok := tile.covers(agg.GroupKeys)
	if !ok {
		return nil
	}
	measurePos := func(c rex.AggCall) int {
		for i, m := range tile.Measures {
			if m.Func == c.Func && m.Distinct == c.Distinct && sameInts(m.Args, c.Args) {
				return len(tile.Dims) + i
			}
		}
		return -1
	}
	newKeys := make([]int, len(agg.GroupKeys))
	for i, k := range agg.GroupKeys {
		newKeys[i] = dimPos[k]
	}
	newCalls := make([]rex.AggCall, len(agg.Calls))
	for i, c := range agg.Calls {
		if c.Distinct {
			return nil
		}
		pos := measurePos(c)
		if pos < 0 {
			return nil
		}
		switch c.Func {
		case rex.AggSum, rex.AggMin, rex.AggMax:
			newCalls[i] = rex.NewAggCall(c.Func, []int{pos}, false, c.Name)
		case rex.AggCount:
			newCalls[i] = rex.NewAggCall(rex.AggSum, []int{pos}, false, c.Name)
		default:
			return nil
		}
	}
	scan := rel.NewTableScan(trait.Logical, tile.Table, []string{tile.Name})
	return rel.NewAggregate(scan, newKeys, newCalls)
}

// BuildTile materializes a tile from the fact table's current contents
// (used by tests, benchmarks and the OLAP example to simulate the engines —
// e.g. Kylin's HBase cubes — that maintain tiles for Calcite, §8.1).
func BuildTile(fact schema.ScannableTable, factName []string, dims []int, measures []rex.AggCall, name string) (*Tile, error) {
	scan := rel.NewTableScan(trait.Logical, fact, factName)
	agg := rel.NewAggregate(scan, dims, measures)
	bases := TakeSnapshot(scan)
	rows, err := executeSimpleAggregate(fact, dims, measures)
	if err != nil {
		return nil, err
	}
	table := schema.NewMemTable(name, agg.RowType(), rows)
	return &Tile{Dims: dims, Measures: measures, Table: table, Name: name, Bases: bases}, nil
}

// executeSimpleAggregate computes a grouped aggregate directly over a
// scannable table (a tiny standalone executor so that mv does not depend on
// the exec package).
func executeSimpleAggregate(t schema.ScannableTable, dims []int, measures []rex.AggCall) ([][]any, error) {
	cur, err := t.Scan()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	type group struct {
		key  []any
		accs []rex.Accumulator
	}
	groups := map[string]*group{}
	var order []string
	for {
		row, err := cur.Next()
		if err == schema.Done {
			break
		}
		if err != nil {
			return nil, err
		}
		k := ""
		for _, d := range dims {
			k += "\x00" + rex.NewLiteral(row[d], nil).String()
		}
		g, ok := groups[k]
		if !ok {
			key := make([]any, len(dims))
			for i, d := range dims {
				key[i] = row[d]
			}
			accs := make([]rex.Accumulator, len(measures))
			for i, m := range measures {
				accs[i] = rex.NewAccumulator(m)
			}
			g = &group{key: key, accs: accs}
			groups[k] = g
			order = append(order, k)
		}
		for _, acc := range g.accs {
			if err := acc.Add(row); err != nil {
				return nil, err
			}
		}
	}
	out := make([][]any, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := append([]any{}, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	return out, nil
}
