// Package cassandra simulates a Cassandra-like wide-column store: tables are
// partitioned by a subset of columns and, within each partition, rows are
// sorted by clustering columns. The adapter reproduces the §6 worked
// example: a Sort can be pushed into Cassandra only when (1) the table has
// been previously filtered to a single partition and (2) the required sort
// order shares a prefix with the clustering order — which requires a
// LogicalFilter to have been rewritten to a CassandraFilter first. Pushed
// expressions reach the store as CQL text (Table 2: "Cassandra → CQL").
package cassandra

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"calcite/internal/types"
)

// TableDef describes a wide-column table.
type TableDef struct {
	Name           string
	Fields         []types.Field
	PartitionKeys  []int // ordinals of the partition key columns
	ClusteringKeys []int // ordinals of the clustering columns (ascending)
}

// Store is the Cassandra-like server; all external access is CQL text.
type Store struct {
	mu     sync.Mutex
	tables map[string]*table
	// Queries records every CQL statement received.
	Queries []string
}

type table struct {
	def  TableDef
	rows [][]any
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{tables: map[string]*table{}} }

// CreateTable defines a table and loads rows, normalized (types.Normalize)
// and stored sorted by partition, then clustering columns — the storage order
// Cassandra maintains.
func (s *Store) CreateTable(def TableDef, rows [][]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &table{def: def, rows: make([][]any, len(rows))}
	for i, row := range rows {
		t.rows[i] = types.NormalizeRow(row)
	}
	keyCols := append(append([]int{}, def.PartitionKeys...), def.ClusteringKeys...)
	sort.SliceStable(t.rows, func(i, j int) bool {
		for _, c := range keyCols {
			if cmp := types.Compare(t.rows[i][c], t.rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	s.tables[strings.ToLower(def.Name)] = t
}

// Tables lists table definitions.
func (s *Store) Tables() []TableDef {
	s.mu.Lock()
	defer s.mu.Unlock()
	var defs []TableDef
	for _, t := range s.tables {
		defs = append(defs, t.def)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}

// LastQuery returns the most recent CQL received.
func (s *Store) LastQuery() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.Queries) == 0 {
		return ""
	}
	return s.Queries[len(s.Queries)-1]
}

// Execute runs a CQL statement of the shape
//
//	SELECT <cols|*> FROM <t> [WHERE c op v [AND ...]] [ORDER BY c [DESC], ...] [LIMIT n]
//
// enforcing Cassandra's restrictions: non-key filters are rejected, ORDER BY
// requires the partition key to be fully bound by equality.
func (s *Store) Execute(cql string) ([]string, [][]any, error) {
	s.mu.Lock()
	s.Queries = append(s.Queries, cql)
	s.mu.Unlock()

	p := &cqlParser{src: cql}
	q, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	t, ok := s.tables[strings.ToLower(q.table)]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("cassandra: unknown table %q", q.table)
	}
	def := t.def
	colPos := map[string]int{}
	for i, f := range def.Fields {
		colPos[strings.ToLower(f.Name)] = i
	}
	keyCol := func(name string) (int, error) {
		pos, ok := colPos[strings.ToLower(name)]
		if !ok {
			return 0, fmt.Errorf("cassandra: unknown column %q", name)
		}
		return pos, nil
	}
	// Validate restrictions: every WHERE column must be a key column.
	isPartition := map[int]bool{}
	for _, c := range def.PartitionKeys {
		isPartition[c] = true
	}
	isClustering := map[int]bool{}
	for _, c := range def.ClusteringKeys {
		isClustering[c] = true
	}
	boundPartitions := map[int]bool{}
	type cond struct {
		col int
		op  string
		val any
	}
	var conds []cond
	for _, w := range q.where {
		col, err := keyCol(w.col)
		if err != nil {
			return nil, nil, err
		}
		if !isPartition[col] && !isClustering[col] {
			return nil, nil, fmt.Errorf("cassandra: cannot filter on non-key column %q (no ALLOW FILTERING)", w.col)
		}
		if isPartition[col] {
			if w.op != "=" {
				return nil, nil, fmt.Errorf("cassandra: partition key %q requires equality", w.col)
			}
			boundPartitions[col] = true
		}
		conds = append(conds, cond{col: col, op: w.op, val: w.val})
	}
	if len(q.orderBy) > 0 {
		for _, c := range def.PartitionKeys {
			if !boundPartitions[c] {
				return nil, nil, fmt.Errorf("cassandra: ORDER BY requires the partition key to be restricted by equality")
			}
		}
	}
	// Filter (storage order preserved: rows within a partition stay sorted
	// by clustering columns).
	var out [][]any
	for _, row := range t.rows {
		keep := true
		for _, c := range conds {
			cmp := types.Compare(row[c.col], c.val)
			switch c.op {
			case "=":
				keep = cmp == 0
			case ">":
				keep = cmp > 0
			case ">=":
				keep = cmp >= 0
			case "<":
				keep = cmp < 0
			case "<=":
				keep = cmp <= 0
			default:
				return nil, nil, fmt.Errorf("cassandra: unsupported operator %q", c.op)
			}
			if !keep {
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	// ORDER BY: only clustering prefix, ASC as stored or fully reversed.
	if len(q.orderBy) > 0 {
		desc := q.orderBy[0].desc
		for i, o := range q.orderBy {
			col, err := keyCol(o.col)
			if err != nil {
				return nil, nil, err
			}
			if i >= len(def.ClusteringKeys) || def.ClusteringKeys[i] != col {
				return nil, nil, fmt.Errorf("cassandra: ORDER BY must follow the clustering order")
			}
			if o.desc != desc {
				return nil, nil, fmt.Errorf("cassandra: ORDER BY directions must be uniform")
			}
		}
		if desc {
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if q.limit >= 0 && q.limit < len(out) {
		out = out[:q.limit]
	}
	// Projection.
	names := make([]string, 0)
	if len(q.cols) == 1 && q.cols[0] == "*" {
		for _, f := range def.Fields {
			names = append(names, f.Name)
		}
		return names, out, nil
	}
	var idxs []int
	for _, c := range q.cols {
		pos, err := keyCol(c)
		if err != nil {
			return nil, nil, err
		}
		idxs = append(idxs, pos)
		names = append(names, def.Fields[pos].Name)
	}
	proj := make([][]any, len(out))
	for ri, row := range out {
		nr := make([]any, len(idxs))
		for i, c := range idxs {
			nr[i] = row[c]
		}
		proj[ri] = nr
	}
	return names, proj, nil
}

// --- tiny CQL parser ---

type cqlQuery struct {
	cols    []string
	table   string
	where   []cqlCond
	orderBy []cqlOrder
	limit   int // -1: no LIMIT
}

type cqlCond struct {
	col string
	op  string
	val any
}

type cqlOrder struct {
	col  string
	desc bool
}

type cqlParser struct {
	src string
	pos int
}

func (p *cqlParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\n' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *cqlParser) keyword(kw string) bool {
	p.ws()
	if len(p.src)-p.pos >= len(kw) && strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *cqlParser) ident() string {
	p.ws()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

func (p *cqlParser) parse() (*cqlQuery, error) {
	q := &cqlQuery{limit: -1}
	if !p.keyword("SELECT") {
		return nil, fmt.Errorf("cassandra: expected SELECT in %q", p.src)
	}
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
		q.cols = []string{"*"}
	} else {
		for {
			q.cols = append(q.cols, p.ident())
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if !p.keyword("FROM") {
		return nil, fmt.Errorf("cassandra: expected FROM in %q", p.src)
	}
	q.table = p.ident()
	if p.keyword("WHERE") {
		for {
			col := p.ident()
			p.ws()
			opStart := p.pos
			for p.pos < len(p.src) && strings.ContainsRune("=<>!", rune(p.src[p.pos])) {
				p.pos++
			}
			op := p.src[opStart:p.pos]
			p.ws()
			val, err := p.value()
			if err != nil {
				return nil, err
			}
			q.where = append(q.where, cqlCond{col: col, op: op, val: val})
			if !p.keyword("AND") {
				break
			}
		}
	}
	if p.keyword("ORDER BY") {
		for {
			col := p.ident()
			desc := p.keyword("DESC")
			if !desc {
				p.keyword("ASC")
			}
			q.orderBy = append(q.orderBy, cqlOrder{col: col, desc: desc})
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
	}
	if p.keyword("LIMIT") {
		p.ws()
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.Atoi(p.src[start:p.pos])
		if err != nil {
			return nil, fmt.Errorf("cassandra: bad LIMIT in %q", p.src)
		}
		q.limit = n
	}
	return q, nil
}

func (p *cqlParser) value() (any, error) {
	p.ws()
	if p.pos < len(p.src) && p.src[p.pos] == '\'' {
		// A quote inside a string is written twice.
		var b strings.Builder
		for i := p.pos + 1; i < len(p.src); i++ {
			switch {
			case p.src[i] != '\'':
				b.WriteByte(p.src[i])
			case i+1 < len(p.src) && p.src[i+1] == '\'':
				b.WriteByte('\'')
				i++
			default:
				p.pos = i + 1
				return b.String(), nil
			}
		}
		return nil, fmt.Errorf("cassandra: unterminated string in %q", p.src)
	}
	start := p.pos
	for p.pos < len(p.src) && (p.src[p.pos] == '.' || p.src[p.pos] == '-' || p.src[p.pos] >= '0' && p.src[p.pos] <= '9') {
		p.pos++
	}
	raw := p.src[start:p.pos]
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return f, nil
	}
	return nil, fmt.Errorf("cassandra: bad literal %q", raw)
}
