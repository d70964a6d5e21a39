// Package schema defines the catalog abstractions of the adapter
// architecture (§5, Figure 3 of the paper): schemas, tables, statistics,
// views and materialized views. An adapter supplies a schema factory that
// reads a model (the specification of a data source's physical properties)
// and produces a schema whose tables Calcite plans and executes against.
//
// The package deliberately knows nothing about planning or execution; the
// adapter packages bind schemas to conventions and planner rules.
package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"calcite/internal/stats"
	"calcite/internal/types"
)

// Cursor iterates over rows. Next returns io.EOF-style termination via the
// Done sentinel error; rows are []any in the runtime value representation of
// package types.
type Cursor interface {
	// Next returns the next row, or (nil, Done) when exhausted.
	Next() ([]any, error)
	// Close releases resources; it is safe to call multiple times.
	Close() error
}

// Done is the sentinel returned by Cursor.Next at end of data.
var Done = fmt.Errorf("schema: no more rows")

// SliceCursor adapts an in-memory row slice to the Cursor interface.
type SliceCursor struct {
	Rows [][]any
	pos  int
}

// NewSliceCursor returns a cursor over rows.
func NewSliceCursor(rows [][]any) *SliceCursor { return &SliceCursor{Rows: rows} }

func (c *SliceCursor) Next() ([]any, error) {
	if c.pos >= len(c.Rows) {
		return nil, Done
	}
	row := c.Rows[c.pos]
	c.pos++
	return row, nil
}

func (c *SliceCursor) Close() error { return nil }

// Statistics describes a table for the metadata providers (§6: "for many
// systems it is sufficient to provide statistics about their input data").
// Beyond the declared row count and key hints, a table that has been
// ANALYZEd carries collected per-column statistics (null counts, min/max,
// NDV sketches, equi-depth histograms) which the default metadata provider
// consults for selectivity and join-cardinality estimation.
type Statistics struct {
	// RowCount is the estimated number of rows; <= 0 means unknown.
	RowCount float64
	// UniqueColumns lists sets of column ordinals that are unique keys.
	UniqueColumns [][]int
	// Columns holds collected per-column statistics by ordinal; nil (or a
	// nil entry) means the column has not been analyzed.
	Columns []*stats.ColumnStats
	// Analyzed reports whether RowCount/Columns come from an ANALYZE scan
	// rather than a declaration.
	Analyzed bool
	// Version counts how often the table has replaced or dropped these
	// statistics (SetStats; growth past twice the rows they describe). A
	// plain row-count advance does not change it, so comparing two reads
	// tells a plan cache when estimates derived from the earlier one are
	// superseded. Tables that never change their statistics leave it zero.
	Version uint64
}

// ColStats returns the collected statistics of column col, or nil.
func (s Statistics) ColStats(col int) *stats.ColumnStats {
	if col < 0 || col >= len(s.Columns) {
		return nil
	}
	return s.Columns[col]
}

// IsKey reports whether cols is a superset of some known unique key.
func (s Statistics) IsKey(cols []int) bool {
	set := map[int]bool{}
	for _, c := range cols {
		set[c] = true
	}
	for _, key := range s.UniqueColumns {
		all := true
		for _, k := range key {
			if !set[k] {
				all = false
				break
			}
		}
		if all && len(key) > 0 {
			return true
		}
	}
	return false
}

// nearKeyShare is how close to one distinct value per row an analyzed column
// must come to be indexed: a lookup then returns about one row, and the index
// (NULLs are never indexed) holds at most one entry per row.
const nearKeyShare = 0.9

// Indexes reports whether an IndexedTable keeps a hash index on column col: a
// declared single-column key, or an analyzed column with no NULLs whose
// distinct count is at least nearKeyShare of the rows.
func (s Statistics) Indexes(col int) bool {
	cs := s.ColStats(col)
	return s.IsKey([]int{col}) || cs != nil && cs.NullCount == 0 && s.RowCount > 0 && cs.NDV >= nearKeyShare*s.RowCount
}

// Table is the definition of the data found in a data source. The minimal
// contract is name, row type and statistics; a table that can be executed
// client-side also implements ScannableTable.
type Table interface {
	Name() string
	RowType() *types.Type
	Stats() Statistics
}

// ScannableTable is a table that can enumerate all of its rows — the
// "minimal interface an adapter must implement" (§5): given a full scan, the
// enumerable convention can execute arbitrary SQL against the table.
type ScannableTable interface {
	Table
	Scan() (Cursor, error)
}

// IndexedTable is a scannable table with an access path to the rows whose
// column equals a key that reads no others (§6: the planner picks it by cost).
type IndexedTable interface {
	ScannableTable
	// Indexed reports whether column col has an index.
	Indexed(col int) bool
	// Lookup returns the rows present now whose column col equals key, in
	// table order. Keys compare on their canonical encoding (types.HashKey),
	// as in a hash join: 2.0 finds 2; NULL finds nothing.
	Lookup(col int, key any) (BatchCursor, error)
}

// ModifiableTable is a table accepting inserts (DDL/DML support, §9).
type ModifiableTable interface {
	Table
	Insert(rows [][]any) error
}

// StatsSettable is a table whose statistics can be replaced — the hook
// ANALYZE TABLE uses to install collected statistics.
type StatsSettable interface {
	Table
	SetStats(Statistics)
}

// Schema is a namespace of tables and child schemas.
type Schema interface {
	Name() string
	TableNames() []string
	Table(name string) (Table, bool)
	SubSchemaNames() []string
	SubSchema(name string) (Schema, bool)
}

// BaseSchema is a mutable in-memory Schema implementation used by adapters
// and by the root catalog. It is safe for concurrent use.
type BaseSchema struct {
	name string

	mu      sync.RWMutex
	tables  map[string]Table
	schemas map[string]Schema
}

// NewBaseSchema returns an empty schema with the given name.
func NewBaseSchema(name string) *BaseSchema {
	return &BaseSchema{
		name:    name,
		tables:  map[string]Table{},
		schemas: map[string]Schema{},
	}
}

func (s *BaseSchema) Name() string { return s.name }

// AddTable registers a table (case-insensitive name).
func (s *BaseSchema) AddTable(t Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[strings.ToLower(t.Name())] = t
}

// RemoveTable drops a table.
func (s *BaseSchema) RemoveTable(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables, strings.ToLower(name))
}

// AddSchema registers a child schema.
func (s *BaseSchema) AddSchema(child Schema) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schemas[strings.ToLower(child.Name())] = child
}

func (s *BaseSchema) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.Name())
	}
	sort.Strings(names)
	return names
}

func (s *BaseSchema) Table(name string) (Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

func (s *BaseSchema) SubSchemaNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.schemas))
	for n := range s.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *BaseSchema) SubSchema(name string) (Schema, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.schemas[strings.ToLower(name)]
	return c, ok
}

// Resolve looks a (possibly qualified) table path up from root, e.g.
// ["splunk","orders"] or ["orders"]. Returns the table and the schema path
// actually used.
func Resolve(root Schema, path []string) (Table, []string, error) {
	if len(path) == 0 {
		return nil, nil, fmt.Errorf("schema: empty table name")
	}
	cur := root
	for i := 0; i < len(path)-1; i++ {
		sub, ok := cur.SubSchema(path[i])
		if !ok {
			return nil, nil, fmt.Errorf("schema: schema %q not found", strings.Join(path[:i+1], "."))
		}
		cur = sub
	}
	name := path[len(path)-1]
	if t, ok := cur.Table(name); ok {
		return t, path, nil
	}
	// Fall back: search one level of sub-schemas for an unqualified name.
	if len(path) == 1 {
		for _, sn := range root.SubSchemaNames() {
			if sub, ok := root.SubSchema(sn); ok {
				if t, ok := sub.Table(name); ok {
					return t, []string{sn, name}, nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("schema: table %q not found", strings.Join(path, "."))
}

// ViewTable is a named view: a stored SQL text expanded by the validator.
type ViewTable struct {
	ViewName string
	SQL      string
	// Type is the view's row type once known (may be nil until first
	// expansion).
	Type *types.Type
}

func (v *ViewTable) Name() string         { return v.ViewName }
func (v *ViewTable) RowType() *types.Type { return v.Type }
func (v *ViewTable) Stats() Statistics    { return Statistics{RowCount: 100} }

// StreamableTable marks a table that can be queried with the STREAM
// directive (§7.2): its rows arrive in time order on a designated
// monotonic column.
type StreamableTable interface {
	Table
	// RowtimeColumn returns the ordinal of the monotonically non-decreasing
	// event-time column.
	RowtimeColumn() int
}

// RemoteTable marks a table whose rows live in another engine: a full scan
// transfers every row across the engine boundary. The cost model charges
// that transfer, which is what makes operator pushdown (§5) win whenever it
// reduces the rows crossing the boundary.
type RemoteTable interface {
	Table
	// TransferCostFactor scales the per-row IO cost of pulling this table's
	// rows into the enumerable convention.
	TransferCostFactor() float64
}
