// Package calcite is a Go reproduction of Apache Calcite (SIGMOD 2018): a
// foundational framework for optimized query processing over heterogeneous
// data sources. It provides SQL parsing and validation, a relational algebra
// with a trait framework (calling conventions, collations), a rule-based
// cost-based optimizer with pluggable metadata providers, an enumerable
// execution engine, materialized-view rewriting, streaming/geospatial/
// semi-structured SQL extensions, and an adapter architecture with backends
// for CSV files, an embedded SQL database (JDBC-style), a Splunk-like event
// store, a Cassandra-like wide-column store, a MongoDB-like document store,
// and event streams.
//
// Quick start:
//
//	conn := calcite.Open()
//	conn.AddTable("emps", calcite.Columns{
//		{"empid", calcite.BigIntType}, {"name", calcite.VarcharType},
//	}, [][]any{{int64(1), "Bill"}})
//	res, err := conn.Query("SELECT name FROM emps WHERE empid = 1")
package calcite

import (
	"io"
	"time"

	"calcite/internal/avatica"
	"calcite/internal/builder"
	"calcite/internal/core"
	"calcite/internal/feedback"
	"calcite/internal/mv"
	"calcite/internal/obs"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// Connection is a configured framework instance: a catalog, rule sets,
// planner engines and an executor (the full lifecycle of Figure 1 of the
// paper).
type Connection struct {
	// Framework exposes the underlying engine for advanced configuration
	// (planner mode, fix point, rules, metadata cache).
	Framework *core.Framework
}

// Open creates a connection with the default optimizer configuration.
func Open() *Connection {
	return &Connection{Framework: core.New()}
}

// OpenChecked is Open with configuration errors (for example a malformed
// CALCITE_MEM_LIMIT environment value) returned instead of panicking, so
// binaries can print a clean startup error.
func OpenChecked() (*Connection, error) {
	fw, err := core.NewChecked()
	if err != nil {
		return nil, err
	}
	return &Connection{Framework: fw}, nil
}

// Result is a query result: column names plus rows of values.
type Result = core.Result

// Adapter is the contract data-source adapters fulfil (§5 of the paper).
type Adapter = core.Adapter

// Query parses, validates, optimizes and executes a SQL statement.
// Dynamic parameters ("?") bind positionally from params, normalized like
// AddTable's values.
func (c *Connection) Query(sql string, params ...any) (*Result, error) {
	return c.Framework.Execute(sql, params...)
}

// Exec is an alias of Query for DDL/DML statements.
func (c *Connection) Exec(sql string, params ...any) (*Result, error) {
	return c.Framework.Execute(sql, params...)
}

// Explain returns the plan a query runs, annotated with its estimates.
func (c *Connection) Explain(sql string) (string, error) { return c.explain("EXPLAIN " + sql) }

// ExplainLogical returns the logical (pre-optimization) plan text.
func (c *Connection) ExplainLogical(sql string) (string, error) {
	return c.explain("EXPLAIN LOGICAL " + sql)
}

// explain runs an EXPLAIN statement and returns its plan text.
func (c *Connection) explain(stmt string) (string, error) {
	res, err := c.Framework.Execute(stmt)
	if err != nil {
		return "", err
	}
	return res.Plan, nil
}

// Plan parses and optimizes a query, returning both plans for inspection.
func (c *Connection) Plan(sql string) (logical, optimized rel.Node, err error) {
	logical, err = c.Framework.ParseAndConvert(sql)
	if err != nil {
		return nil, nil, err
	}
	optimized, err = c.Framework.Optimize(logical)
	return logical, optimized, err
}

// RegisterAdapter plugs an adapter (schema + rules + converters) into the
// connection.
func (c *Connection) RegisterAdapter(a Adapter) { c.Framework.RegisterAdapter(a) }

// Column declares one column for AddTable.
type Column struct {
	Name string
	Type *types.Type
}

// Columns is a table layout.
type Columns []Column

// Shared column types for table declarations.
var (
	BigIntType    = types.BigInt
	IntegerType   = types.Integer
	DoubleType    = types.Double
	VarcharType   = types.Varchar
	BooleanType   = types.Boolean
	TimestampType = types.Timestamp
	GeometryType  = types.Geometry
	AnyType       = types.Any
)

// MapType builds a MAP column type (semi-structured data, §7.1).
func MapType(key, value *types.Type) *types.Type { return types.Map(key, value) }

// ArrayType builds an ARRAY column type.
func ArrayType(elem *types.Type) *types.Type { return types.Array(elem) }

// AddTable registers an in-memory table in the root schema and returns it.
// The rows are copied into the table's columns; more may be appended later
// via INSERT or the returned handle's Insert, without disturbing concurrent
// readers or cached plans. Registration itself flushes the plan cache.
//
// Values are normalized as they are copied, and so come back from queries in
// the engine's representation: Go ints (and the other integer kinds) as
// int64, float32 as float64, and time.Time as epoch-millis int64, the value a
// TIMESTAMP literal has. The rows themselves are not modified.
func (c *Connection) AddTable(name string, cols Columns, rows [][]any) *schema.MemTable {
	fields := make([]types.Field, len(cols))
	for i, col := range cols {
		fields[i] = types.Field{Name: col.Name, Type: col.Type.WithNullable(true)}
	}
	t := schema.NewMemTable(name, types.Row(fields...), rows)
	c.Framework.Catalog.AddTable(t)
	c.Framework.InvalidatePlans()
	return t
}

// Builder returns a relational expression builder over the connection's
// catalog — the language-integrated construction API of §3 (the paper's
// Pig example).
func (c *Connection) Builder() *builder.Builder {
	return builder.New(c.Framework.Catalog)
}

// ExecutePlan optimizes and runs a hand-built relational expression under
// the connection's execution configuration (batch size, parallelism).
func (c *Connection) ExecutePlan(node rel.Node) (*Result, error) {
	optimized, err := c.Framework.Optimize(node)
	if err != nil {
		return nil, err
	}
	rows, err := c.Framework.ExecutePhysical(optimized)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: optimized.RowType().FieldNames(), Rows: rows}, nil
}

// RegisterLattice declares a star-schema lattice whose tiles answer
// aggregate queries (§6 materialized views, lattice algorithm).
func (c *Connection) RegisterLattice(l *mv.Lattice) {
	c.Framework.Views.RegisterLattice(l)
	c.Framework.InvalidatePlans()
}

// EnableFeedback toggles the cardinality-feedback loop (default on): every
// traced execution's actual per-operator row counts are harvested against
// the optimizer's estimates, repeated executions of a statement whose
// estimates drifted re-plan with bounded, exponentially-smoothed corrections,
// and hash joins whose build side overshot its estimate swap build/probe
// sides on the next planning. The store invalidates alongside the plan cache:
// DDL empties it, ANALYZE of a table resets the records and replan budget of
// the statements scanning it, INSERT touches nothing.
func (c *Connection) EnableFeedback(on bool) { c.Framework.DisableFeedback = !on }

// FeedbackReport returns the feedback store's per-statement plan-quality
// summaries (est/actual/q-error per operator), worst estimation error first
// — the same payload the server's /debug/plans endpoint serves.
func (c *Connection) FeedbackReport() []feedback.PlanReport {
	return c.Framework.Feedback().Report()
}

// SetBatchSize overrides the rows-per-batch granularity of execution (<= 0
// restores the default). Every operator executes column-major batches of up
// to n rows through compiled expressions, including where the rows of a
// table or backend that yields them are lifted into batches.
func (c *Connection) SetBatchSize(n int) { c.Framework.BatchSize = n }

// SetMemoryLimit sets the connection-wide execution-memory budget in bytes,
// shared by all concurrent queries of this connection (0 = unlimited).
// Memory-hungry operators (sort, hash join, aggregate) charge their retained
// state against the budget and spill to temp files when it runs out: sorts
// become external merge sorts, hash joins Grace/hybrid partitioned joins,
// and aggregates flush partial accumulator states per partition and
// re-merge them on re-read. Results are identical to the unlimited run
// (sorting is stability-preserving across spills; hash-aggregate group
// order without ORDER BY may differ, as it may between any two plans).
func (c *Connection) SetMemoryLimit(n int64) { c.Framework.SetMemoryLimit(n) }

// SetQueryMemoryLimit caps each individual query's memory grant in bytes
// (0 = bounded by the connection-wide limit only).
func (c *Connection) SetQueryMemoryLimit(n int64) { c.Framework.QueryMemoryLimit = n }

// EnableSpill toggles overflow-to-disk (default on). With spilling disabled
// a query that exceeds its budget fails with a "memory budget exceeded"
// error instead — the admission-control mode.
func (c *Connection) EnableSpill(on bool) { c.Framework.DisableSpill = !on }

// SetParallelism sets the worker count for morsel-driven parallel execution
// (0, the default, uses runtime.GOMAXPROCS(0)). Statements are prepared,
// cached and shown by EXPLAIN for the worker count they run at: n > 1 splits
// scans into morsels that n workers claim and gathers the partitions back
// into one stream; a stream aggregate runs serially at every n. A parallel
// run returns the serial plan's rows in the same order, with two value-level
// caveats: floating-point aggregates may differ in the last bit (partial
// sums reassociate), and COLLECT multiset element order follows
// partial-merge order rather than input order.
func (c *Connection) SetParallelism(n int) { c.Framework.Parallelism = n }

// SetSlowQueryThreshold marks queries at or over threshold as slow: they
// are retained in the observability engine's slow-trace ring (visible at
// the server's /debug/queries endpoint) and, when log is non-nil, written
// to it as one JSON line each. threshold 0 disables slow-query tracking.
func (c *Connection) SetSlowQueryThreshold(threshold time.Duration, log io.Writer) {
	c.Framework.SetSlowQuery(threshold, log)
}

// Obs exposes the connection's observability engine: the metrics registry
// (Prometheus text exposition), the recent/slow trace rings, and the
// slow-query configuration.
func (c *Connection) Obs() *obs.Engine { return c.Framework.Obs() }

// LastTraces returns up to n recent query traces, newest first.
func (c *Connection) LastTraces(n int) []*obs.TraceSnapshot {
	traces := c.Framework.Obs().Recent.Snapshot()
	if n > 0 && len(traces) > n {
		traces = traces[:n]
	}
	return traces
}

// UseHeuristicPlanner switches physical planning to the exhaustive
// rule-driven engine (§6's second planner engine).
func (c *Connection) UseHeuristicPlanner() {
	c.Framework.Planner = core.HeuristicHep
	c.Framework.InvalidatePlans()
}

// UseCostBasedPlanner switches back to the Volcano-style engine, optionally
// with the δ-threshold heuristic fix point.
func (c *Connection) UseCostBasedPlanner(heuristicFixpoint bool, delta float64) {
	c.Framework.Planner = core.VolcanoCostBased
	if heuristicFixpoint {
		c.Framework.FixPoint = plan.Heuristic
		c.Framework.Delta = delta
	} else {
		c.Framework.FixPoint = plan.Exhaustive
	}
	c.Framework.InvalidatePlans()
}

// Serve starts an Avatica-style JSON/HTTP server for this connection on
// addr (use "127.0.0.1:0" for an ephemeral port) and returns the bound
// address and a shutdown function.
func (c *Connection) Serve(addr string) (string, func() error, error) {
	srv := avatica.NewServer(c.Framework)
	bound, err := srv.Start(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv.Stop, nil
}

// Dial connects to a remote Avatica-style server.
func Dial(addr string) *avatica.Client { return avatica.NewClient(addr) }
