// Package core wires the framework components of Figure 1 of the paper into
// a query lifecycle: SQL parser/validator → sql-to-rel converter → optimizer
// (rules + metadata providers + planner engines) → enumerable executor. It
// also hosts the adapter registry (schemas + pushdown rules + converters)
// and the DDL surface listed in §9 (CREATE TABLE, CREATE [MATERIALIZED]
// VIEW, INSERT, EXPLAIN).
package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calcite/internal/exec"
	"calcite/internal/feedback"
	"calcite/internal/memory"
	"calcite/internal/meta"
	"calcite/internal/mv"
	"calcite/internal/obs"
	"calcite/internal/parallel"
	"calcite/internal/parser"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/rules"
	"calcite/internal/schema"
	"calcite/internal/sql2rel"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// ConverterReg registers a convention converter factory with the planner.
type ConverterReg struct {
	From, To trait.Convention
	Factory  func(input rel.Node) rel.Node
}

// Adapter is the contract an adapter package fulfils to join the framework
// (§5, Figure 3): a schema of tables, planner rules that push operators into
// the backend, converters that move rows out of the backend's convention,
// and optional metadata providers with backend statistics.
type Adapter interface {
	// AdapterSchema returns the schema exposing the backend's tables.
	AdapterSchema() schema.Schema
	// Rules returns the adapter's planner rules.
	Rules() []plan.Rule
	// Converters returns the adapter's convention converters.
	Converters() []ConverterReg
}

// MetaAdapter is an Adapter that also contributes metadata providers.
type MetaAdapter interface {
	Adapter
	MetaProviders() []meta.Provider
}

// PlannerChoice selects the physical planning engine.
type PlannerChoice int

const (
	// VolcanoCostBased uses the cost-based engine (default).
	VolcanoCostBased PlannerChoice = iota
	// HeuristicHep uses the exhaustive rule-driven engine.
	HeuristicHep
)

// Framework is a configured instance of the query processing system.
type Framework struct {
	// Catalog is the root schema; adapters add sub-schemas.
	Catalog *schema.BaseSchema
	// LogicalRules run in the logical rewrite phase (Hep).
	LogicalRules []plan.Rule
	// PhysicalRules run in the implementation phase.
	PhysicalRules []plan.Rule
	// Converters available to the physical planner.
	Converters []ConverterReg
	// Providers are extra metadata providers (adapters, tests).
	Providers []meta.Provider
	// Planner selects the physical engine.
	Planner PlannerChoice
	// FixPoint configures the Volcano fix point (Exhaustive/Heuristic δ).
	FixPoint plan.FixPointMode
	// Delta is the Heuristic-mode improvement threshold.
	Delta float64
	// BatchSize overrides the execution engine's rows-per-batch; <= 0 uses
	// schema.DefaultBatchSize.
	BatchSize int
	// Parallelism is the worker count for morsel-driven parallel execution:
	// 0 uses runtime.GOMAXPROCS(0); 1 forces the serial execution paths.
	Parallelism int
	// MemoryLimit is the framework-wide execution-memory budget in bytes,
	// shared by all concurrent queries (0 = unlimited). Prefer
	// SetMemoryLimit, which also updates the live pool.
	MemoryLimit int64
	// QueryMemoryLimit caps each query's share of the budget in bytes
	// (0 = bounded by MemoryLimit only).
	QueryMemoryLimit int64
	// DisableSpill turns off overflow-to-disk: a query exceeding its budget
	// fails with a "memory budget exceeded" error instead of spilling.
	DisableSpill bool

	// SlowQueryThreshold marks queries whose end-to-end latency meets or
	// exceeds it as slow: they are retained in the observability engine's
	// slow ring and written to SlowQueryLog (0 disables).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one JSON line per slow query (nil keeps only
	// the in-memory slow ring).
	SlowQueryLog io.Writer

	// poolMu guards the lazily created shared worker pool.
	poolMu sync.Mutex
	pool   *parallel.Pool

	// memPoolMu guards the lazily created shared memory pool.
	memPoolMu sync.Mutex
	memPool   *memory.Pool

	// planCacheMu guards the lazily created prepared-plan cache.
	planCacheMu sync.Mutex
	planCache   *PlanCache

	// DisableFeedback turns off the cardinality-feedback loop: traces are
	// not harvested, no corrections enter the metadata chain, and no
	// adaptive build/probe swaps are applied (the A/B baseline).
	DisableFeedback bool

	// fbMu guards the lazily created cardinality-feedback store.
	fbMu    sync.Mutex
	fbStore *feedback.Store

	// obsMu guards the lazily created observability engine.
	obsMu  sync.Mutex
	obsEng *obs.Engine

	// Views holds materialized views registered via CREATE MATERIALIZED
	// VIEW or adapter declarations.
	Views *mv.Registry

	// LastPlanner exposes statistics of the most recent physical planning
	// run (for tests and benchmarks). Concurrent statements each publish
	// theirs under lastPlannerMu; read it only once planning is quiescent.
	LastPlanner   *plan.VolcanoPlanner
	lastPlannerMu sync.Mutex
}

// New returns a framework with the default rule sets, the enumerable
// execution convention, and an empty catalog. The CALCITE_MEM_LIMIT
// environment variable ("64MB", "1GiB", plain bytes), when set, becomes the
// default framework memory limit — the hook CI uses to run the whole test
// corpus under memory governance.
func New() *Framework {
	f, err := NewChecked()
	if err != nil {
		// Refusing to start beats running ungoverned: a typo'd limit in
		// the CI governance job would otherwise silently test nothing.
		// Binaries that want a clean startup error use NewChecked.
		panic(err.Error())
	}
	return f
}

// NewChecked is New with configuration errors (today: a malformed
// CALCITE_MEM_LIMIT) returned instead of panicking, so binaries can print a
// clean startup error.
func NewChecked() (*Framework, error) {
	f := &Framework{
		Catalog:       schema.NewBaseSchema("root"),
		LogicalRules:  rules.DefaultLogicalRules(),
		PhysicalRules: exec.Rules(),
		Providers:     []meta.Provider{exec.MetadataProvider()},
		Views:         mv.NewRegistry(),
	}
	if s := os.Getenv("CALCITE_MEM_LIMIT"); s != "" {
		n, err := memory.ParseBytes(s)
		if err != nil {
			return nil, fmt.Errorf("calcite: invalid CALCITE_MEM_LIMIT %q: %v", s, err)
		}
		f.MemoryLimit = n
	}
	return f, nil
}

// SetMemoryLimit sets the framework-wide execution-memory budget in bytes
// (0 = unlimited), updating the live pool if one exists.
func (f *Framework) SetMemoryLimit(n int64) {
	f.MemoryLimit = n
	f.memPoolMu.Lock()
	if f.memPool != nil {
		f.memPool.SetLimit(n)
	}
	f.memPoolMu.Unlock()
}

// MemoryPool returns the framework's shared memory pool, creating it on
// first use. With no framework-wide limit configured the pool is unlimited
// but still accounts usage, so the memory metrics cover ungoverned
// deployments too.
func (f *Framework) MemoryPool() *memory.Pool {
	f.memPoolMu.Lock()
	defer f.memPoolMu.Unlock()
	if f.memPool == nil {
		f.memPool = memory.NewPool(f.MemoryLimit)
	}
	return f.memPool
}

// RegisterAdapter plugs an adapter into the framework.
func (f *Framework) RegisterAdapter(a Adapter) {
	f.Catalog.AddSchema(a.AdapterSchema())
	f.PhysicalRules = append(f.PhysicalRules, a.Rules()...)
	f.Converters = append(f.Converters, a.Converters()...)
	if ma, ok := a.(MetaAdapter); ok {
		f.Providers = append(f.Providers, ma.MetaProviders()...)
	}
	f.InvalidatePlans()
}

// PlanCache returns the framework's prepared-plan cache, creating it on
// first use.
func (f *Framework) PlanCache() *PlanCache {
	f.planCacheMu.Lock()
	defer f.planCacheMu.Unlock()
	if f.planCache == nil {
		f.planCache = NewPlanCache(DefaultPlanCacheSize)
	}
	return f.planCache
}

// InvalidatePlans flushes the prepared-plan cache and the cardinality-
// feedback store together: the catalog-wide half of the invalidation funnel,
// for what changes the meaning of every plan — DDL, adapter, table, view or
// lattice registration, a planner switch — and for embedders that mutate the
// catalog directly. Data changes do not come here: INSERT invalidates
// nothing, and new statistics for one table go through InvalidateTable. The
// plan cache and the feedback store always invalidate together: after a
// catalog change, corrections are as stale as the plans optimized with them.
func (f *Framework) InvalidatePlans() {
	c, fb := f.planState()
	if c != nil {
		c.Invalidate()
	}
	if fb != nil {
		fb.Invalidate()
	}
}

// InvalidateTable is the per-table half of the funnel: t has new statistics
// (ANALYZE, or it has doubled since they were taken and dropped them), so
// the cached plans that scan t are evicted and the feedback store forgets
// the statements that scan t — their q-error records and their spent replan
// budget. Plans and records over other tables are untouched, and so are the
// learned corrections, which are observations of the data.
func (f *Framework) InvalidateTable(t schema.Table) {
	c, fb := f.planState()
	if c != nil {
		c.EvictTable(t)
	}
	if fb != nil {
		fb.InvalidateTable(t)
	}
}

// planState returns the plan cache and feedback store if they exist yet.
func (f *Framework) planState() (*PlanCache, *feedback.Store) {
	f.planCacheMu.Lock()
	c := f.planCache
	f.planCacheMu.Unlock()
	f.fbMu.Lock()
	fb := f.fbStore
	f.fbMu.Unlock()
	return c, fb
}

// NewMetaQuery builds a metadata session with all registered providers. The
// cardinality-feedback store's corrections take precedence over every other
// provider: an observed row count beats any estimate.
func (f *Framework) NewMetaQuery() *meta.Query {
	q := meta.NewQuery(f.Providers...)
	if fb := f.feedbackIfEnabled(); fb != nil {
		q.Prepend(fb.MetaProvider())
	}
	return q
}

// ParseAndConvert runs parser + validator + sql2rel, returning the logical
// plan of a query statement.
func (f *Framework) ParseAndConvert(sql string) (rel.Node, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return sql2rel.New(f.Catalog).Convert(stmt)
}

// Optimize runs the two-phase optimization program over a logical plan:
// logical rewrites to fix point (Hep), then physical implementation with
// the selected engine and the materialized-view rewriting rules (§6).
func (f *Framework) Optimize(logical rel.Node) (rel.Node, error) {
	return f.optimize(logical, &obs.OptimizerPhases{})
}

// optimize is Optimize, recording each phase's time and the join-order
// candidate count in ph. One metadata session — one digest memo — serves
// every phase.
func (f *Framework) optimize(logical rel.Node, ph *obs.OptimizerPhases) (rel.Node, error) {
	mq := f.NewMetaQuery()
	start := time.Now()
	defer func() { ph.PhysicalNs = int64(time.Since(start)) - ph.RewriteNs - ph.JoinOrderNs }()

	node := f.logicalOptimize(logical, mq)
	mq.InvalidateCache()
	ph.RewriteNs = int64(time.Since(start))
	node, counts := f.reorderJoins(node, mq)
	ph.JoinCandidates, ph.JoinCosted = int64(counts.Considered), int64(counts.Costed)
	ph.JoinOrderNs = int64(time.Since(start)) - ph.RewriteNs

	physRules := append([]plan.Rule(nil), f.PhysicalRules...)
	physRules = append(physRules, f.substitutionRules(mq)...)

	if f.Planner == HeuristicHep {
		hep := plan.NewHepPlanner(physRules...)
		hep.Meta = mq
		out := hep.Optimize(node)
		return out, nil
	}

	vp := plan.NewVolcanoPlanner(physRules...)
	vp.Meta = mq
	vp.Mode = f.FixPoint
	if f.Delta > 0 {
		vp.Delta = f.Delta
	}
	for _, c := range f.Converters {
		vp.AddConverter(c.From, c.To, c.Factory)
	}
	f.lastPlannerMu.Lock()
	f.LastPlanner = vp
	f.lastPlannerMu.Unlock()
	return vp.Optimize(node, trait.Enumerable)
}

// logicalOptimize runs the logical rewrite phase to fix point.
func (f *Framework) logicalOptimize(node rel.Node, mq *meta.Query) rel.Node {
	hep := plan.NewHepPlanner(f.LogicalRules...)
	hep.Meta = mq
	return hep.Optimize(node)
}

// substitutionRules builds the materialized-view rules for one planning
// session. Registered definition plans are stored in their logically
// optimized (statistics-independent) form and re-normalized through the
// join-order enumeration here, with the session's metadata: statistics can
// change between sessions (ANALYZE, inserts) and unification is digest-
// exact, so the view side must be canonicalized with the same estimates as
// the incoming query or join-containing views would silently stop matching.
func (f *Framework) substitutionRules(mq *meta.Query) []plan.Rule {
	views := f.Views.Views()
	lattices := f.Views.Lattices()
	if len(views) == 0 && len(lattices) == 0 {
		return nil
	}
	session := mv.NewRegistry()
	for _, v := range views {
		ordered, _ := f.reorderJoins(v.Plan, mq)
		session.Register(&mv.MaterializedView{Name: v.Name, Plan: ordered, Table: v.Table, Bases: v.Bases})
	}
	for _, l := range lattices {
		session.RegisterLattice(l)
	}
	return session.SubstitutionRules()
}

// reorderJoins runs the two-phase cost-based join-order enumeration: inner
// join trees collapse into flat MultiJoins, which LoptOptimizeJoinRule then
// expands into binary join trees ordered by the cardinality estimates of the
// metadata providers (histogram/NDV-driven once tables are ANALYZEd). The
// phases are separate Hep passes because the expansion's output joins must
// not re-trigger the collapse. It also returns how many pairs the
// enumeration considered and how many it costed.
func (f *Framework) reorderJoins(node rel.Node, mq *meta.Query) (rel.Node, rules.JoinOrderCounts) {
	collapse, order, counts := rules.JoinOrderRules()
	hepCollapse := plan.NewHepPlanner(collapse...)
	hepCollapse.Meta = mq
	node = hepCollapse.Optimize(node)
	hepOrder := plan.NewHepPlanner(order...)
	hepOrder.Meta = mq
	node = hepOrder.Optimize(node)
	mq.InvalidateCache()
	return node, *counts
}

// Result is the outcome of executing a statement.
type Result struct {
	Columns []string
	Rows    [][]any
	// Plan is set for EXPLAIN.
	Plan string
}

// ExecOptions customizes one statement execution beyond the SQL text.
type ExecOptions struct {
	// Params bind the statement's "?" placeholders positionally.
	Params []any
	// Pool, when non-nil, replaces the framework pool as the budget the
	// query's allocator draws from — the serving tier passes a per-tenant
	// child pool here so one tenant cannot starve another. A query with a
	// Pool override always runs governed (tracked, spill-capable).
	Pool *memory.Pool
	// Interrupt, when non-nil, cancels the execution cooperatively: setting
	// it makes the engine's drain loops and streaming operators fail with
	// exec.ErrCanceled. The serving tier arms it per statement.
	Interrupt *atomic.Bool
	// track opens a tracking allocator even when no budget applies (EXPLAIN
	// ANALYZE reports peaks either way).
	track bool
}

// Execute parses, plans and runs a SQL statement (including DDL). Query and
// DML statements run traced: the observability engine assigns an ID, times
// each stage, builds a per-operator span tree and retains the finished
// trace (see Obs).
func (f *Framework) Execute(sql string, params ...any) (*Result, error) {
	return f.ExecuteOpts(sql, ExecOptions{Params: params})
}

// ExecuteOpts is Execute with per-execution options (parameters, a tenant
// memory pool). Repeated statements hit the prepared-plan cache and skip
// parse, optimize and the parallel rewrite entirely.
func (f *Framework) ExecuteOpts(sql string, opts ExecOptions) (*Result, error) {
	if ent, ok := f.PlanCache().Get(sql, f.EffectiveParallelism(), f.morselSize()); ok {
		tr := f.Obs().Begin(sql)
		tr.Cached = true
		res, _, err := f.execute(tr, ent, opts, nil)
		return res, err
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *parser.ExplainStmt:
		return f.explain(s, sql, opts)
	case *parser.CreateTableStmt:
		f.InvalidatePlans()
		return f.createTable(s)
	case *parser.CreateViewStmt:
		f.InvalidatePlans()
		return f.createView(s, sql)
	case *parser.AnalyzeStmt:
		return f.analyzeTable(s)
	}
	return f.executeQuery(sql, stmt, opts)
}

// cacheableStmt reports whether a statement's optimized plan may be reused
// by later byte-identical statements: queries and INSERT (its plan resolves
// the target once and binds parameters per execution, like any other). DDL
// never reaches the query path.
func cacheableStmt(stmt parser.Statement) bool {
	switch stmt.(type) {
	case *parser.SelectStmt, *parser.SetOpStmt, *parser.ValuesStmt, *parser.InsertStmt:
		return true
	}
	return false
}

// run executes a prepared plan. For DML it is also where data growth reaches
// the invalidation funnel: a target whose statistics turned over under the
// statement (a MemTable drops them once it has doubled) gets its plans
// invalidated, and so does every materialization computed from the target,
// which the insert left stale; any other insert invalidates nothing.
func (f *Framework) run(ctx *exec.Context, prepared rel.Node, target schema.Table) ([][]any, error) {
	if target == nil {
		return exec.Execute(ctx, prepared)
	}
	before := target.Stats().Version
	rows, err := exec.Execute(ctx, prepared)
	if target.Stats().Version != before {
		f.InvalidateTable(target)
	}
	for _, t := range f.Views.Materializations(target) {
		f.InvalidateTable(t)
	}
	return rows, err
}

// executeQuery prepares a query/DML statement and runs it under tracing; on
// success the prepared entry is cached for reuse by identical statements.
func (f *Framework) executeQuery(sql string, stmt parser.Statement, opts ExecOptions) (*Result, error) {
	tr := f.Obs().Begin(sql)
	p, err := f.prepare(stmt, tr)
	if err != nil {
		tr.Error = err.Error()
		f.Obs().End(tr)
		return nil, err
	}
	p.sql = sql
	var cache *PlanCache
	if cacheableStmt(stmt) {
		cache = f.PlanCache()
	}
	res, _, err := f.execute(tr, p.planEntry, opts, cache)
	return res, err
}

// execute runs a prepared entry under tr and ends tr: a fresh execution
// context, one span per node of the entry's plan stamped with the
// optimizer's estimates, the query's memory counters folded into the trace,
// and the finished trace harvested for feedback. On success a non-nil cache
// stores the entry before the harvest, so a replan request evicts it again
// and the next execution plans against the corrections recorded here.
func (f *Framework) execute(tr *obs.QueryTrace, ent *planEntry, opts ExecOptions, cache *PlanCache) (*Result, *obs.TraceSnapshot, error) {
	ctx := f.newExecContext(opts)
	// The allocator cleanup is the spill-file guarantee: whatever path
	// execution takes out of this function — rows, error, worker teardown —
	// the query's grants return to the pool and its spill directory is
	// removed.
	defer ctx.Alloc.Close()
	tr.Parallelism = ent.workers
	ctx.Trace = tr
	ctx.Spans = exec.BuildSpans(tr, ent.plan, ent.est.PathRows())
	if fb := f.feedbackIfEnabled(); fb != nil && ent.est != nil {
		fp := tr.Fingerprint
		ctx.BuildOvershoot = func(join rel.Node, estRows, actualRows float64) {
			fb.RecordBuildOvershoot(fp, feedback.NodeKey(join), estRows, actualRows)
		}
	}
	start := time.Now()
	rows, err := f.run(ctx, ent.plan, modifyTarget(ent.plan))
	tr.ExecNs = int64(time.Since(start))
	if ctx.Alloc != nil {
		tr.PeakBytes, tr.SpilledBytes = ctx.Alloc.Peak(), ctx.Alloc.Spilled()
		for _, op := range ctx.Alloc.Snapshot() {
			tr.AttachMemStats(op.Name, op.PeakBytes, op.SpilledBytes, op.SpillFiles, op.SpillEvents)
		}
	}
	if err != nil {
		tr.Error = err.Error()
		f.Obs().End(tr)
		return nil, nil, err
	}
	tr.Rows = int64(len(rows))
	snap := f.Obs().End(tr)
	if cache != nil {
		cache.Put(ent)
	}
	f.harvestFeedback(snap, ent.est)
	return &Result{Columns: ent.columns, Rows: rows}, snap, nil
}

// preparation is a statement on its way to the plan cache: the entry, and
// the plans and metadata session it was prepared from, which EXPLAIN
// annotates and CREATE MATERIALIZED VIEW registers.
type preparation struct {
	*planEntry
	logical, optimized rel.Node
	mq                 *meta.Query
}

// prepare is the one path from a statement to the plan that runs: convert →
// optimize → adaptive tactics → estimates → the parallel rewrite for the
// configured worker count. The plan cache stores its entry, EXPLAIN shows
// it and traces mirror it, so the plan shown is the plan that runs. tr
// receives the stage times and the optimizer's phases.
func (f *Framework) prepare(stmt parser.Statement, tr *obs.QueryTrace) (*preparation, error) {
	start := time.Now()
	logical, err := sql2rel.New(f.Catalog).Convert(stmt)
	if err != nil {
		return nil, err
	}
	tr.PlanNs = int64(time.Since(start))
	start = time.Now()
	physical, err := f.optimize(logical, &tr.Phases)
	if err != nil {
		return nil, err
	}
	p := f.preparePhysical(physical, tr.Fingerprint)
	p.logical = logical
	// The columns are named by the statement, not by the plan: rewrites that
	// drop an identity projection (over an aggregate, say) leave the
	// optimized root with its input's field names.
	p.columns = logical.RowType().FieldNames()
	tr.OptimizeNs = int64(time.Since(start))
	return p, nil
}

// preparePhysical is prepare from an optimized plan on, for the callers that
// optimized it themselves; the entry it returns has no SQL and no columns.
// The plan shape does not depend on memory governance: every worker charges
// the shared query budget through the same spill-capable operators the
// serial plan uses.
func (f *Framework) preparePhysical(physical rel.Node, fingerprint string) *preparation {
	// The adaptive post-pass, the estimate table and EXPLAIN share one
	// metadata session (feedback corrections included), so the estimates
	// stamped on the spans are exactly what the plan was judged by.
	mq := f.NewMetaQuery()
	physical = f.applyAdaptiveTactics(physical, mq)
	ent := &planEntry{est: f.planEstimates(fingerprint, physical, mq), workers: f.EffectiveParallelism(), morsel: f.morselSize()}
	ent.plan = parallel.Parallelize(physical, f.WorkerPool(), ent.workers, ent.morsel)
	return &preparation{planEntry: ent, optimized: physical, mq: mq}
}

// morselSize is the rows per batch plans run at, the unit the parallel
// rewrite splits scans into.
func (f *Framework) morselSize() int {
	if f.BatchSize > 0 {
		return f.BatchSize
	}
	return schema.DefaultBatchSize
}

// EffectiveParallelism resolves the configured worker count.
func (f *Framework) EffectiveParallelism() int {
	if f.Parallelism > 0 {
		return f.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerPool returns the framework's shared worker pool, creating it on
// first use. All parallel queries of this framework schedule their pipeline
// drivers on it.
func (f *Framework) WorkerPool() *parallel.Pool {
	f.poolMu.Lock()
	defer f.poolMu.Unlock()
	if f.pool == nil {
		f.pool = parallel.NewPool(f.EffectiveParallelism())
	}
	return f.pool
}

// ExecutePhysical prepares an already-optimized physical plan and runs it,
// untraced, under the framework's execution configuration (batch size,
// parallelism, memory budget).
func (f *Framework) ExecutePhysical(physical rel.Node) ([][]any, error) {
	ctx := f.newExecContext(ExecOptions{})
	defer ctx.Alloc.Close()
	return exec.Execute(ctx, f.preparePhysical(physical, "").plan)
}

func (f *Framework) explain(s *parser.ExplainStmt, sql string, opts ExecOptions) (*Result, error) {
	var text string
	if s.Logical {
		logical, err := sql2rel.New(f.Catalog).Convert(s.Target)
		if err != nil {
			return nil, err
		}
		mq := f.NewMetaQuery()
		text = rel.ExplainAnnotated(logical, func(n rel.Node) string { return estimate(mq, n) })
	} else {
		tr := &obs.QueryTrace{}
		if s.Analyze {
			tr = f.Obs().Begin(sql)
		}
		p, err := f.prepare(s.Target, tr)
		if err != nil {
			if s.Analyze {
				tr.Error = err.Error()
				f.Obs().End(tr)
			}
			return nil, err
		}
		text = p.explainText()
		if s.Analyze {
			statsText, err := f.explainAnalyze(tr, p.planEntry, opts)
			if err != nil {
				return nil, err
			}
			text += statsText
		}
	}
	var rows [][]any
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, []any{line})
	}
	return &Result{Columns: []string{"PLAN"}, Rows: rows, Plan: text}, nil
}

// explainText renders the prepared plan, each operator annotated with the
// estimates of the optimized operator at its path (rel.WalkPaths), so
// EXPLAIN shows what the cost-based decisions were based on. The synthetic
// nodes of the parallel rewrite have no path and carry no estimate.
func (p *preparation) explainText() string {
	byPath := map[string]string{}
	rel.WalkPaths(p.optimized, func(n, _ rel.Node, path string) { byPath[path] = estimate(p.mq, n) })
	byNode := map[rel.Node]string{}
	rel.WalkPaths(p.plan, func(n, _ rel.Node, path string) { byNode[n] = byPath[path] })
	return rel.ExplainAnnotated(p.plan, func(n rel.Node) string { return byNode[n] })
}

// estimate renders the metadata providers' estimates for n.
func estimate(mq *meta.Query, n rel.Node) string {
	return fmt.Sprintf("rows=%.4g, cost=%.4g", mq.RowCount(n), mq.CumulativeCost(n).Scalar())
}

// explainAnalyze runs the explained entry under tr, with the statement's
// options and a tracking allocator, and renders the run statistics from the
// finished trace snapshot — the same span tree /debug/queries serves as
// JSON, so the text and the JSON can never disagree.
func (f *Framework) explainAnalyze(tr *obs.QueryTrace, ent *planEntry, opts ExecOptions) (string, error) {
	opts.track = true
	_, snap, err := f.execute(tr, ent, opts, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "--- run stats ---\n")
	fmt.Fprintf(&b, "rows: %d, elapsed: %s\n", snap.Rows,
		time.Duration(snap.TotalNs).Round(time.Microsecond))
	budget := "unlimited"
	if lim := f.MemoryLimit; lim > 0 {
		budget = memory.FormatBytes(lim)
	}
	if ql := f.QueryMemoryLimit; ql > 0 {
		budget += ", per-query " + memory.FormatBytes(ql)
	}
	fmt.Fprintf(&b, "memory: budget=%s, peak=%s, spilled=%s\n",
		budget, memory.FormatBytes(snap.PeakBytes), memory.FormatBytes(snap.Spilled))
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	ph := tr.Phases
	fmt.Fprintf(&b, "optimize: rewrite=%s, join-order=%s (%d candidates, %d costed), physical=%s\n", us(ph.RewriteNs),
		us(ph.JoinOrderNs), ph.JoinCandidates, ph.JoinCosted, us(ph.PhysicalNs))
	b.WriteString(obs.RenderSpans(snap.Spans))
	return b.String(), nil
}

func (f *Framework) createTable(s *parser.CreateTableStmt) (*Result, error) {
	fields := make([]types.Field, len(s.Cols))
	for i, c := range s.Cols {
		t, err := validateType(c.Type)
		if err != nil {
			return nil, err
		}
		fields[i] = types.Field{Name: c.Name, Type: t.WithNullable(true)}
	}
	name := s.Name[len(s.Name)-1]
	target := f.Catalog
	if len(s.Name) > 1 {
		sub, ok := f.Catalog.SubSchema(s.Name[0])
		if !ok {
			return nil, fmt.Errorf("core: schema %q not found", s.Name[0])
		}
		base, ok := sub.(*schema.BaseSchema)
		if !ok {
			return nil, fmt.Errorf("core: schema %q does not accept DDL", s.Name[0])
		}
		target = base
	}
	target.AddTable(schema.NewMemTable(name, types.Row(fields...), nil))
	return &Result{Columns: []string{"RESULT"}, Rows: [][]any{{"table created"}}}, nil
}

func (f *Framework) createView(s *parser.CreateViewStmt, originalSQL string) (*Result, error) {
	name := s.Name[len(s.Name)-1]
	if !s.Materialized {
		logical, err := sql2rel.New(f.Catalog).Convert(s.Query)
		if err != nil {
			return nil, err
		}
		f.Catalog.AddTable(&schema.ViewTable{
			ViewName: name,
			SQL:      s.SQL,
			Type:     logical.RowType(),
		})
		return &Result{Columns: []string{"RESULT"}, Rows: [][]any{{"view created"}}}, nil
	}
	// Materialized view: execute the definition now, store the rows, and
	// register the (definition plan, storage table) pair with the rewriting
	// registry (§6 "materialized views").
	p, err := f.prepare(s.Query, &obs.QueryTrace{})
	if err != nil {
		return nil, err
	}
	bases := mv.TakeSnapshot(p.logical)
	mvCtx := f.newExecContext(ExecOptions{})
	defer mvCtx.Alloc.Close()
	rows, err := exec.Execute(mvCtx, p.plan)
	if err != nil {
		return nil, err
	}
	table := schema.NewMemTable(name, p.logical.RowType(), rows)
	f.Catalog.AddTable(table)
	// Register the definition plan in its logically optimized form — the
	// statistics-independent canonicalization. The join-order enumeration,
	// whose outcome depends on current statistics, is applied per planning
	// session (substitutionRules) so the view side always matches queries
	// normalized with the same estimates.
	f.Views.Register(&mv.MaterializedView{
		Name:  name,
		Plan:  f.logicalOptimize(p.logical, f.NewMetaQuery()),
		Table: table,
		Bases: bases,
	})
	return &Result{Columns: []string{"RESULT"}, Rows: [][]any{{fmt.Sprintf("materialized view created (%d rows)", len(rows))}}}, nil
}

func validateType(ts parser.TypeSpec) (*types.Type, error) {
	return sql2rel.ConvertTypeSpec(ts)
}

// newExecContext builds an execution context honoring the framework's
// execution configuration and the per-execution options. The query's memory
// account is nil when no budget governs it and nothing asks to track it; a
// tenant pool override always yields a spill-capable account drawing from
// that pool. Callers own the allocator: defer ctx.Alloc.Close() (nil-safe)
// so grants and spill files are reclaimed on every exit path.
func (f *Framework) newExecContext(opts ExecOptions) *exec.Context {
	ctx := exec.NewContext()
	ctx.BatchSize = f.BatchSize
	ctx.Interrupt = opts.Interrupt
	ctx.Params = opts.Params
	pool := opts.Pool
	if pool == nil && (f.MemoryLimit > 0 || f.QueryMemoryLimit > 0 || opts.track) {
		pool = f.MemoryPool()
	}
	if pool != nil {
		ctx.Alloc = memory.NewAllocator(pool, f.QueryMemoryLimit, !f.DisableSpill)
	}
	return ctx
}
