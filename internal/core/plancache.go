package core

// The prepared-plan cache: repeated statements skip the parse → validate →
// optimize → parallelize pipeline and jump straight to execution of the
// cached prepared plan (Framework.prepare), the tree EXPLAIN shows. Entries are keyed on the normalized-SQL fingerprint (obs.Fingerprint:
// literals and whitespace canonicalized), with the exact statement text kept
// as a guard — two statements that normalize identically but differ in
// literals plan differently, so only a byte-identical statement may reuse a
// plan. Prepared statements with "?" parameters are byte-identical across
// executions, which is exactly the repeated-statement class the cache is for:
// parameters bind at execution time, never at plan time.
//
// Prepared plan trees are immutable — operators compile expressions and
// allocate cursor state at bind time — so one cached plan may execute on any
// number of concurrent queries. An entry is prepared for one worker count
// and morsel size (the batch size, which decides the scans that stay
// serial): a lookup at another misses and re-prepares in its place.
//
// Invalidation says which table and why. A cached plan reads its tables when
// it executes, so rows inserted after it was optimized never make it wrong,
// only possibly mis-costed, and the feedback loop already evicts a statement
// whose estimates drift (EvictFingerprint). INSERT therefore touches nothing
// here. New statistics for one table — ANALYZE, or the table having doubled
// since its statistics were taken — evict the plans that scan that table
// (EvictTable). Only what changes the meaning of every plan — DDL, adapter,
// table, view or lattice registration, a planner switch — flushes the whole
// cache (Invalidate).

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"calcite/internal/exec"
	"calcite/internal/feedback"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/schema"
)

// DefaultPlanCacheSize bounds the plan cache's entry count; the feedback
// store keeps records of as many statements.
const DefaultPlanCacheSize = feedback.StatementCap

// planEntry is one prepared statement: the exact SQL (collision/literal
// guard), the plan that runs (optimized, then parallelized for workers),
// its output column names, and the optimized plan's per-operator estimate
// table (so cache hits stamp spans and harvest feedback without
// re-planning).
type planEntry struct {
	sql     string
	plan    rel.Node
	columns []string
	est     *feedback.PlanEstimates
	workers int
	morsel  int
}

// modifyTarget returns the table a DML plan writes, nil for a query.
func modifyTarget(physical rel.Node) schema.Table {
	if m, ok := physical.(*exec.TableModify); ok {
		return m.Table
	}
	return nil
}

// PlanCache is a concurrency-safe LRU of optimized plans with hit/miss/
// eviction/invalidation counters, sampled by the metrics registry through
// function-backed instruments.
type PlanCache struct {
	mu    sync.Mutex
	max   int
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // fingerprint → element holding *planEntry

	hits              atomic.Int64
	misses            atomic.Int64
	evictions         atomic.Int64
	invalidations     atomic.Int64
	feedbackEvictions atomic.Int64
	tableEvictions    atomic.Int64
}

type planElem struct {
	key string
	ent *planEntry
}

// NewPlanCache builds a cache bounded to max entries.
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{max: max, order: list.New(), byKey: map[string]*list.Element{}}
}

// Get returns the cached plan for sql, if the fingerprint maps to an entry
// whose statement text matches byte-for-byte and that was prepared for
// workers and morsel.
func (c *PlanCache) Get(sql string, workers, morsel int) (*planEntry, bool) {
	key := obs.Fingerprint(sql)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		if ent := el.Value.(*planElem).ent; ent.sql == sql && ent.workers == workers && ent.morsel == morsel {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return ent, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put stores a prepared plan, evicting the least recently used entry beyond
// capacity. A fingerprint collision (same key, different text, worker count
// or morsel size) is resolved in favor of the newest entry.
func (c *PlanCache) Put(ent *planEntry) {
	key := obs.Fingerprint(ent.sql)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*planElem).ent = ent
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&planElem{key: key, ent: ent})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*planElem).key)
		c.evictions.Add(1)
	}
}

// EvictFingerprint drops the entry for one statement fingerprint — the
// feedback loop's targeted invalidation: the next execution of that
// statement re-plans with corrected estimates while the rest of the cache
// stays warm. Reports whether an entry was present.
func (c *PlanCache) EvictFingerprint(key string) bool {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if ok {
		c.order.Remove(el)
		delete(c.byKey, key)
	}
	c.mu.Unlock()
	if ok {
		c.feedbackEvictions.Add(1)
	}
	return ok
}

// EvictTable drops every entry whose plan scans t — the targeted invalidation
// for new statistics on one table — and returns how many it dropped. Plans
// over other tables, and DML plans that only write t, stay cached. The plans
// are walked here, on the rare path, rather than tagged on every Put.
func (c *PlanCache) EvictTable(t schema.Table) int {
	c.mu.Lock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if pe := el.Value.(*planElem); slices.Contains(rel.ScannedTables(pe.ent.plan), t) {
			c.order.Remove(el)
			delete(c.byKey, pe.key)
			n++
		}
		el = next
	}
	c.mu.Unlock()
	c.tableEvictions.Add(int64(n))
	return n
}

// Invalidate drops every entry (DDL, adapter/table/lattice registration,
// planner switches).
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	if c.order.Len() > 0 {
		c.order.Init()
		c.byKey = map[string]*list.Element{}
		c.invalidations.Add(1)
	}
	c.mu.Unlock()
}

// Len reports the current entry count.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Counters is a point-in-time read of the cache's cumulative counters.
type PlanCacheCounters struct {
	Hits, Misses, Evictions, Invalidations int64
	// FeedbackEvictions counts targeted evictions requested by the
	// cardinality-feedback loop (EvictFingerprint).
	FeedbackEvictions int64
	// TableEvictions counts entries dropped because a table they scan got
	// new statistics (EvictTable).
	TableEvictions int64
}

// Counters returns the cumulative hit/miss/eviction/invalidation counts.
func (c *PlanCache) Counters() PlanCacheCounters {
	return PlanCacheCounters{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Evictions:         c.evictions.Load(),
		Invalidations:     c.invalidations.Load(),
		FeedbackEvictions: c.feedbackEvictions.Load(),
		TableEvictions:    c.tableEvictions.Load(),
	}
}
