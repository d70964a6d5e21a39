package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/types"
)

func cacheTestFramework(t *testing.T) *Framework {
	t.Helper()
	f := New()
	f.Catalog.AddTable(schema.NewMemTable("t",
		types.Row(
			types.Field{Name: "id", Type: types.BigInt.WithNullable(true)},
			types.Field{Name: "v", Type: types.Double.WithNullable(true)},
		),
		[][]any{
			{int64(1), 1.5},
			{int64(2), 2.5},
			{int64(3), 3.5},
		}))
	return f
}

// TestPlanCacheHitSkipsPlanning re-runs one statement and checks the second
// execution is a hit with identical results and zero plan/optimize time.
func TestPlanCacheHitSkipsPlanning(t *testing.T) {
	f := cacheTestFramework(t)
	const q = "SELECT id FROM t WHERE v > 2 ORDER BY id"
	first, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("cached run differs: %v vs %v", first.Rows, second.Rows)
	}
	c := f.PlanCache().Counters()
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss", c)
	}
	// The cached trace records the hit and skips the planning stages.
	traces := f.Obs().Recent.Snapshot()
	if len(traces) < 1 || !traces[0].Cached {
		t.Fatalf("latest trace not marked cached: %+v", traces[0])
	}
	if traces[0].PlanNs != 0 || traces[0].OptimizeNs != 0 {
		t.Fatalf("cached trace has planning time: plan=%d optimize=%d",
			traces[0].PlanNs, traces[0].OptimizeNs)
	}
}

// TestPlanCacheParamsRebind verifies the big win: a prepared statement's plan
// is reused across executions with different parameter bindings.
func TestPlanCacheParamsRebind(t *testing.T) {
	f := cacheTestFramework(t)
	const q = "SELECT id FROM t WHERE v > ? ORDER BY id"
	r1, err := f.Execute(q, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Execute(q, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 3 || len(r2.Rows) != 1 {
		t.Fatalf("param rebind wrong: %v / %v", r1.Rows, r2.Rows)
	}
	if c := f.PlanCache().Counters(); c.Hits != 1 {
		t.Fatalf("second binding should hit: %+v", c)
	}
}

// TestPlanCacheLiteralsDoNotAlias is the correctness guard: two statements
// that normalize to the same fingerprint but differ in literal values must
// never share a plan (literals are baked into compiled expressions).
func TestPlanCacheLiteralsDoNotAlias(t *testing.T) {
	f := cacheTestFramework(t)
	r1, err := f.Execute("SELECT id FROM t WHERE v > 1.0")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Execute("SELECT id FROM t WHERE v > 3.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 3 || len(r2.Rows) != 1 {
		t.Fatalf("literal variants aliased: %v / %v", r1.Rows, r2.Rows)
	}
	if c := f.PlanCache().Counters(); c.Hits != 0 {
		t.Fatalf("different literals must miss, got %+v", c)
	}
}

// countRows runs a SELECT COUNT(*) statement and returns the count.
func countRows(t *testing.T, f *Framework, q string) int64 {
	t.Helper()
	res, err := f.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].(int64)
	return n
}

// TestPlanCacheInvalidation pins what invalidates what: INSERT nothing,
// ANALYZE the plans that scan the analyzed table, DDL everything. It runs
// over serial plans and over parallel ones, which read their tables
// through MorselScans (in one-row morsels, so that the three-row tables span
// several).
func TestPlanCacheInvalidation(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) { testPlanCacheInvalidation(t, p) })
	}
}

func testPlanCacheInvalidation(t *testing.T, parallelism int) {
	f := cacheTestFramework(t)
	f.Parallelism = parallelism
	f.BatchSize = 1
	f.Catalog.AddTable(schema.NewMemTable("u",
		types.Row(types.Field{Name: "id", Type: types.BigInt.WithNullable(true)}),
		[][]any{{int64(1)}, {int64(2)}}))
	const (
		onT  = "SELECT COUNT(*) FROM t"
		onU  = "SELECT COUNT(*) FROM u"
		onTU = "SELECT COUNT(*) FROM t JOIN u ON t.id = u.id"
	)
	for _, q := range []string{onT, onU, onTU} {
		countRows(t, f, q)
		if ent := cachedEntry(f, q); parallelism > 1 && (ent == nil || !strings.Contains(planTree(ent.plan), "MorselScan")) {
			t.Fatalf("%s: no parallel plan cached", q)
		}
	}
	if f.PlanCache().Len() != 3 {
		t.Fatalf("plans not cached: %d entries", f.PlanCache().Len())
	}

	// INSERT evicts nothing, and the next read is a hit that sees the row.
	before := f.PlanCache().Counters()
	if _, err := f.Execute("INSERT INTO t VALUES (4, 4.5)"); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, f, onT); got != 4 {
		t.Fatalf("count after insert = %d, want 4", got)
	}
	after := f.PlanCache().Counters()
	if after.Invalidations != before.Invalidations || after.TableEvictions != 0 {
		t.Fatalf("INSERT invalidated plans: before %+v, after %+v", before, after)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses+1 {
		t.Fatalf("want the INSERT to miss once and the read to hit: before %+v, after %+v", before, after)
	}
	if f.PlanCache().Len() != 4 { // the three reads and the INSERT itself
		t.Fatalf("cache holds %d entries after INSERT, want 4", f.PlanCache().Len())
	}

	// ANALYZE t evicts the plans that scan t, not the plan on u alone.
	if _, err := f.Execute("ANALYZE TABLE t"); err != nil {
		t.Fatal(err)
	}
	c := f.PlanCache().Counters()
	if c.TableEvictions != 2 || c.Invalidations != before.Invalidations {
		t.Fatalf("ANALYZE t: %+v, want 2 table evictions and no whole-cache flush", c)
	}
	hits := c.Hits
	countRows(t, f, onU)
	if got := f.PlanCache().Counters().Hits; got != hits+1 {
		t.Fatal("ANALYZE t evicted the plan on u")
	}
	countRows(t, f, onT)
	countRows(t, f, onTU)
	if got := f.PlanCache().Counters().Hits; got != hits+1 {
		t.Fatal("plans on t survived ANALYZE t")
	}

	// DDL still flushes everything.
	if _, err := f.Execute("CREATE TABLE t2 (x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if f.PlanCache().Len() != 0 {
		t.Fatal("DDL did not flush the plan cache")
	}
	if got := f.PlanCache().Counters().Invalidations; got != before.Invalidations+1 {
		t.Fatalf("invalidations = %d, want %d", got, before.Invalidations+1)
	}
}

// TestPlanCacheInsertIsCached: a parameterized INSERT plans once; every later
// execution is a hit that binds its own values.
func TestPlanCacheInsertIsCached(t *testing.T) {
	f := cacheTestFramework(t)
	for i := 0; i < 100; i++ {
		if _, err := f.Execute("INSERT INTO t VALUES (?, ?)", int64(100+i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := f.PlanCache().Counters(); c.Misses != 1 || c.Hits != 99 {
		t.Fatalf("counters = %+v, want 1 miss / 99 hits", c)
	}
	res, err := f.Execute("SELECT COUNT(*), COUNT(DISTINCT id) FROM t WHERE id >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(100) || res.Rows[0][1] != int64(100) {
		t.Fatalf("inserted rows = %v, want 100 distinct", res.Rows[0])
	}
}

// TestPlanCacheTableDoubling: a table that doubles under INSERTs has its
// plans evicted once, at the doubling, and the statements that scan it get
// their spent replan budget back.
func TestPlanCacheTableDoubling(t *testing.T) {
	f := cacheTestFramework(t)
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = []any{int64(i)}
	}
	f.Catalog.AddTable(schema.NewMemTable("big",
		types.Row(types.Field{Name: "v", Type: types.BigInt.WithNullable(true)}), rows))
	// Twenty texts of one fingerprint, each with a predicate every row
	// passes and the estimator prices as an equality: each execution is far
	// off an estimate no earlier one corrected. (Parameter bindings would not
	// do: what a bound operator returns is not learned from.)
	drift := func(from int) {
		for k := from; k < from+20; k++ {
			if _, err := f.Execute(fmt.Sprintf("SELECT COUNT(*) FROM big WHERE v * 0 + %d = %d", k, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drift(0)
	budget := f.Feedback().Counters().Replans
	if budget == 0 {
		t.Fatal("drifting statement never re-planned")
	}
	drift(20)
	if got := f.Feedback().Counters().Replans; got != budget {
		t.Fatalf("replans grew past the budget: %d → %d", budget, got)
	}
	countRows(t, f, "SELECT COUNT(*) FROM t")

	for i := 64; i < 128; i++ {
		if got := f.PlanCache().Counters().TableEvictions; got != 0 {
			t.Fatalf("plans evicted at %d rows, before the table doubled", i)
		}
		if _, err := f.Execute("INSERT INTO big VALUES (?)", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := f.PlanCache().Counters()
	if c.TableEvictions != 1 || c.Invalidations != 0 {
		t.Fatalf("doubling: %+v, want exactly the one plan on big evicted", c)
	}
	hits := c.Hits
	countRows(t, f, "SELECT COUNT(*) FROM t")
	if got := f.PlanCache().Counters().Hits; got != hits+1 {
		t.Fatal("doubling big evicted the plan on t")
	}
	drift(40)
	if got := f.Feedback().Counters().Replans; got != 2*budget {
		t.Fatalf("replans after doubling = %d, want %d (budget restored once)", got, 2*budget)
	}
}

// TestPlanCacheLRUEviction fills the cache beyond its cap and checks the
// oldest entries leave first.
func TestPlanCacheLRUEviction(t *testing.T) {
	f := cacheTestFramework(t)
	f.planCache = NewPlanCache(4)
	for i := 0; i < 10; i++ {
		// Distinct column aliases defeat literal normalization, so each
		// statement is a distinct fingerprint.
		q := fmt.Sprintf("SELECT id AS a%d FROM t", i)
		if _, err := f.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.PlanCache().Len(); got != 4 {
		t.Fatalf("cache size = %d, want 4", got)
	}
	c := f.PlanCache().Counters()
	if c.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", c.Evictions)
	}
	// Newest is still a hit; oldest re-plans.
	if _, err := f.Execute("SELECT id AS a9 FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := f.PlanCache().Counters().Hits; got != 1 {
		t.Fatalf("hits = %d, want 1 (newest retained)", got)
	}
	if _, err := f.Execute("SELECT id AS a0 FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := f.PlanCache().Counters().Hits; got != 1 {
		t.Fatalf("oldest entry should have been evicted (hits=%d)", got)
	}
}

// TestPlanCacheConcurrentReuse executes one cached plan from many goroutines
// at once — the sharing contract the serving tier depends on (run under
// -race in CI). The plan is a parallel one, so its morsel scan and gather
// are bound by every goroutine.
func TestPlanCacheConcurrentReuse(t *testing.T) {
	f := cacheTestFramework(t)
	f.Parallelism = 4
	const q = "SELECT id, v FROM t WHERE v > ? ORDER BY id"
	want, err := f.Execute(q, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				res, err := f.Execute(q, 0.0)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- fmt.Errorf("concurrent cached run differs: %v", res.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// cachedEntry returns the entry cached for sql without counting a lookup.
func cachedEntry(f *Framework, sql string) *planEntry {
	c := f.PlanCache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[obs.Fingerprint(sql)]; ok {
		return el.Value.(*planElem).ent
	}
	return nil
}

// planTree renders a plan's operators and attributes, one indented line each.
func planTree(n rel.Node) string {
	var b strings.Builder
	var walk func(n rel.Node, depth int)
	walk = func(n rel.Node, depth int) {
		fmt.Fprintf(&b, "%*s%s(%s)\n", 2*depth, "", n.Op(), n.Attrs())
		for _, in := range n.Inputs() {
			walk(in, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// spanTree renders a trace's span tree like planTree.
func spanTree(s *obs.SpanStats) string {
	var b strings.Builder
	var walk func(s *obs.SpanStats, depth int)
	walk = func(s *obs.SpanStats, depth int) {
		fmt.Fprintf(&b, "%*s%s(%s)\n", 2*depth, "", s.Name, s.Attrs)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

// TestPlanCacheHoldsPreparedPlan: the cache stores the plan that runs,
// parallelized for the worker count it was prepared for. A hit binds the
// cached tree as it is — its trace records no planning and its span tree is
// the cached tree, node for node — and a later switch to one worker misses,
// runs the serial plan and replaces the entry without flushing the cache,
// and so does a switch of morsel size. One-row morsels make the three-row
// table span several.
func TestPlanCacheHoldsPreparedPlan(t *testing.T) {
	f := cacheTestFramework(t)
	f.Parallelism = 4
	f.BatchSize = 1
	const q = "SELECT id, COUNT(*) FROM t WHERE v > 2 GROUP BY id"
	run := func() ([][]any, *obs.TraceSnapshot) {
		t.Helper()
		res, err := f.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, f.Obs().Recent.Snapshot()[0]
	}
	want, _ := run()
	ent := cachedEntry(f, q)
	if ent == nil || ent.workers != 4 || !strings.Contains(planTree(ent.plan), "MorselScan") {
		t.Fatalf("cache does not hold the parallel plan: %+v", ent)
	}

	rows, snap := run()
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("cached run differs: %v vs %v", rows, want)
	}
	if !snap.Cached || snap.PlanNs != 0 || snap.OptimizeNs != 0 || snap.Parallelism != 4 {
		t.Fatalf("hit trace: cached=%v plan=%d optimize=%d parallelism=%d",
			snap.Cached, snap.PlanNs, snap.OptimizeNs, snap.Parallelism)
	}
	if got, want := spanTree(snap.Spans), planTree(ent.plan); got != want {
		t.Fatalf("a hit ran another tree than the cached one:\n%s\nwant:\n%s", got, want)
	}
	if cachedEntry(f, q) != ent {
		t.Fatal("a hit replaced the cached entry")
	}

	f.Parallelism = 1
	rows, snap = run()
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("serial run differs: %v vs %v", rows, want)
	}
	if tree := spanTree(snap.Spans); snap.Cached || snap.Parallelism != 1 ||
		strings.Contains(tree, "MorselScan") || strings.Contains(tree, "Exchange") {
		t.Fatalf("parallelism 1 after a parallel run (cached=%v, parallelism=%d) ran:\n%s",
			snap.Cached, snap.Parallelism, tree)
	}
	if serial := cachedEntry(f, q); serial == ent || serial.workers != 1 || f.PlanCache().Len() != 1 {
		t.Fatalf("serial entry not prepared in place of the parallel one: %+v", serial)
	}
	if c := f.PlanCache().Counters(); c.Invalidations != 0 || c.Hits != 1 || c.Misses != 2 {
		t.Fatalf("counters = %+v, want 1 hit, 2 misses, no flush", c)
	}

	// An entry is prepared for its morsel size too: back at four workers, a
	// switch to default-size morsels misses, and the three-row table, now
	// one morsel, runs the serial plan.
	f.Parallelism = 4
	run()
	f.BatchSize = 0
	_, snap = run()
	if tree := spanTree(snap.Spans); snap.Cached || strings.Contains(tree, "MorselScan") || strings.Contains(tree, "Exchange") {
		t.Fatalf("default-size morsels after one-row morsels (cached=%v) ran:\n%s", snap.Cached, tree)
	}
}
