// Acceptance tests for the cardinality-feedback loop: shared plan-cache /
// feedback-store invalidation, EXPLAIN ANALYZE estimate rendering, adaptive
// build/probe swapping after a hash-join build overshoot, and convergence of
// a stale-statistics workload toward the analyzed plan's work.
package calcite_test

import (
	"fmt"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/obs"
)

// TestFeedbackSharedInvalidation: the feedback store invalidates through the
// same funnel as the plan cache — INSERT touches neither, ANALYZE of one
// table forgets the statements that scan it in both, DDL empties both.
func TestFeedbackSharedInvalidation(t *testing.T) {
	conn := starConn(2000)
	conn.SetParallelism(1)
	const onSales, onD1 = "SELECT COUNT(*) AS n FROM sales WHERE amt < 50", "SELECT COUNT(*) AS n FROM d1 WHERE v1 < 10"
	for i := 0; i < 2; i++ {
		for _, q := range []string{onSales, onD1} {
			if _, err := conn.Query(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	cache, fb := conn.Framework.PlanCache(), conn.Framework.Feedback()
	if fps, _ := fb.Size(); cache.Len() != 2 || fps != 2 {
		t.Fatalf("after repeated queries: %d cached plans, %d feedback fingerprints, want 2 and 2", cache.Len(), fps)
	}

	before := cache.Counters()
	if _, err := conn.Exec("INSERT INTO sales VALUES (1, 1, 1, 1, 1.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query(onSales)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != int64(1051) { // 1050 of the 2000 seed rows have amt < 50
		t.Fatalf("count after INSERT = %v, want 1051", got)
	}
	after := cache.Counters()
	if after.Hits != before.Hits+1 || after.Invalidations != before.Invalidations || after.TableEvictions != 0 {
		t.Fatalf("INSERT must leave the cached plans alone and the next read must hit: before %+v, after %+v", before, after)
	}
	if fps, _ := fb.Size(); fps != 3 || fb.Counters().Invalidations != 0 { // the INSERT is a statement too
		t.Fatalf("INSERT touched the feedback store: %d fingerprints, %+v", fps, fb.Counters())
	}

	if _, err := conn.Exec("ANALYZE TABLE sales"); err != nil {
		t.Fatal(err)
	}
	if c := cache.Counters(); c.TableEvictions != 1 || c.Invalidations != before.Invalidations {
		t.Fatalf("ANALYZE sales: %+v, want the one plan on sales evicted and no flush", c)
	}
	for _, r := range fb.Report() {
		if r.SQL == onSales {
			t.Fatal("feedback record of the statement on sales survived ANALYZE sales")
		}
	}
	if fps, ops := fb.Size(); fps != 2 || ops == 0 {
		t.Fatalf("ANALYZE sales left %d fingerprints, %d corrections; the statement on d1 must keep its", fps, ops)
	}

	if _, err := conn.Exec("CREATE TABLE scratch (x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if fps, ops := fb.Size(); cache.Len() != 0 || fps != 0 || ops != 0 {
		t.Fatalf("DDL left %d plans, %d fingerprints, %d corrections", cache.Len(), fps, ops)
	}
	if fb.Counters().Invalidations != 1 || cache.Counters().Invalidations != before.Invalidations+1 {
		t.Fatal("DDL flush not counted once in both")
	}
}

// TestFeedbackDisabled: with the loop off, executions leave no feedback
// state behind.
func TestFeedbackDisabled(t *testing.T) {
	conn := starConn(1000)
	conn.EnableFeedback(false)
	if _, err := conn.Query("SELECT COUNT(*) AS n FROM sales WHERE amt < 50"); err != nil {
		t.Fatal(err)
	}
	if fps, ops := conn.Framework.Feedback().Size(); fps != 0 || ops != 0 {
		t.Fatalf("disabled feedback still harvested: %d fingerprints, %d corrections", fps, ops)
	}
}

// TestExplainAnalyzeEstimates: EXPLAIN ANALYZE renders the optimizer's est=
// next to actual rows=, with the drift marker on operators whose estimate
// was off by DriftQError or more, and the same numbers land in the feedback
// report.
func TestExplainAnalyzeEstimates(t *testing.T) {
	conn := starConn(2000)
	conn.SetParallelism(1)
	// Unanalyzed, "amt < 1000" defaults to selectivity 0.5 (est 1000) but
	// amt values lie in [0, 97): every row passes, q-error = 2 = drift.
	res, err := conn.Query("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM sales WHERE amt < 1000")
	if err != nil {
		t.Fatal(err)
	}
	text := res.Plan
	if !strings.Contains(text, ", est=") {
		t.Fatalf("EXPLAIN ANALYZE missing estimates:\n%s", text)
	}
	if !strings.Contains(text, "!]") {
		t.Fatalf("EXPLAIN ANALYZE missing drift marker for a 2x misestimate:\n%s", text)
	}

	reports := conn.FeedbackReport()
	if len(reports) == 0 {
		t.Fatal("no feedback report after EXPLAIN ANALYZE")
	}
	r := reports[0]
	if r.MaxQError < 2 || len(r.Ops) == 0 {
		t.Fatalf("report lacks the observed drift: %+v", r)
	}
	var drifted bool
	for _, op := range r.Ops {
		if op.EstRows > 0 && op.ActualRows > 0 && op.QError >= 2 {
			drifted = true
		}
	}
	if !drifted {
		t.Fatalf("no operator carries est/actual with the 2x error: %+v", r.Ops)
	}
}

// TestFeedbackBuildOvershootSwap: a hash join whose build side produces far
// more rows than estimated must (a) record the overshoot, (b) swap build and
// probe sides at the next planning of the statement, and (c) keep the output
// identical through the column-restoring projection — serially and at
// parallelism 4, where the join drains its build partitions in parallel.
func TestFeedbackBuildOvershootSwap(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) { testBuildOvershootSwap(t, par) })
	}
}

func testBuildOvershootSwap(t *testing.T, par int) {
	conn := starConn(2000)
	conn.SetParallelism(par)
	// Written order keeps d1 (50 rows) on the probe side and the filtered d2
	// on the build side. Unanalyzed, the three always-true range conjuncts
	// estimate 0.5^3 = 0.125 of d2's 2000 rows (est 250), but all 2000 pass:
	// an 8x build overshoot, past the 4x/256-row thresholds.
	const sql = `SELECT COUNT(*) AS n FROM d1
		JOIN d2 ON d1.k1 = d2.k2
		WHERE d2.v2 < 5000 AND d2.v2 > -1 AND d2.k2 < 5000`

	first, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	fb := conn.Framework.Feedback()
	if c := fb.Counters(); c.BuildOvershoots == 0 {
		t.Fatalf("build overshoot not recorded: %+v", c)
	}

	// The overshoot marked the statement for replanning; the second
	// execution replans and the adaptive pass swaps the join's sides.
	second, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if c := fb.Counters(); c.SwapsApplied == 0 {
		t.Fatalf("build/probe swap not applied on replan: %+v", c)
	}
	if len(first.Rows) != 1 || len(second.Rows) != 1 || first.Rows[0][0] != second.Rows[0][0] {
		t.Fatalf("swap changed the result: %v vs %v", first.Rows, second.Rows)
	}

	// The executed span tree of the second run has the big side as the
	// join's first (probe) child and d1 as the build input.
	traces := conn.LastTraces(1)
	if len(traces) == 0 || traces[0].Spans == nil {
		t.Fatal("no trace for the swapped run")
	}
	join := findSpan(traces[0].Spans, "HashJoin")
	if join == nil || len(join.Children) != 2 {
		t.Fatalf("no 2-input join span:\n%s", obs.RenderSpans(traces[0].Spans))
	}
	if !spanSubtreeHasTable(join.Children[0], "d2") || !spanSubtreeHasTable(join.Children[1], "d1") {
		t.Fatalf("join sides not swapped (want d2 probe, d1 build):\n%s",
			obs.RenderSpans(traces[0].Spans))
	}
}

// spanSubtreeHasTable reports whether any span under s scans table.
func spanSubtreeHasTable(s *obs.SpanStats, table string) bool {
	if s == nil {
		return false
	}
	if strings.Contains(s.Attrs, "table=["+table+"]") {
		return true
	}
	for _, c := range s.Children {
		if spanSubtreeHasTable(c, table) {
			return true
		}
	}
	return false
}

// workOf runs sql once and returns the rows its plan's operators above the
// scans produced, summed over the trace's spans: the work the join order
// decides, which load on the host does not move. Scans are left out because
// every plan reads every table once.
func workOf(t *testing.T, conn *calcite.Connection, sql string) int64 {
	t.Helper()
	if _, err := conn.Query(sql); err != nil {
		t.Fatal(err)
	}
	var sum func(s *obs.SpanStats) int64
	sum = func(s *obs.SpanStats) int64 {
		var n int64
		for _, c := range s.Children {
			n += sum(c)
		}
		if len(s.Children) > 0 {
			n += s.Rows
		}
		return n
	}
	return sum(conn.LastTraces(1)[0].Spans)
}

// TestFeedbackConvergence is the acceptance test for the feedback loop: a
// star-join workload planned with stale (never-ANALYZEd) statistics must,
// after at most 5 executions, do within 2x of the fully-ANALYZEd plan's work
// (rows produced by the operators above the scans) — the harvested
// cardinalities steer the join-order enumeration to the same neighborhood
// the real statistics would.
func TestFeedbackConvergence(t *testing.T) {
	const factRows = 20000

	analyzed := starConn(factRows)
	analyzed.SetParallelism(1)
	analyzeStar(t, analyzed)
	workOf(t, analyzed, starQuery) // warm the plan cache
	baseline := workOf(t, analyzed, starQuery)

	stale := starConn(factRows)
	stale.SetParallelism(1)
	// Converge: each execution harvests actuals; drifted statements are
	// re-planned with corrected cardinalities on their next execution.
	want := runRows(t, analyzed, starQuery)
	for i := 0; i < 5; i++ {
		got := runRows(t, stale, starQuery)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("execution %d: feedback changed the result: %v vs %v", i, got, want)
		}
	}
	if c := stale.Framework.Feedback().Counters(); c.Replans == 0 {
		t.Fatalf("stale-stats workload never requested a replan: %+v", c)
	}

	if converged := workOf(t, stale, starQuery); converged > 2*baseline {
		t.Fatalf("not converged after 5 executions: %d rows produced vs analyzed %d (limit 2x)",
			converged, baseline)
	}
}
