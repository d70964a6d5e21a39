package feedback

import (
	"math"
	"testing"

	"calcite/internal/exec"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func testTable(name string, rows int) *schema.MemTable {
	rt := types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	)
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{int64(i), int64(i % 7)}
	}
	return schema.NewMemTable(name, rt, data)
}

// TestNodeKeyLogicalPhysicalStable pins the bridge between the optimizer's
// conventions: a logical table scan explored by the join-order enumeration
// must hash to the same correction key as the enumerable scan that executed,
// and likewise for a logical join vs the hash join built from it.
func TestNodeKeyLogicalPhysicalStable(t *testing.T) {
	tb := testTable("t", 10)
	logical := rel.NewTableScan(trait.Logical, tb, []string{"t"})
	physical := exec.NewScan(tb, []string{"t"})
	if NodeKey(logical) != NodeKey(physical) {
		t.Fatalf("scan keys differ: logical=%x physical=%x", NodeKey(logical), NodeKey(physical))
	}

	other := testTable("u", 10)
	cond := rex.NewCall(rex.OpEquals,
		rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	lj := rel.NewJoin(rel.InnerJoin,
		rel.NewTableScan(trait.Logical, tb, []string{"t"}),
		rel.NewTableScan(trait.Logical, other, []string{"u"}), cond)
	pj := exec.NewHashJoin(rel.InnerJoin,
		exec.NewScan(tb, []string{"t"}), exec.NewScan(other, []string{"u"}), cond)
	if NodeKey(lj) != NodeKey(pj) {
		t.Fatalf("join keys differ: logical=%x physical=%x", NodeKey(lj), NodeKey(pj))
	}

	// Different tables must not collide.
	if NodeKey(logical) == NodeKey(rel.NewTableScan(trait.Logical, other, []string{"u"})) {
		t.Fatal("distinct scans hashed alike")
	}
}

// TestEstimatePlanPaths checks the stable path-id assignment: root "0",
// children "0.<i>".
func TestEstimatePlanPaths(t *testing.T) {
	tb, ub := testTable("t", 10), testTable("u", 20)
	cond := rex.NewCall(rex.OpEquals,
		rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	j := exec.NewHashJoin(rel.InnerJoin,
		exec.NewScan(tb, []string{"t"}), exec.NewScan(ub, []string{"u"}), cond)
	pe := EstimatePlan("fp", j, func(n rel.Node) float64 {
		if n == j {
			return 200
		}
		return 10
	})
	if len(pe.ByPath) != 3 {
		t.Fatalf("want 3 estimates, got %d", len(pe.ByPath))
	}
	if e := pe.ByPath["0"]; e.Rows != 200 {
		t.Fatalf("root estimate = %+v", e)
	}
	for _, p := range []string{"0.0", "0.1"} {
		if e, ok := pe.ByPath[p]; !ok || e.Rows != 10 {
			t.Fatalf("path %s estimate = %+v ok=%v", p, e, ok)
		}
	}
	rowsByPath := pe.PathRows()
	if rowsByPath["0"] != 200 || rowsByPath["0.0"] != 10 {
		t.Fatalf("PathRows = %v", rowsByPath)
	}
	var nilPE *PlanEstimates
	if nilPE.PathRows() != nil {
		t.Fatal("nil PlanEstimates should flatten to nil")
	}
}

func scanSnapshot(fp string, actual int64, est float64) *obs.TraceSnapshot {
	return &obs.TraceSnapshot{
		Fingerprint: fp,
		SQL:         "SELECT * FROM t",
		Spans:       &obs.SpanStats{Name: "TableScan", Path: "0", Rows: actual, EstRows: est},
	}
}

// TestHarvestCorrectionEWMA drives repeated harvests of one scan and checks
// the exponential smoothing and the maxRatio bound.
func TestHarvestCorrectionEWMA(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()

	if _, ok := s.CorrectedRowCount(scan); ok {
		t.Fatal("empty store served a correction")
	}

	// First observation: actual becomes the correction outright.
	if !s.Harvest(scanSnapshot("fp", 1000, 100), pe) {
		t.Fatal("q-error 10 should request a replan")
	}
	got, ok := s.CorrectedRowCount(scan)
	if !ok || got != 1000 {
		t.Fatalf("after first harvest: got %v ok=%v, want 1000", got, ok)
	}

	// Second observation smooths: 0.5*500 + 0.5*1000 = 750.
	s.Harvest(scanSnapshot("fp", 500, 100), pe)
	got, _ = s.CorrectedRowCount(scan)
	if math.Abs(got-750) > 1e-9 {
		t.Fatalf("EWMA: got %v, want 750", got)
	}

	// A wild observation stays bounded to est*maxRatio = 100*64 = 6400.
	s.Harvest(scanSnapshot("fp", 1_000_000, 100), pe)
	got, _ = s.CorrectedRowCount(scan)
	if got != 6400 {
		t.Fatalf("maxRatio bound: got %v, want 6400", got)
	}

	fps, ops := s.Size()
	if fps != 1 || ops != 1 {
		t.Fatalf("Size = (%d, %d), want (1, 1)", fps, ops)
	}
	if s.WorstQError() < 100 {
		t.Fatalf("WorstQError = %v, want >= 100", s.WorstQError())
	}
	if c := s.Counters(); c.Harvests != 3 || c.Samples != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestHarvestSmallErrorNoReplan: a near-perfect estimate must not evict.
func TestHarvestSmallErrorNoReplan(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()
	if s.Harvest(scanSnapshot("fp", 120, 100), pe) {
		t.Fatal("q-error 1.2 requested a replan")
	}
}

// TestHarvestSkipsErroredAndUnestimated: failed executions and spans without
// estimates contribute nothing.
func TestHarvestSkipsErroredAndUnestimated(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()

	snap := scanSnapshot("fp", 1000, 100)
	snap.Error = "boom"
	if s.Harvest(snap, pe) {
		t.Fatal("errored trace harvested")
	}
	if s.Harvest(nil, pe) || s.Harvest(scanSnapshot("fp", 1000, 100), nil) {
		t.Fatal("nil inputs harvested")
	}
	// A span whose path is absent from the estimate table is skipped.
	stray := &obs.TraceSnapshot{Fingerprint: "fp", Spans: &obs.SpanStats{Name: "X", Path: "9.9", Rows: 5}}
	s.Harvest(stray, pe)
	if c := s.Counters(); c.Samples != 0 {
		t.Fatalf("samples = %d, want 0", c.Samples)
	}
}

// TestBuildOvershootAndSwap pins the swap-preference thresholds and the
// pending-replan handoff to the next harvest.
func TestBuildOvershootAndSwap(t *testing.T) {
	s := NewStore()
	const key = uint64(0x10c4)

	// Below the noise floor: ignored.
	s.RecordBuildOvershoot("fp", key, 10, 100)
	if s.PreferSwap(key) {
		t.Fatal("overshoot below overshootMinRows recorded")
	}
	// Big but within the factor: ignored.
	s.RecordBuildOvershoot("fp", key, 500, 1000)
	if s.PreferSwap(key) {
		t.Fatal("overshoot below overshootFactor recorded")
	}
	// Past both thresholds: recorded.
	s.RecordBuildOvershoot("fp", key, 100, 1000)
	if !s.PreferSwap(key) || s.SwapCount() != 1 {
		t.Fatal("qualifying overshoot not recorded")
	}
	if c := s.Counters(); c.BuildOvershoots != 1 {
		t.Fatalf("overshoot counter = %d", c.BuildOvershoots)
	}

	// The overshoot marks the fingerprint for replanning even when the next
	// harvest's q-errors are mild.
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	if !s.Harvest(scanSnapshot("fp", 100, 100), pe) {
		t.Fatal("pending overshoot did not request a replan")
	}
	// The flag is consumed.
	if s.Harvest(scanSnapshot("fp", 100, 100), pe) {
		t.Fatal("replan flag not cleared after harvest")
	}
}

// TestReplanCap: a statement whose actual cardinality genuinely varies
// between executions (e.g. parameterized predicates) keeps drifting forever;
// after maxReplans requests the store stops evicting its plan so the cache
// stays useful, while corrections continue to update.
func TestReplanCap(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()

	for i := 0; i < maxReplans; i++ {
		if !s.Harvest(scanSnapshot("fp", 1000, 100), pe) {
			t.Fatalf("replan %d under the cap not requested", i+1)
		}
	}
	if s.Harvest(scanSnapshot("fp", 1000, 100), pe) {
		t.Fatal("replan past maxReplans requested")
	}
	// Even a pending overshoot no longer evicts past the cap.
	s.RecordBuildOvershoot("fp", 0x7a, 100, 1000)
	if s.Harvest(scanSnapshot("fp", 1000, 100), pe) {
		t.Fatal("overshoot bypassed the replan cap")
	}
	// Corrections keep flowing regardless.
	if got, ok := s.CorrectedRowCount(scan); !ok || got != 1000 {
		t.Fatalf("correction stopped updating past the cap: %v ok=%v", got, ok)
	}
	// Invalidation resets the budget.
	s.Invalidate()
	s.Harvest(scanSnapshot("fp", 1000, 100), pe)
	if !s.Harvest(scanSnapshot("fp", 1000, 100), pe) {
		t.Fatal("replan budget not reset by Invalidate")
	}
}

// TestBoundOperatorsTeachNothing: what an operator over a "?" returned is a
// fact about one binding. However far off, it is reported and neither
// corrected nor re-planned on — nor is anything above it — while the scan
// below still learns; a "?1" inside a string literal is no parameter.
func TestBoundOperatorsTeachNothing(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	v := rex.NewInputRef(1, types.BigInt)
	bound := exec.NewFilter(scan, rex.NewCall(rex.OpLess, v, &rex.DynamicParam{Index: 0, T: types.BigInt}))
	top := exec.NewFilter(bound, rex.NewCall(rex.OpEquals, v, rex.NewLiteral(int64(3), types.BigInt)))
	pe := EstimatePlan("fp", top, func(rel.Node) float64 { return 10 })
	if !pe.ByPath["0"].Bound || !pe.ByPath["0.0"].Bound || pe.ByPath["0.0.0"].Bound {
		t.Fatalf("bound marks = %+v", pe.ByPath)
	}
	quoted := exec.NewFilter(scan, rex.NewCall(rex.OpEquals, v, rex.NewLiteral("it's ?1", types.Varchar)))
	if EstimatePlan("fp", quoted, func(rel.Node) float64 { return 10 }).ByPath["0"].Bound {
		t.Fatal("a question mark in a literal counted as a parameter")
	}

	s := NewStore()
	snap := &obs.TraceSnapshot{Fingerprint: "fp", SQL: "q", Spans: &obs.SpanStats{Path: "0", Rows: 1000,
		Children: []*obs.SpanStats{{Path: "0.0", Rows: 1000,
			Children: []*obs.SpanStats{{Path: "0.0.0", Rows: 12}}}}}}
	if s.Harvest(snap, pe) {
		t.Fatal("a binding's row count requested a re-plan")
	}
	for _, n := range []rel.Node{top, bound} {
		if got, ok := s.CorrectedRowCount(n); ok {
			t.Fatalf("bound operator corrected to %v", got)
		}
	}
	if got, ok := s.CorrectedRowCount(scan); !ok || got != 12 {
		t.Fatalf("scan under a bound filter: %v ok=%v, want 12", got, ok)
	}
	if r := s.Report(); len(r) != 1 || r[0].MaxQError != 100 {
		t.Fatalf("report = %+v, want the q-error of 100 on record", r)
	}
}

// TestInvalidateTable: new statistics for one table forget the statements
// that scan it — record and spent replan budget — and leave a statement over
// another table alone. Corrections are observations of the data and stay.
func TestInvalidateTable(t *testing.T) {
	tb, ub := testTable("t", 10), testTable("u", 10)
	scanT := exec.NewScan(tb, []string{"t"})
	scanU := exec.NewScan(ub, []string{"u"})
	join := exec.NewHashJoin(rel.InnerJoin, scanT, exec.NewScan(ub, []string{"u2"}),
		rex.NewCall(rex.OpEquals, rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt)))
	est := func(rel.Node) float64 { return 100 }
	peT := EstimatePlan("fpT", scanT, est)
	peU := EstimatePlan("fpU", scanU, est)
	peTU := EstimatePlan("fpTU", join, est)
	s := NewStore()
	for _, pe := range []*PlanEstimates{peT, peU} {
		fp := pe.Fingerprint
		for i := 0; i < maxReplans; i++ {
			if !s.Harvest(scanSnapshot(fp, 1000, 100), pe) {
				t.Fatalf("%s: drift %d under the cap not re-planned", fp, i+1)
			}
		}
		if s.Harvest(scanSnapshot(fp, 1000, 100), pe) {
			t.Fatalf("%s: re-planned past maxReplans", fp)
		}
	}
	s.Harvest(&obs.TraceSnapshot{Fingerprint: "fpTU", Spans: &obs.SpanStats{Path: "0", Rows: 1000, Children: []*obs.SpanStats{
		{Path: "0.0", Rows: 10}, {Path: "0.1", Rows: 10}}}}, peTU)

	s.InvalidateTable(tb)
	if fps, _ := s.Size(); fps != 1 {
		t.Fatalf("fingerprints after InvalidateTable(t) = %d, want only the one on u", fps)
	}
	for _, n := range []rel.Node{scanT, scanU, join} {
		if _, ok := s.CorrectedRowCount(n); !ok {
			t.Fatalf("correction on %s dropped by InvalidateTable", n.Op())
		}
	}
	if !s.Harvest(scanSnapshot("fpT", 1000, 100), peT) {
		t.Fatal("replan budget of the statement on t not restored")
	}
	if s.Harvest(scanSnapshot("fpU", 1000, 100), peU) {
		t.Fatal("replan budget of the statement on u restored by InvalidateTable(t)")
	}
	if c := s.Counters(); c.Invalidations != 0 {
		t.Fatalf("InvalidateTable counted as a whole-store flush: %+v", c)
	}
}

// TestInvalidateClears: the catalog-wide flush resets every map and the
// worst-q gauge.
func TestInvalidateClears(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()
	s.Harvest(scanSnapshot("fp", 1000, 100), pe)
	s.RecordBuildOvershoot("fp", 0x7a, 100, 1000)

	s.Invalidate()
	if fps, ops := s.Size(); fps != 0 || ops != 0 {
		t.Fatalf("Size after Invalidate = (%d, %d)", fps, ops)
	}
	if _, ok := s.CorrectedRowCount(scan); ok {
		t.Fatal("correction survived Invalidate")
	}
	if s.PreferSwap(0x7a) {
		t.Fatal("swap preference survived Invalidate")
	}
	if s.WorstQError() != 0 {
		t.Fatalf("WorstQError after Invalidate = %v", s.WorstQError())
	}
	if c := s.Counters(); c.Invalidations != 1 {
		t.Fatalf("invalidations = %d", c.Invalidations)
	}
	// Invalidating an already-empty store is not counted.
	s.Invalidate()
	if c := s.Counters(); c.Invalidations != 1 {
		t.Fatalf("empty invalidation counted: %d", c.Invalidations)
	}
}

// TestReportShape checks /debug/plans payload ordering and content.
func TestReportShape(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	peA := EstimatePlan("fpA", scan, func(rel.Node) float64 { return 100 })
	peB := EstimatePlan("fpB", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()
	s.Harvest(scanSnapshot("fpA", 200, 100), peA)  // q = 2
	s.Harvest(scanSnapshot("fpB", 5000, 100), peB) // q = 50

	reports := s.Report()
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
	}
	if reports[0].Fingerprint != "fpB" {
		t.Fatalf("worst-first ordering violated: %s first", reports[0].Fingerprint)
	}
	r := reports[0]
	if r.Executions != 1 || r.MaxQError != 50 || len(r.Ops) != 1 {
		t.Fatalf("report = %+v", r)
	}
	op := r.Ops[0]
	if op.Path != "0" || op.EstRows != 100 || op.ActualRows != 5000 || op.QError != 50 {
		t.Fatalf("op report = %+v", op)
	}
}

// TestObserverSeesEveryQ: the histogram hook fires once per harvested sample.
func TestObserverSeesEveryQ(t *testing.T) {
	tb := testTable("t", 10)
	scan := exec.NewScan(tb, []string{"t"})
	pe := EstimatePlan("fp", scan, func(rel.Node) float64 { return 100 })
	s := NewStore()
	var got []float64
	s.SetObserver(func(q float64) { got = append(got, q) })
	s.Harvest(scanSnapshot("fp", 200, 100), pe)
	s.Harvest(scanSnapshot("fp", 50, 100), pe)
	if len(got) != 2 || got[0] != 2 || got[1] != 2 {
		t.Fatalf("observed q-errors = %v, want [2 2]", got)
	}
}
