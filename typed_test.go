package calcite_test

// Differential typed-vector suite: the typed columnar execution paths
// (vector kernels, typed aggregation grouping, typed join probes, typed
// spill pages) must be observationally identical to the boxed fallback.
// schema.SetForceBoxed(true) disables every typed path at once — sources
// stop attaching vectors and the spill codec writes boxed pages — so
// running the shared SQL corpus under both settings and comparing row-for-
// row checks the whole engine, not just the kernels.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"calcite/internal/schema"
)

// typedDiffConfigs crosses the execution knobs the typed paths interact
// with: morsel parallelism, the batchSize=3 boundary case, and a memory
// limit low enough that sorts, joins and aggregates spill through the
// typed page codec.
var typedDiffConfigs = []struct {
	name        string
	parallelism int
	batchSize   int
	memLimit    int64
}{
	{name: "serial", parallelism: 1},
	{name: "parallel4", parallelism: 4},
	{name: "serial/batch3", parallelism: 1, batchSize: 3},
	{name: "serial/mem256k", parallelism: 1, memLimit: 256 << 10},
	{name: "parallel4/mem64k", parallelism: 4, memLimit: 64 << 10},
	{name: "parallel4/batch3/mem256k", parallelism: 4, batchSize: 3, memLimit: 256 << 10},
}

// corpusResult is one query's outcome rendered for comparison.
type corpusResult struct {
	err  bool
	rows []string
}

// runCorpusForced runs the whole diffQueries corpus on a fresh catalog with
// the boxed-fallback knob pinned to forced, returning per-query results.
func runCorpusForced(forced bool, parallelism, batchSize int, memLimit int64) []corpusResult {
	prev := schema.SetForceBoxed(forced)
	defer schema.SetForceBoxed(prev)
	conn := diffConn()
	conn.SetParallelism(parallelism)
	if batchSize > 0 {
		conn.SetBatchSize(batchSize)
	}
	if memLimit > 0 {
		conn.SetMemoryLimit(memLimit)
	}
	out := make([]corpusResult, len(diffQueries))
	for i, q := range diffQueries {
		res, err := conn.Query(q.sql, q.params...)
		if err != nil {
			out[i] = corpusResult{err: true}
			continue
		}
		rows := renderRows(res.Rows)
		if !strings.Contains(strings.ToUpper(q.sql), "ORDER BY") {
			sort.Strings(rows)
		}
		out[i] = corpusResult{rows: rows}
	}
	return out
}

// TestTypedAndBoxedAgree is the typed-execution safety net: every corpus
// query must produce identical results with typed vectors live and with the
// boxed fallback forced, across parallelism, tiny batches and spilling.
func TestTypedAndBoxedAgree(t *testing.T) {
	if schema.ForceBoxed() {
		t.Skip("CALCITE_FORCE_BOXED is set; typed paths are disabled globally")
	}
	for _, cfg := range typedDiffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			typed := runCorpusForced(false, cfg.parallelism, cfg.batchSize, cfg.memLimit)
			boxed := runCorpusForced(true, cfg.parallelism, cfg.batchSize, cfg.memLimit)
			for i, q := range diffQueries {
				if typed[i].err != boxed[i].err {
					t.Errorf("%s\n  typed err=%v boxed err=%v", q.sql, typed[i].err, boxed[i].err)
					continue
				}
				if !reflect.DeepEqual(typed[i].rows, boxed[i].rows) {
					t.Errorf("%s\n  typed: %v\n  boxed: %v", q.sql, typed[i].rows, boxed[i].rows)
				}
			}
		})
	}
}

// TestForceBoxedKnob pins the knob's semantics: toggling returns the
// previous value and a forced catalog serves scans without vectors.
func TestForceBoxedKnob(t *testing.T) {
	prev := schema.SetForceBoxed(true)
	if !schema.ForceBoxed() {
		t.Fatal("SetForceBoxed(true) did not take effect")
	}
	schema.SetForceBoxed(prev)
	if schema.ForceBoxed() != prev {
		t.Fatal("SetForceBoxed did not restore the previous value")
	}
	// Sanity: a query still runs correctly while forced.
	restore := schema.SetForceBoxed(true)
	defer schema.SetForceBoxed(restore)
	conn := diffConn()
	res, err := conn.Query("SELECT deptno, COUNT(*) FROM emps GROUP BY deptno ORDER BY deptno")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("forced-boxed query returned no rows")
	}
	_ = fmt.Sprintf("%v", res.Rows)
}
