// The parallel plan golden file: the operator trees the diff, star and
// snowflake corpora run at parallelism 4, pinned byte for byte in
// testdata/parallel.golden. Each tree carries operators and attributes only
// (no rows=/cost= estimates, which plans.golden pins at parallelism 1), so
// the file changes exactly when the parallel rewrite places a morsel scan,
// an exchange or a parallel operator differently.
//
// Regenerate with: go test -run TestParallelPlanGolden -update .
package calcite_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/obs"
)

// goldenParallelism is the worker count the parallel golden file is taken at.
const goldenParallelism = 4

// estimates matches the rows=/cost= annotation EXPLAIN appends to a line.
var estimates = regexp.MustCompile(`: rows=.*`)

// parallelTree renders the operator tree sql runs at goldenParallelism: its
// plain EXPLAIN, without the estimates.
func parallelTree(conn *calcite.Connection, sql string) string {
	plan, err := conn.Explain(sql)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return estimates.ReplaceAllString(plan, "")
}

func TestParallelPlanGolden(t *testing.T) {
	var b strings.Builder
	record := func(conn *calcite.Connection, label, sql string) {
		fmt.Fprintf(&b, "== %s: %s\n%s", label, strings.Join(strings.Fields(sql), " "), parallelTree(conn, sql))
	}

	diff := diffConn()
	diff.SetParallelism(goldenParallelism)
	for i, q := range diffQueries {
		record(diff, fmt.Sprintf("diff/%d", i), q.sql)
	}

	star := starConn(8000)
	star.SetParallelism(goldenParallelism)
	for _, phase := range []string{"unanalyzed", "analyzed"} {
		if phase == "analyzed" {
			analyzeStar(t, star)
		}
		for i, sql := range differentialQueries {
			record(star, fmt.Sprintf("star/%s/%d", phase, i), sql)
		}
	}

	snow := snowflakeConn(t)
	snow.SetParallelism(goldenParallelism)
	for i, sql := range snowflakeStatements(rand.New(rand.NewSource(23)), 200) {
		record(snow, fmt.Sprintf("snowflake/%d", i), sql)
	}
	for i, sql := range wideJoinStatements {
		record(snow, fmt.Sprintf("wide/%d", i), sql)
	}

	checkGolden(t, "testdata/parallel.golden", b.String())
}

// TestExplainAnalyzeRunsExplainedTree: at parallelism 4, the span tree
// EXPLAIN ANALYZE executes is the tree plain EXPLAIN shows, operator for
// operator, so morsel scans and exchanges are listed exactly where they run.
func TestExplainAnalyzeRunsExplainedTree(t *testing.T) {
	conn := diffConn()
	conn.SetParallelism(goldenParallelism)
	gathers := 0
	for i, q := range diffQueries {
		plan, err := conn.Explain(q.sql)
		if err != nil {
			t.Fatalf("diff/%d: %v", i, err)
		}
		// A statement that fails at run time (the corpus has some) still
		// leaves its trace.
		_, _ = conn.Query("EXPLAIN ANALYZE "+q.sql, q.params...)
		var spans []string
		var walk func(s *obs.SpanStats, depth int)
		walk = func(s *obs.SpanStats, depth int) {
			line := strings.Repeat("  ", depth) + s.Name + "("
			if s.Attrs != "" {
				line += s.Attrs + ", "
			}
			spans = append(spans, line+"convention=")
			for _, c := range s.Children {
				walk(c, depth+1)
			}
		}
		walk(conn.LastTraces(1)[0].Spans, 0)
		lines := strings.Split(strings.TrimRight(plan, "\n"), "\n")
		same := len(lines) == len(spans)
		for k := 0; same && k < len(lines); k++ {
			same = strings.HasPrefix(lines[k], spans[k])
		}
		if !same {
			t.Fatalf("diff/%d: EXPLAIN ANALYZE ran\n%s\nEXPLAIN shows\n%s", i, strings.Join(spans, "\n"), plan)
		}
		gathers += strings.Count(plan, "GatherExchange")
	}
	if gathers == 0 {
		t.Fatal("no corpus plan gathers at parallelism 4")
	}
}
