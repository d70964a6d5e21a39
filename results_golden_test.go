// The results golden file: the answer to every differential-corpus statement
// — diffQueries over diffConn and windowQueries over windowConn(260) — pinned
// in testdata/results.golden. An answer is the column names plus the rows,
// each value rendered with its Go kind, sorted unless the statement says
// ORDER BY (the window operator keeps its input order, so a window statement
// counts as ordered); or the error the statement fails with. Every engine
// configuration the differential suites run returns exactly these answers.
//
// Regenerate with: go test -run TestResultsGolden -update .
// and read the diff: a change that is not meant to change answers leaves the
// file byte for byte as it was.
package calcite_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/avatica"
)

const resultsGoldenPath = "testdata/results.golden"

// queryFunc runs one statement and returns its columns and rows, embedded
// (Connection.Query) or over the wire.
type queryFunc func(sql string, params ...any) (*calcite.Result, error)

// wireQuery serves conn over a local avatica server for the rest of the test
// and returns a client's query function.
func wireQuery(t testing.TB, conn *calcite.Connection) queryFunc {
	srv := avatica.NewServer(conn.Framework)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop() })
	client := avatica.NewClient(addr)
	return func(sql string, params ...any) (*calcite.Result, error) {
		resp, err := client.Query(sql, params...)
		if err != nil {
			// The client prefixes the server's message with its package.
			return nil, errors.New(strings.TrimPrefix(err.Error(), "avatica: "))
		}
		return &calcite.Result{Columns: resp.Columns, Rows: resp.Rows}, nil
	}
}

// goldenStatement is one statement of the pinned corpora.
type goldenStatement struct {
	label  string
	sql    string
	params []any
}

// goldenCorpus is a set of statements over one catalog.
type goldenCorpus struct {
	open       func() *calcite.Connection
	statements []goldenStatement
}

func goldenCorpora() []goldenCorpus {
	diff := goldenCorpus{open: diffConn}
	for i, q := range diffQueries {
		diff.statements = append(diff.statements, goldenStatement{fmt.Sprintf("diff/%d", i), q.sql, q.params})
	}
	window := goldenCorpus{open: func() *calcite.Connection { return windowConn(260) }}
	for i, sql := range windowQueries {
		window.statements = append(window.statements, goldenStatement{label: fmt.Sprintf("window/%d", i), sql: sql})
	}
	return []goldenCorpus{diff, window}
}

// goldenConfig is one engine configuration every corpus answer must hold in.
type goldenConfig struct {
	name      string
	configure func(*calcite.Connection)
	wire      bool
}

// goldenConfigs is the union of the configurations the differential suites
// run: serial and parallel, tiny batches, budgets that make sorts, joins,
// aggregates and windows spill, and the wire.
var goldenConfigs = []goldenConfig{
	{name: "serial", configure: func(c *calcite.Connection) { c.SetParallelism(1) }},
	{name: "default", configure: func(*calcite.Connection) {}},
	{name: "parallel4", configure: func(c *calcite.Connection) { c.SetParallelism(4) }},
	{name: "parallel8", configure: func(c *calcite.Connection) { c.SetParallelism(8) }},
	{name: "serial/batch3", configure: func(c *calcite.Connection) { c.SetParallelism(1); c.SetBatchSize(3) }},
	{name: "parallel4/batch3", configure: func(c *calcite.Connection) { c.SetParallelism(4); c.SetBatchSize(3) }},
	{name: "serial/mem32k", configure: func(c *calcite.Connection) { c.SetParallelism(1); c.SetMemoryLimit(32 << 10) }},
	{name: "serial/mem256k", configure: func(c *calcite.Connection) { c.SetParallelism(1); c.SetMemoryLimit(256 << 10) }},
	{name: "parallel4/mem32k", configure: func(c *calcite.Connection) { c.SetParallelism(4); c.SetMemoryLimit(32 << 10) }},
	{name: "parallel4/mem64k", configure: func(c *calcite.Connection) { c.SetParallelism(4); c.SetMemoryLimit(64 << 10) }},
	{name: "parallel4/batch3/mem256k", configure: func(c *calcite.Connection) {
		c.SetParallelism(4)
		c.SetBatchSize(3)
		c.SetMemoryLimit(256 << 10)
	}},
	{name: "wire", configure: func(*calcite.Connection) {}, wire: true},
}

// TestResultsGolden runs both corpora in every configuration and requires
// each answer to equal the golden file's.
func TestResultsGolden(t *testing.T) {
	corpora := goldenCorpora()
	if *updateGolden {
		var b strings.Builder
		for _, c := range corpora {
			conn := c.open()
			conn.SetParallelism(1)
			for _, s := range c.statements {
				b.WriteString(goldenBlock(s, conn.Query))
			}
		}
		if err := os.WriteFile(resultsGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readResultsGolden(t)
	for _, cfg := range goldenConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, c := range corpora {
				conn := c.open()
				cfg.configure(conn)
				query := queryFunc(conn.Query)
				if cfg.wire {
					query = wireQuery(t, conn)
				}
				for _, s := range c.statements {
					checkGoldenBlock(t, want, s, goldenBlock(s, query), cfg.wire)
				}
			}
		})
	}
}

// readResultsGolden returns the golden file's blocks by header line.
func readResultsGolden(t testing.TB) map[string]string {
	data, err := os.ReadFile(resultsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	blocks := map[string]string{}
	var header string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			header = line
		}
		blocks[header] += line
	}
	return blocks
}

// checkGoldenBlock compares one rendered answer with the golden block under
// the same header. Answers over the wire, and answers that read the table
// whose DOUBLE column holds BIGINT values, are compared kind-blind (see
// kindBlindBlock).
func checkGoldenBlock(t testing.TB, want map[string]string, s goldenStatement, got string, wire bool) {
	t.Helper()
	header := goldenHeader(s)
	w, ok := want[header]
	if !ok {
		t.Errorf("%s is not in %s (regenerate it with -update)", strings.TrimSpace(header), resultsGoldenPath)
		return
	}
	if wire || strings.Contains(s.sql, "mixed") {
		got, w = kindBlindBlock(s, got), kindBlindBlock(s, w)
	}
	if got != w {
		t.Errorf("%s\n got:\n%s want:\n%s", strings.TrimSpace(header), got[len(header):], w[len(header):])
	}
}

var integralDouble = regexp.MustCompile(`(\d)\.0\b`)

// kindBlindBlock renders an answer's integral DOUBLEs as BIGINTs. A DOUBLE
// column may hold BIGINT values (diffTables' mixed.v; COALESCE(sal, 0)), and
// two right answers may then differ in kind only: the wire types every value
// by its column's declared type, and of tied group keys or MIN/MAX candidates
// of different kinds any one is the answer.
func kindBlindBlock(s goldenStatement, block string) string {
	lines := strings.SplitAfter(block, "\n")
	rows := lines[:0:0]
	var head []string
	for _, l := range lines {
		switch {
		case l == "":
		case strings.HasPrefix(l, "== "), strings.HasPrefix(l, "columns: "), strings.HasPrefix(l, "error: "):
			head = append(head, l)
		default:
			rows = append(rows, integralDouble.ReplaceAllString(l, "$1"))
		}
	}
	if !strings.Contains(strings.ToUpper(s.sql), "ORDER BY") {
		sort.Strings(rows)
	}
	return strings.Join(head, "") + strings.Join(rows, "")
}

func goldenHeader(s goldenStatement) string {
	h := "== " + s.label + ": " + strings.Join(strings.Fields(s.sql), " ")
	if len(s.params) > 0 {
		h += " " + renderRow(s.params)
	}
	return h + "\n"
}

// goldenBlock runs s and renders its answer under its header.
func goldenBlock(s goldenStatement, query queryFunc) string {
	var b strings.Builder
	b.WriteString(goldenHeader(s))
	res, err := query(s.sql, s.params...)
	if err != nil {
		fmt.Fprintf(&b, "error: %s\n", strings.Join(strings.Fields(err.Error()), " "))
		return b.String()
	}
	fmt.Fprintf(&b, "columns: %s\n", strings.Join(res.Columns, ", "))
	for _, r := range renderAnswerRows(s.sql, res.Rows) {
		b.WriteString(r)
		b.WriteByte('\n')
	}
	return b.String()
}

// renderAnswerRows renders rows one line each, sorted unless sql orders them.
func renderAnswerRows(sql string, rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = renderRow(r)
	}
	if !strings.Contains(strings.ToUpper(sql), "ORDER BY") {
		sort.Strings(out)
	}
	return out
}

// renderRow renders values so that their kinds stay visible: 2 is a BIGINT,
// 2.0 a DOUBLE, "2" a string, NULL the absent value.
func renderRow(row []any) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = renderValue(v)
	}
	return strings.Join(cells, " | ")
}

func renderValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eIN") && !math.IsInf(x, 0) {
			s += ".0"
		}
		return s
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	case []any:
		elems := make([]string, len(x))
		for i, e := range x {
			elems[i] = renderValue(e)
		}
		return "[" + strings.Join(elems, ", ") + "]"
	}
	return fmt.Sprintf("%T(%v)", v, v)
}
