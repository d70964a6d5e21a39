package calcite_test

// Values enter the engine through a few doors — a table's rows, an INSERT
// into it, a backend's results, a statement parameter — and are normalized
// there into the runtime value set (types.Normalize), MAP members included.
// This suite hands each door Go ints and time.Time values and requires every
// answer to equal the answer over the same data given as int64 and epoch
// millis, serially, at parallelism 4 and under a budget small enough that
// the operators spill through the codec.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"calcite"
	"calcite/internal/adapter"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/types"
)

const (
	normNums   = 6000 // rows of nums
	normEvents = 3000 // rows of ev and docs
)

var normBase = time.Date(2018, 6, 10, 12, 0, 0, 0, time.UTC)

var normLayouts = map[string]calcite.Columns{
	"nums": {{Name: "n", Type: calcite.BigIntType}},
	"ev":   {{Name: "ts", Type: calcite.TimestampType}, {Name: "v", Type: calcite.BigIntType}},
	"docs": {{Name: "m", Type: calcite.MapType(types.Varchar, types.Any)}},
}

// normData builds the rows of nums, ev and docs: with goValues, BIGINTs are
// Go ints and TIMESTAMPs time.Time values; otherwise int64 and epoch millis.
func normData(goValues bool) map[string][][]any {
	num := func(n int) any {
		if goValues {
			return n
		}
		return int64(n)
	}
	ts := func(i int) any {
		t := normBase.Add(time.Duration(i) * time.Minute)
		if goValues {
			return t
		}
		return t.UnixMilli()
	}
	nums := [][]any{{num(9)}, {num(10)}, {num(100)}, {num(2)}}
	for i := len(nums); i < normNums; i++ {
		nums = append(nums, []any{num(i * 7919 % 10007)})
	}
	var ev, docs [][]any
	for i := normEvents - 1; i >= 0; i-- {
		ev = append(ev, []any{ts(i), num(i % 50)})
		docs = append(docs, []any{map[string]any{"n": num(i * 31 % 1009), "ts": ts(i), "s": "x"}})
	}
	return map[string][][]any{"nums": nums, "ev": ev, "docs": docs}
}

// normPartners adds the tables the probes join against, always in the
// engine's own representation: big (BIGINT n) and mk (TIMESTAMP ts of every
// third event, BIGINT k).
func normPartners(conn *calcite.Connection) {
	var big, mk [][]any
	for i := 0; i < normNums; i += 2 {
		big = append(big, []any{int64(i)})
	}
	for i := 0; i < normEvents; i += 3 {
		mk = append(mk, []any{normBase.Add(time.Duration(i) * time.Minute).UnixMilli(), int64(i / 3)})
	}
	conn.AddTable("big", calcite.Columns{{Name: "n", Type: calcite.BigIntType}}, big)
	conn.AddTable("mk", calcite.Columns{{Name: "ts", Type: calcite.TimestampType}, {Name: "k", Type: calcite.BigIntType}}, mk)
}

// normProbes run over nums, ev and docs, written @nums and so on: the entry
// point decides where the tables live. A "?" binds 9.
var normProbes = []string{
	"SELECT n FROM @nums ORDER BY n",
	"SELECT MAX(n), MIN(n), COUNT(DISTINCT n) FROM @nums",
	"SELECT n FROM @nums WHERE n > 5 ORDER BY n",
	"SELECT x.n FROM @nums AS x JOIN big ON x.n = big.n ORDER BY x.n",
	"SELECT n FROM @nums WHERE ? < n ORDER BY n",
	"SELECT n FROM @nums WHERE n > ? ORDER BY n",
	"SELECT COUNT(*) FROM @ev AS e JOIN mk ON e.ts = mk.ts",
	"SELECT COUNT(*) FROM @ev AS e JOIN mk ON e.ts <= mk.ts AND e.ts >= mk.ts WHERE mk.k < 20",
	"SELECT COUNT(*) FROM (SELECT ts FROM @ev UNION SELECT ts FROM mk) AS u",
	"SELECT ts, COUNT(*) FROM (SELECT ts FROM @ev UNION ALL SELECT ts FROM mk) AS u GROUP BY ts ORDER BY ts",
	"SELECT CAST(ts AS BIGINT) FROM @ev ORDER BY 1",
	"SELECT ts, SUM(v) OVER (ORDER BY ts RANGE INTERVAL '1' HOUR PRECEDING) FROM @ev ORDER BY ts",
	"SELECT m FROM @docs AS d ORDER BY d.m['n'], d.m['ts']",
	"SELECT COUNT(*) FROM (SELECT CAST(m['ts'] AS TIMESTAMP) AS ts FROM @docs) AS d JOIN mk ON d.ts = mk.ts",
}

// normEntries are the doors. load registers nums, ev and docs holding data
// and returns the qualifier their names take in SQL; goData false keeps the
// tables in the engine's representation, so only the parameter differs.
var normEntries = []struct {
	name   string
	goData bool
	load   func(conn *calcite.Connection, data map[string][][]any) string
}{
	{"NewMemTable", true, func(conn *calcite.Connection, data map[string][][]any) string {
		for name, rows := range data {
			conn.AddTable(name, normLayouts[name], rows)
		}
		return ""
	}},
	{"Insert", true, func(conn *calcite.Connection, data map[string][][]any) string {
		for name, rows := range data {
			t := conn.AddTable(name, normLayouts[name], rows[:1])
			if err := t.Insert(rows[1:]); err != nil {
				panic(err)
			}
		}
		return ""
	}},
	{"adapter", true, func(conn *calcite.Connection, data map[string][][]any) string {
		a := adapter.New("be", adapter.Backend{Kind: "go", Prefix: "Go",
			Run: func(n rel.Node) ([][]any, error) { return data[n.(*rel.TableScan).Table.Name()], nil }})
		for name, rows := range data {
			fields := make([]types.Field, len(normLayouts[name]))
			for i, c := range normLayouts[name] {
				fields[i] = types.Field{Name: c.Name, Type: c.Type}
			}
			a.AddTable(name, types.Row(fields...), schema.Statistics{RowCount: float64(len(rows))})
		}
		conn.RegisterAdapter(a)
		return "be."
	}},
	{"parameter", false, func(conn *calcite.Connection, data map[string][][]any) string {
		for name, rows := range data {
			conn.AddTable(name, normLayouts[name], rows)
		}
		return ""
	}},
}

// TestEntryPointsNormalizeGoValues: every probe answers over Go values
// exactly as over the engine's own values, through every entry point and in
// every execution mode; the Go values handed in are left as they were.
func TestEntryPointsNormalizeGoValues(t *testing.T) {
	modes := []struct {
		name   string
		par    int
		budget int64
	}{{"serial", 1, 0}, {"parallel4", 4, 0}, {"budget64KiB", 1, 64 << 10}}
	for _, e := range normEntries {
		for _, m := range modes {
			t.Run(e.name+"/"+m.name, func(t *testing.T) {
				run := func(goValues bool) (answers [][][]any, errs []error, spilled int64) {
					conn := calcite.Open()
					conn.SetParallelism(m.par)
					conn.SetMemoryLimit(m.budget)
					normPartners(conn)
					data := normData(goValues && e.goData)
					prefix := e.load(conn, data)
					var param any = int64(9)
					if goValues {
						param = 9
					}
					for _, q := range normProbes {
						var params []any
						if strings.Contains(q, "?") {
							params = []any{param}
						}
						res, err := conn.Query(strings.ReplaceAll(q, "@", prefix), params...)
						var rows [][]any
						if err == nil {
							rows = res.Rows
							spilled += conn.LastTraces(1)[0].Spilled
						}
						answers, errs = append(answers, rows), append(errs, err)
					}
					if goValues && e.goData {
						checkGoDataUntouched(t, data)
					}
					return answers, errs, spilled
				}
				want, wantErrs, _ := run(false)
				got, gotErrs, spilled := run(true)
				for i, q := range normProbes {
					switch {
					case wantErrs[i] != nil:
						t.Fatalf("%s over int64 values: %v", q, wantErrs[i])
					case gotErrs[i] != nil:
						t.Errorf("%s over Go values: %v", q, gotErrs[i])
					case !reflect.DeepEqual(got[i], want[i]):
						t.Errorf("%s over Go values:\n got %s\nwant %s", q, clip(got[i]), clip(want[i]))
					}
				}
				if m.budget > 0 && spilled == 0 {
					t.Errorf("no probe spilled under %d bytes", m.budget)
				}
			})
		}
	}
}

// checkGoDataUntouched fails when normalization wrote into the rows or MAP
// values it was handed.
func checkGoDataUntouched(t *testing.T, data map[string][][]any) {
	t.Helper()
	if _, ok := data["nums"][0][0].(int); !ok {
		t.Errorf("nums row 0 now holds %T", data["nums"][0][0])
	}
	if _, ok := data["ev"][0][0].(time.Time); !ok {
		t.Errorf("ev row 0 now holds %T", data["ev"][0][0])
	}
	m := data["docs"][0][0].(map[string]any)
	if _, ok := m["n"].(int); !ok {
		t.Errorf("docs row 0 now maps n to %T", m["n"])
	}
	if _, ok := m["ts"].(time.Time); !ok {
		t.Errorf("docs row 0 now maps ts to %T", m["ts"])
	}
}

// clip renders the first rows of an answer.
func clip(rows [][]any) string {
	if len(rows) > 6 {
		return fmt.Sprintf("%v … (%d rows)", rows[:6], len(rows))
	}
	return fmt.Sprint(rows)
}
