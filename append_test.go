package calcite_test

// Tables that grow by appends: the differential corpus over a catalog built
// by INSERTs instead of by NewMemTable, and read-your-writes through the
// wire. A MemTable keeps one column-major store that Insert appends to in
// place and a cached plan survives the writes, so every engine configuration
// must return, after the appends, exactly the answers results.golden pins for
// the same rows loaded up front.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/avatica"
	"calcite/internal/schema"
)

// TestAppendBuiltTablesAgree: serial, parallel 4, a 64 KB budget and the wire
// return the pinned answers of testdata/results.golden on tables built by
// appends.
func TestAppendBuiltTablesAgree(t *testing.T) {
	want := readResultsGolden(t)
	corpus := goldenCorpora()[0].statements // diffQueries

	for _, cfg := range []struct {
		name      string
		configure func(*calcite.Connection)
		wire      bool
	}{
		{name: "serial", configure: func(c *calcite.Connection) { c.SetParallelism(1) }},
		{name: "parallel4", configure: func(c *calcite.Connection) { c.SetParallelism(4) }},
		{name: "mem64k", configure: func(c *calcite.Connection) { c.SetMemoryLimit(64 << 10) }},
		{name: "wire", configure: func(*calcite.Connection) {}, wire: true},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			conn := calcite.Open()
			tables := diffTables()
			for _, tb := range tables {
				conn.AddTable(tb.name, tb.cols, tb.rows[:len(tb.rows)/2])
			}
			diffViews(conn)
			cfg.configure(conn)
			query := queryFunc(conn.Query)
			if cfg.wire {
				query = wireQuery(t, conn)
			}

			// Three rounds: run the corpus (plans get cached, harvested and
			// re-used while the tables under them grow), then append the next
			// third of every table's second half, one single-row parameterized
			// INSERT at a time, interleaved across the tables.
			const rounds = 3
			next := make([]int, len(tables))
			for i, tb := range tables {
				next[i] = len(tb.rows) / 2
			}
			for r := 1; r <= rounds; r++ {
				for _, s := range corpus {
					_, _ = query(s.sql, s.params...)
				}
				for more := true; more; {
					more = false
					for i, tb := range tables {
						half := len(tb.rows) / 2
						if next[i] >= half+(len(tb.rows)-half)*r/rounds {
							continue
						}
						more = true
						marks := strings.TrimSuffix(strings.Repeat("?, ", len(tb.cols)), ", ")
						insert := fmt.Sprintf("INSERT INTO %s VALUES (%s)", tb.name, marks)
						if _, err := query(insert, tb.rows[next[i]]...); err != nil {
							t.Fatalf("%s row %d: %v", tb.name, next[i], err)
						}
						next[i]++
					}
				}
			}

			for _, s := range corpus {
				checkGoldenBlock(t, want, s, goldenBlock(s, query), cfg.wire)
			}
			c := conn.Framework.PlanCache().Counters()
			if c.Invalidations != 0 {
				t.Errorf("INSERTs flushed the whole plan cache %d times", c.Invalidations)
			}
			if c.TableEvictions == 0 {
				t.Error("no plan was evicted although every table doubled")
			}
		})
	}
}

// TestReadYourWritesOverTheWire: a row inserted by one client is visible to
// its next statement and to a second client's, through the plans both had
// cached before the write, and nothing is invalidated on the way.
func TestReadYourWritesOverTheWire(t *testing.T) {
	conn := diffConn()
	srv := avatica.NewServer(conn.Framework)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	writer, other := avatica.NewClient(addr), avatica.NewClient(addr)

	const count, lookup = "SELECT COUNT(*) FROM products", "SELECT name FROM products WHERE productId = ?"
	for _, c := range []*avatica.Client{writer, other} {
		resp, err := c.Query(count)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows[0][0] != int64(50) {
			t.Fatalf("count before the write = %v", resp.Rows[0][0])
		}
		if resp, err = c.Query(lookup, int64(50)); err != nil || len(resp.Rows) != 0 {
			t.Fatalf("lookup before the write = %v, %v", resp, err)
		}
	}
	before := conn.Framework.PlanCache().Counters()

	if _, err := writer.Query("INSERT INTO products VALUES (?, ?)", int64(50), "product-50"); err != nil {
		t.Fatal(err)
	}
	for i, c := range []*avatica.Client{writer, other} {
		resp, err := c.Query(count)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows[0][0] != int64(51) {
			t.Errorf("client %d: count after the write = %v, want 51", i, resp.Rows[0][0])
		}
		resp, err = c.Query(lookup, int64(50))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 1 || resp.Rows[0][0] != "product-50" {
			t.Errorf("client %d: lookup after the write = %v", i, resp.Rows)
		}
	}
	after := conn.Framework.PlanCache().Counters()
	if after.Invalidations != before.Invalidations || after.TableEvictions != before.TableEvictions {
		t.Errorf("the write invalidated plans: before %+v, after %+v", before, after)
	}
	if after.Hits != before.Hits+4 || after.Misses != before.Misses+1 {
		t.Errorf("want the four reads to hit and only the INSERT to plan: before %+v, after %+v", before, after)
	}
}

// TestInsertAssignsDeclaredTypes: SQL INSERT assigns each value to its
// column's declared type, so a BIGINT / DOUBLE table keeps its typed vectors
// whatever Go or literal form the value arrives in — an integer literal into
// DOUBLE, a Go int (or the wire's JSON number) into BIGINT — and a value with
// no conversion fails the statement without inserting anything. Literal and
// prepared, embedded and over the wire.
func TestInsertAssignsDeclaredTypes(t *testing.T) {
	for _, wire := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wire), func(t *testing.T) {
			conn := calcite.Open()
			tb := conn.AddTable("t", calcite.Columns{
				{Name: "k", Type: calcite.BigIntType},
				{Name: "v", Type: calcite.DoubleType},
			}, [][]any{{int64(1), 1.5}})
			run := queryFunc(conn.Query)
			if wire {
				run = wireQuery(t, conn)
			}
			kinds := func() [2]schema.VecKind {
				cur, _ := tb.ScanBatches(0)
				b, err := cur.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				return [2]schema.VecKind{b.Vecs[0].Kind, b.Vecs[1].Kind}
			}
			typed := [2]schema.VecKind{schema.VecInt64, schema.VecFloat64}

			for _, ins := range []struct {
				sql    string
				params []any
			}{
				{sql: "INSERT INTO t VALUES (100, 5)"},
				{sql: "INSERT INTO t VALUES (?, ?)", params: []any{101, 6}},
				{sql: "INSERT INTO t VALUES (?, ?)", params: []any{int64(102), nil}},
			} {
				if _, err := run(ins.sql, ins.params...); err != nil {
					t.Fatalf("%s %v: %v", ins.sql, ins.params, err)
				}
				if got := kinds(); got != typed {
					t.Fatalf("%s %v: vector kinds = %v, want %v", ins.sql, ins.params, got, typed)
				}
			}
			for _, ins := range []struct {
				sql    string
				params []any
			}{
				{sql: "INSERT INTO t VALUES ('x', 'y')"},
				{sql: "INSERT INTO t VALUES (?, ?)", params: []any{"x", "y"}},
				{sql: "INSERT INTO t VALUES (200, 1.5), (201, 'y')"},
			} {
				if _, err := run(ins.sql, ins.params...); err == nil {
					t.Errorf("%s %v: accepted", ins.sql, ins.params)
				}
			}
			want := [][]any{{int64(1), 1.5}, {int64(100), 5.0}, {int64(101), 6.0}, {int64(102), nil}}
			if got := tb.Rows(); !reflect.DeepEqual(got, want) {
				t.Fatalf("table holds %#v, want %#v", got, want)
			}
			if got := kinds(); got != typed {
				t.Fatalf("after the rejected inserts: vector kinds = %v, want %v", got, typed)
			}
		})
	}
}
