package cassandra_test

import (
	"reflect"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/adapter/cassandra"
	"calcite/internal/rel"
	"calcite/internal/types"
)

func newConn(t testing.TB) (*calcite.Connection, *cassandra.Store) {
	t.Helper()
	store := cassandra.NewStore()
	store.CreateTable(cassandra.TableDef{
		Name: "events",
		Fields: []types.Field{
			{Name: "tenant", Type: types.Varchar},
			{Name: "ts", Type: types.BigInt},
			{Name: "payload", Type: types.Varchar},
		},
		PartitionKeys:  []int{0},
		ClusteringKeys: []int{1},
	}, [][]any{
		{"acme", int64(3), "c"},
		{"acme", int64(1), "a"},
		{"acme", int64(2), "b"},
		{"globex", int64(1), "x"},
	})
	conn := calcite.Open()
	conn.RegisterAdapter(cassandra.New("cass", store))
	return conn, store
}

// TestE14SortPushdownFires: both §6 preconditions hold — single-partition
// filter plus clustering-prefix sort — so the CassandraSort rule fires and
// the CQL carries the ORDER BY.
func TestE14SortPushdownFires(t *testing.T) {
	conn, store := newConn(t)
	sql := "SELECT ts, payload FROM cass.events WHERE tenant = 'acme' ORDER BY ts"
	_, opt, err := conn.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	planText := rel.Explain(opt)
	if !strings.Contains(planText, "CassandraSort") {
		t.Fatalf("CassandraSort missing:\n%s", planText)
	}
	res, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][1] != "a" || res.Rows[2][1] != "c" {
		t.Fatalf("rows: %v", res.Rows)
	}
	cql := store.LastQuery()
	if !strings.Contains(cql, "ORDER BY ts") || !strings.Contains(cql, "WHERE tenant = 'acme'") {
		t.Errorf("CQL missing pushdown: %q", cql)
	}
}

// TestE14Precondition1Violated: no single-partition filter → the sort must
// NOT be pushed (rows span partitions, which are only sorted internally).
func TestE14Precondition1Violated(t *testing.T) {
	conn, store := newConn(t)
	sql := "SELECT tenant, ts FROM cass.events ORDER BY ts"
	_, opt, err := conn.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	planText := rel.Explain(opt)
	if strings.Contains(planText, "CassandraSort") {
		t.Fatalf("sort wrongly pushed without partition filter:\n%s", planText)
	}
	res, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %v", res.Rows)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, _ := types.AsInt(res.Rows[i-1][1])
		b, _ := types.AsInt(res.Rows[i][1])
		if a > b {
			t.Fatalf("output not sorted: %v", res.Rows)
		}
	}
	if strings.Contains(store.LastQuery(), "ORDER BY") {
		t.Errorf("CQL contains ORDER BY without partition restriction: %q", store.LastQuery())
	}
}

// TestE14Precondition2Violated: sorting on a non-clustering column is not
// pushed even with a single-partition filter.
func TestE14Precondition2Violated(t *testing.T) {
	conn, store := newConn(t)
	sql := "SELECT ts, payload FROM cass.events WHERE tenant = 'acme' ORDER BY payload"
	_, opt, err := conn.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rel.Explain(opt), "CassandraSort") {
		t.Fatalf("sort wrongly pushed for non-clustering column:\n%s", rel.Explain(opt))
	}
	if _, err := conn.Query(sql); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(store.LastQuery(), "ORDER BY payload") {
		t.Errorf("CQL: %q", store.LastQuery())
	}
}

// TestCQLRestrictions: the store itself rejects un-Cassandra-able queries.
func TestCQLRestrictions(t *testing.T) {
	_, store := newConn(t)
	if _, _, err := store.Execute("SELECT * FROM events WHERE payload = 'a'"); err == nil {
		t.Error("non-key filter should be rejected (no ALLOW FILTERING)")
	}
	if _, _, err := store.Execute("SELECT * FROM events ORDER BY ts"); err == nil {
		t.Error("ORDER BY without partition equality should be rejected")
	}
	if _, _, err := store.Execute("SELECT * FROM events WHERE tenant > 'a'"); err == nil {
		t.Error("partition range should be rejected")
	}
	_, rows, err := store.Execute("SELECT payload FROM events WHERE tenant = 'acme' AND ts >= 2 ORDER BY ts DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "c" {
		t.Fatalf("rows: %v", rows)
	}
}

// TestDescendingReversal: a fully-descending prefix is also accepted (the
// reversed clustering order).
func TestDescendingReversal(t *testing.T) {
	conn, store := newConn(t)
	res, err := conn.Query("SELECT ts FROM cass.events WHERE tenant = 'acme' ORDER BY ts DESC")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := types.AsInt(res.Rows[0][0]); v != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if !strings.Contains(store.LastQuery(), "DESC") {
		t.Errorf("CQL: %q", store.LastQuery())
	}
}

// TestCreateTableNormalizes: rows loaded with Go ints are stored as int64,
// so the storage order and a pushed range condition compare numerically.
func TestCreateTableNormalizes(t *testing.T) {
	store := cassandra.NewStore()
	store.CreateTable(cassandra.TableDef{
		Name:           "ev",
		Fields:         []types.Field{{Name: "tenant", Type: types.Varchar}, {Name: "ts", Type: types.BigInt}},
		PartitionKeys:  []int{0},
		ClusteringKeys: []int{1},
	}, [][]any{{"a", 10}, {"a", 9}, {"a", 100}, {"a", 2}})
	_, rows, err := store.Execute("SELECT ts FROM ev WHERE tenant = 'a' AND ts > 5")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]any{{int64(9)}, {int64(10)}, {int64(100)}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %#v, want %#v", rows, want)
	}
}
