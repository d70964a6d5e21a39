package calcite_test

import (
	"reflect"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/adapter/cassandra"
	"calcite/internal/adapter/mongo"
	"calcite/internal/adapter/splunk"
	"calcite/internal/adapter/sqldb"
	"calcite/internal/avatica"
	"calcite/internal/rel2sql"
	"calcite/internal/types"
)

// federatedConn registers one small table behind each backend adapter.
func federatedConn(t *testing.T) (*calcite.Connection, *sqldb.Server) {
	t.Helper()
	db := sqldb.NewServer("db")
	db.CreateTable("products", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "name", Type: types.Varchar},
	), [][]any{{int64(1), "Widget"}, {int64(2), "Gadget"}, {int64(3), "Gizmo"}})
	jdbc, err := sqldb.New("db", db, rel2sql.MySQL)
	if err != nil {
		t.Fatal(err)
	}
	cass := cassandra.NewStore()
	cass.CreateTable(cassandra.TableDef{
		Name: "events",
		Fields: []types.Field{
			{Name: "tenant", Type: types.Varchar},
			{Name: "ts", Type: types.BigInt},
			{Name: "payload", Type: types.Varchar},
		},
		PartitionKeys:  []int{0},
		ClusteringKeys: []int{1},
	}, [][]any{{"acme", int64(1), "a"}, {"acme", int64(2), "b"}, {"globex", int64(1), "x"}})
	docs := mongo.NewStore()
	docs.AddCollection("zips", []map[string]any{
		{"city": "AMSTERDAM", "pop": float64(821752)},
		{"city": "ROTTERDAM", "pop": float64(623652)},
		{"city": "UTRECHT", "pop": float64(345080)},
	})
	engine := splunk.NewEngine()
	engine.AddIndex(&splunk.Index{
		Name: "orders",
		Fields: []types.Field{
			{Name: "rowtime", Type: types.Timestamp},
			{Name: "product_id", Type: types.BigInt},
			{Name: "units", Type: types.BigInt},
		},
		Events: [][]any{
			{int64(1000), int64(1), int64(10)},
			{int64(2000), int64(2), int64(30)},
			{int64(3000), int64(3), int64(40)},
		},
	})
	conn := calcite.Open()
	conn.RegisterAdapter(jdbc)
	conn.RegisterAdapter(cassandra.New("cass", cass))
	conn.RegisterAdapter(mongo.New("mongo_raw", docs))
	conn.RegisterAdapter(splunk.New("splunk", engine))
	return conn, db
}

// TestParametersCrossTheFederationBoundary: a prepared statement whose
// predicate is pushed into a backend reaches it with the bound value in the
// backend's own language (sqldb used to send "?" and be refused); where the
// adapter keeps the predicate engine-side, the statement still returns what
// its literal twin returns. Embedded and over the wire.
func TestParametersCrossTheFederationBoundary(t *testing.T) {
	conn, db := federatedConn(t)
	srv := avatica.NewServer(conn.Framework)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop() })
	client := avatica.NewClient(addr)

	for _, c := range []struct {
		prepared string
		param    any
		literal  string
	}{
		{"SELECT name FROM db.products WHERE id = ?", int64(2),
			"SELECT name FROM db.products WHERE id = 2"},
		{"SELECT ts, payload FROM cass.events WHERE tenant = ?", "acme",
			"SELECT ts, payload FROM cass.events WHERE tenant = 'acme'"},
		{"SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > ?", 400000.0,
			"SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > 400000"},
		{"SELECT units FROM splunk.orders WHERE units > ?", int64(25),
			"SELECT units FROM splunk.orders WHERE units > 25"},
	} {
		want, err := conn.Query(c.literal)
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("%s: %v, rows %v", c.literal, err, want)
		}
		got, err := conn.Query(c.prepared, c.param)
		if err != nil {
			t.Errorf("%s: %v", c.prepared, err)
			continue
		}
		if !reflect.DeepEqual(renderRows(got.Rows), renderRows(want.Rows)) {
			t.Errorf("%s [%v]\n  got  %v\n  want %v", c.prepared, c.param, got.Rows, want.Rows)
		}
		id, err := client.Prepare(c.prepared)
		if err != nil {
			t.Fatalf("prepare %s: %v", c.prepared, err)
		}
		resp, err := client.Execute(id, c.param)
		if err != nil {
			t.Errorf("wire %s: %v", c.prepared, err)
			continue
		}
		compareWire(t, c.prepared, want, resp.Columns, resp.Rows)
	}

	id, err := client.Prepare("SELECT name FROM db.products WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Execute(id, int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][0] != "Gadget" {
		t.Errorf("wire rows %v, want [[Gadget]]", resp.Rows)
	}
	if q := db.LastQuery(); !strings.Contains(q, "= 2") || strings.Contains(q, "?") {
		t.Errorf("pushed SQL %q should carry the bound value as a literal", q)
	}
}
