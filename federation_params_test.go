package calcite_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/adapter/cassandra"
	"calcite/internal/adapter/mongo"
	"calcite/internal/adapter/splunk"
	"calcite/internal/adapter/sqldb"
	"calcite/internal/avatica"
	"calcite/internal/rel2sql"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// fedTable is one table of the federated test catalog.
type fedTable struct {
	name   string
	fields []types.Field
	rows   [][]any
}

// fedData is the federated test catalog: the movie tables of the benchmark's
// federated_job workload at a small scale, generated from one seed, plus the
// tables of the adapter packages' own tests. Cassandra rows are generated in
// partition-then-clustering order, the order the store keeps them in, so a
// LIMIT without ORDER BY reads the same rows from the store and from a local
// table.
type fedData struct {
	db, splunk, cass []fedTable // sqldb, splunk and cassandra (key: $0, clustering: $1)
	mongo            map[string][]map[string]any
	local            []fedTable
}

func bigint(name string) types.Field  { return types.Field{Name: name, Type: types.BigInt} }
func varchar(name string) types.Field { return types.Field{Name: name, Type: types.Varchar} }
func double(name string) types.Field  { return types.Field{Name: name, Type: types.Double} }

var (
	fedKinds     = []string{"movie", "series", "episode", "short", "game", "video", "docu"}
	fedRoles     = []string{"actor", "actress", "director", "writer", "producer", "composer"}
	fedCountries = []string{"us", "gb", "fr", "de", "jp", "in"}
	fedInfoTypes = []string{"budget", "gross", "rating", "votes", "runtime", "genre"}
	fedNotes     = []string{"production", "distribution", "effects", "music"}
)

func newFedData() *fedData {
	rng := rand.New(rand.NewSource(1))
	const nTitle, nCompany = 40, 12
	d := &fedData{mongo: map[string][]map[string]any{}}
	title := fedTable{name: "title", fields: []types.Field{bigint("id"), bigint("kind_id"), bigint("year"), double("rating")}}
	for i := 0; i < nTitle; i++ {
		title.rows = append(title.rows, []any{int64(i), int64(rng.Intn(len(fedKinds))), int64(1950 + rng.Intn(75)), float64(rng.Intn(41)) / 4})
	}
	company := fedTable{name: "company", fields: []types.Field{bigint("id"), varchar("country"), bigint("size")}}
	for i := 0; i < nCompany; i++ {
		company.rows = append(company.rows, []any{int64(i), fedCountries[rng.Intn(len(fedCountries))], int64(1 + rng.Intn(5000))})
	}
	d.db = []fedTable{title, company,
		{name: "products", fields: []types.Field{bigint("id"), varchar("name"), double("price")},
			rows: [][]any{{int64(1), "Widget", 9.99}, {int64(2), "Gadget", 19.99}, {int64(3), "Gizmo", 29.99}}},
		{name: "orders", fields: []types.Field{bigint("pid"), bigint("qty")},
			rows: [][]any{{int64(1), int64(5)}, {int64(2), int64(7)}}},
	}

	castInfo := fedTable{name: "cast_info", fields: []types.Field{{Name: "rowtime", Type: types.Timestamp},
		bigint("movie_id"), bigint("person_id"), varchar("role"), bigint("salary")}}
	for i := 0; i < 150; i++ {
		castInfo.rows = append(castInfo.rows, []any{int64(i) * 1000, int64(rng.Intn(nTitle)), int64(rng.Intn(30)),
			fedRoles[rng.Intn(len(fedRoles))], int64(1000 + rng.Intn(9000))})
	}
	d.splunk = []fedTable{castInfo,
		{name: "orders", fields: []types.Field{{Name: "rowtime", Type: types.Timestamp}, bigint("product_id"), bigint("units")},
			rows: [][]any{{int64(1000), int64(1), int64(10)}, {int64(2000), int64(2), int64(30)}, {int64(3000), int64(3), int64(40)},
				{int64(4000), int64(1), int64(50)}, {int64(5000), int64(2), int64(5)}}},
		{name: "roles", fields: []types.Field{bigint("id"), varchar("role")},
			rows: [][]any{{int64(1), "actor"}, {int64(2), "lead actor"}, {int64(3), "x|y"}, {int64(4), `say "hi"`}, {int64(5), "a>=b"}}},
	}

	movieInfo := fedTable{name: "movie_info", fields: []types.Field{bigint("movie_id"), bigint("seq"), varchar("info_type"), bigint("score")}}
	for m := 0; m < nTitle; m++ {
		for s := rng.Intn(5); s > 0; s-- {
			movieInfo.rows = append(movieInfo.rows, []any{int64(m), int64(len(movieInfo.rows)),
				fedInfoTypes[rng.Intn(len(fedInfoTypes))], int64(rng.Intn(1000))})
		}
	}
	d.cass = []fedTable{movieInfo,
		{name: "events", fields: []types.Field{varchar("tenant"), bigint("ts"), varchar("payload")},
			rows: [][]any{{"acme", int64(1), "a"}, {"acme", int64(2), "b"}, {"acme", int64(3), "c"}, {"globex", int64(1), "x"}}},
		{name: "notes", fields: []types.Field{varchar("author"), bigint("ts"), varchar("body")},
			rows: [][]any{{"o", int64(1), "x"}, {"o'brien", int64(1), "it's"}}},
	}

	for i := 0; i < 60; i++ {
		d.mongo["movie_companies"] = append(d.mongo["movie_companies"], map[string]any{
			"movie_id": float64(rng.Intn(nTitle)), "company_id": float64(rng.Intn(nCompany)), "note": fedNotes[rng.Intn(len(fedNotes))]})
	}
	d.mongo["zips"] = []map[string]any{
		{"city": "AMSTERDAM", "pop": float64(821752), "loc": []any{4.9041, 52.3676}},
		{"city": "ROTTERDAM", "pop": float64(623652), "loc": []any{4.4777, 51.9244}},
		{"city": "UTRECHT", "pop": float64(345080), "loc": []any{5.1214, 52.0907}},
	}

	kindType := fedTable{name: "kind_type", fields: []types.Field{bigint("id"), varchar("kind")}}
	for i, k := range fedKinds {
		kindType.rows = append(kindType.rows, []any{int64(i), k})
	}
	d.local = []fedTable{kindType,
		{name: "tags", fields: []types.Field{bigint("pid"), varchar("tag")}, rows: [][]any{{int64(1), "hot"}, {int64(9), "cold"}}}}
	return d
}

// fedViews type the document collections, as §7.1 of the paper does.
var fedViews = []string{
	`CREATE VIEW movie_companies AS SELECT CAST(_MAP['movie_id'] AS BIGINT) AS movie_id,
		CAST(_MAP['company_id'] AS BIGINT) AS company_id, CAST(_MAP['note'] AS VARCHAR(20)) AS note
		FROM mongo_raw.movie_companies`,
	`CREATE VIEW zips AS SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city,
		CAST(_MAP['loc'][0] AS DOUBLE) AS longitude, CAST(_MAP['loc'][1] AS DOUBLE) AS latitude
		FROM mongo_raw.zips`,
}

// finish adds the local tables and the views, and makes execution serial so
// a LIMIT without ORDER BY keeps the first rows in storage order.
func (d *fedData) finish(t testing.TB, conn *calcite.Connection) *calcite.Connection {
	t.Helper()
	for _, tb := range d.local {
		conn.Framework.Catalog.AddTable(schema.NewMemTable(tb.name, types.Row(tb.fields...), tb.rows))
	}
	for _, v := range fedViews {
		if _, err := conn.Exec(v); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetParallelism(1)
	return conn
}

// fedConn is the catalog behind the four backend adapters.
type fedConn struct {
	*calcite.Connection
	db     *sqldb.Server
	splunk *splunk.Engine
	cass   *cassandra.Store
	mongo  *mongo.Store
}

// logs returns each backend's request log.
func (c *fedConn) logs() map[string][]string {
	return map[string][]string{"sqldb": c.db.Queries, "splunk": c.splunk.Queries,
		"cassandra": c.cass.Queries, "mongo": c.mongo.Queries}
}

// federated registers the catalog behind the four backends: sqldb as "db",
// splunk (with the Figure 2 lookup into sqldb), cassandra as "cass" and the
// document store as "mongo_raw".
func (d *fedData) federated(t testing.TB) *fedConn {
	t.Helper()
	c := &fedConn{Connection: calcite.Open(), db: sqldb.NewServer("db"), splunk: splunk.NewEngine(),
		cass: cassandra.NewStore(), mongo: mongo.NewStore()}
	for _, tb := range d.db {
		c.db.CreateTable(tb.name, types.Row(tb.fields...), tb.rows)
	}
	for _, tb := range d.splunk {
		c.splunk.AddIndex(&splunk.Index{Name: tb.name, Fields: tb.fields, Events: tb.rows})
	}
	c.splunk.SetLookup(func(table, key string, value any) ([]string, [][]any, error) {
		rt, _, err := c.db.TableType(table)
		if err != nil {
			return nil, nil, err
		}
		rows, err := c.db.Lookup(table, key, value)
		return rt.FieldNames(), rows, err
	})
	for _, tb := range d.cass {
		c.cass.CreateTable(cassandra.TableDef{Name: tb.name, Fields: tb.fields, PartitionKeys: []int{0}, ClusteringKeys: []int{1}}, tb.rows)
	}
	for _, name := range sortedKeys(d.mongo) {
		c.mongo.AddCollection(name, d.mongo[name])
	}
	jdbc, err := sqldb.New("db", c.db, rel2sql.MySQL)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterAdapter(jdbc)
	c.RegisterAdapter(splunk.New("splunk", c.splunk))
	c.RegisterAdapter(cassandra.New("cass", c.cass))
	c.RegisterAdapter(mongo.New("mongo_raw", c.mongo))
	d.finish(t, c.Connection)
	return c
}

// twin loads the same rows into local tables under the same names: the
// reference the adapters are checked against, sharing no adapter code.
func (d *fedData) twin(t testing.TB) *calcite.Connection {
	t.Helper()
	conn := calcite.Open()
	add := func(name string, tables []fedTable) {
		s := schema.NewBaseSchema(name)
		for _, tb := range tables {
			s.AddTable(schema.NewMemTable(tb.name, types.Row(tb.fields...), tb.rows))
		}
		conn.Framework.Catalog.AddSchema(s)
	}
	add("db", d.db)
	add("splunk", d.splunk)
	add("cass", d.cass)
	var docs []fedTable
	for _, name := range sortedKeys(d.mongo) {
		tb := fedTable{name: name, fields: []types.Field{{Name: "_MAP", Type: types.Map(types.Varchar, types.Any)}}}
		for _, doc := range d.mongo[name] {
			tb.rows = append(tb.rows, []any{doc})
		}
		docs = append(docs, tb)
	}
	add("mongo_raw", docs)
	return d.finish(t, conn)
}

// fedStatement is one statement of the federated corpus.
type fedStatement struct {
	sql    string
	params []any
}

// fedCorpus is the federated corpus: the twelve federated_job template shapes
// with fixed literals, then the shapes the benchmark never pushes (sqldb
// project, sort, aggregate and join; cassandra project, sort with its
// preconditions met and unmet, and limit; splunk project, limit and the
// Figure 2 lookup join), then the statements of the adapter packages' tests
// and of TestParametersCrossTheFederationBoundary, then literals and shapes
// the backends' languages used to mis-read.
var fedCorpus = []fedStatement{
	{sql: `SELECT k.kind AS kind, COUNT(*) AS n, MAX(t.rating) AS best FROM db.title t JOIN kind_type k ON t.kind_id = k.id
		WHERE t.year > 1992 GROUP BY k.kind`},
	{sql: `SELECT t.id AS id, ci.person_id AS person_id, ci.salary AS salary FROM splunk.cast_info ci JOIN db.title t ON ci.movie_id = t.id
		WHERE ci.role = 'actor' AND ci.salary > 5000 AND t.year > 1980`},
	{sql: `SELECT t.year AS year, mi.seq AS seq, mi.info_type AS info_type, mi.score AS score FROM cass.movie_info mi JOIN db.title t ON mi.movie_id = t.id
		WHERE mi.movie_id = 7 ORDER BY seq`},
	{sql: `SELECT mc.movie_id AS movie_id, c.id AS company_id, c.size AS size FROM movie_companies mc JOIN db.company c ON mc.company_id = c.id
		WHERE mc.note = 'production' AND c.country = 'us'`},
	{sql: `SELECT COUNT(*) AS n, MIN(t.year) AS first_year, MAX(c.size) AS largest FROM db.title t JOIN movie_companies mc ON t.id = mc.movie_id
		JOIN db.company c ON mc.company_id = c.id WHERE c.country = 'fr' AND t.year > 1970`},
	{sql: `SELECT k.kind AS kind, COUNT(*) AS n, SUM(ci.salary) AS payroll FROM splunk.cast_info ci JOIN db.title t ON ci.movie_id = t.id
		JOIN kind_type k ON t.kind_id = k.id WHERE ci.salary > 8000 GROUP BY k.kind`},
	{sql: `SELECT COUNT(*) AS n, MIN(t.year) AS first_year, MAX(mi.score) AS top_score FROM cass.movie_info mi JOIN db.title t ON mi.movie_id = t.id
		JOIN movie_companies mc ON t.id = mc.movie_id WHERE mi.info_type = 'rating' AND mi.score > 300 AND mc.note = 'distribution'`},
	{sql: `SELECT COUNT(*) AS n, MIN(t.year) AS first_year, MAX(ci.salary) AS top_salary FROM splunk.cast_info ci JOIN db.title t ON ci.movie_id = t.id
		JOIN movie_companies mc ON t.id = mc.movie_id JOIN db.company c ON mc.company_id = c.id
		WHERE ci.role = 'actor' AND ci.salary > 3000 AND c.country = 'us'`},
	{sql: `SELECT ci.salary AS salary, ci.person_id AS person_id, t.id AS id FROM splunk.cast_info ci JOIN db.title t ON ci.movie_id = t.id
		WHERE ci.salary > 7000 AND t.rating > 4 ORDER BY salary DESC, person_id, id LIMIT 20`},
	{sql: `SELECT mi.info_type AS info_type, COUNT(*) AS n, SUM(mi.score) AS total FROM movie_companies mc JOIN cass.movie_info mi ON mc.movie_id = mi.movie_id
		WHERE mc.company_id < 5 AND mi.score < 400 GROUP BY mi.info_type`},
	{sql: `SELECT t.year AS year, COUNT(*) AS n FROM db.title t JOIN movie_companies mc ON t.id = mc.movie_id JOIN db.company c ON mc.company_id = c.id
		WHERE c.size > 2000 AND t.kind_id = 2 GROUP BY t.year ORDER BY year`},
	{sql: `SELECT ci.person_id AS person_id, mi.movie_id AS movie_id, mi.score AS score FROM splunk.cast_info ci JOIN cass.movie_info mi ON ci.movie_id = mi.movie_id
		WHERE ci.person_id < 10 AND mi.info_type = 'genre'`},

	{sql: "SELECT name FROM db.products WHERE price > 10 ORDER BY name LIMIT 1"},
	{sql: "SELECT COUNT(*) AS c, SUM(price) AS s FROM db.products"},
	{sql: "SELECT kind_id, COUNT(*) AS n, MAX(rating) AS best FROM db.title WHERE year < 2000 GROUP BY kind_id"},
	{sql: "SELECT p.name, o.qty FROM db.products p JOIN db.orders o ON p.id = o.pid ORDER BY p.name"},
	{sql: "SELECT p.name, t.tag FROM db.products p JOIN tags t ON p.id = t.pid"},
	{sql: "SELECT ts, payload FROM cass.events WHERE tenant = 'acme' ORDER BY ts"},
	{sql: "SELECT ts FROM cass.events WHERE tenant = 'acme' ORDER BY ts DESC"},
	{sql: "SELECT tenant, ts FROM cass.events ORDER BY ts"},
	{sql: "SELECT ts, payload FROM cass.events WHERE tenant = 'acme' ORDER BY payload"},
	{sql: "SELECT payload FROM cass.events WHERE tenant = 'acme' AND ts >= 2"},
	{sql: "SELECT * FROM cass.events LIMIT 2"},
	{sql: "SELECT * FROM cass.events WHERE tenant = 'acme' AND ts > 0 AND payload = 'a'"},
	{sql: "SELECT units FROM splunk.orders WHERE units > 25"},
	{sql: "SELECT * FROM splunk.orders LIMIT 2"},
	{sql: "SELECT * FROM splunk.orders WHERE units > 5 AND product_id < 3 AND units < 100"},
	{sql: `SELECT p.name, o.units FROM splunk.orders o JOIN db.products p ON o.product_id = p.id WHERE o.units > 25`},
	{sql: "SELECT city, longitude FROM zips WHERE latitude > 52 ORDER BY city"},
	{sql: "SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > 400000"},
	{sql: "SELECT _MAP['pop'] FROM mongo_raw.zips WHERE CAST(_MAP['city'] AS VARCHAR(20)) = 'UTRECHT'"},

	{sql: "SELECT name FROM db.products WHERE id = 2"},
	{sql: "SELECT name FROM db.products WHERE id = ?", params: []any{int64(2)}},
	{sql: "SELECT ts, payload FROM cass.events WHERE tenant = 'acme'"},
	{sql: "SELECT ts, payload FROM cass.events WHERE tenant = ?", params: []any{"acme"}},
	{sql: "SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > ?", params: []any{400000.0}},
	{sql: "SELECT units FROM splunk.orders WHERE units > ?", params: []any{int64(25)}},

	{sql: "SELECT * FROM cass.events LIMIT 0"},
	{sql: "SELECT ts, body FROM cass.notes WHERE author = 'o''brien'"},
	{sql: "SELECT ts FROM cass.events WHERE tenant = 'acme' ORDER BY ts LIMIT 1 OFFSET 1"},
	{sql: "SELECT id FROM splunk.roles WHERE role = 'lead actor'"},
	{sql: "SELECT id FROM splunk.roles WHERE role = 'x|y'"},
	{sql: `SELECT id FROM splunk.roles WHERE role = 'say "hi"'`},
	{sql: "SELECT id FROM splunk.roles WHERE role = 'a>=b'"},
	{sql: "SELECT * FROM (SELECT * FROM splunk.orders LIMIT 2) t WHERE units > 5"},
}

// TestAdaptersMatchLocalTwin: every statement of the federated corpus returns
// the rows its local twin returns when the same data sits in local tables.
func TestAdaptersMatchLocalTwin(t *testing.T) {
	d := newFedData()
	fed, twin := d.federated(t), d.twin(t)
	for _, s := range fedCorpus {
		want, err := twin.Query(s.sql, s.params...)
		if err != nil {
			t.Fatalf("twin %s: %v", s.sql, err)
		}
		got, err := fed.Query(s.sql, s.params...)
		if err != nil {
			t.Errorf("%s %v: %v", s.sql, s.params, err)
			continue
		}
		g, w := sortedCopy(renderRows(got.Rows)), sortedCopy(renderRows(want.Rows))
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s %v\n  adapters %v\n  twin     %v", s.sql, s.params, g, w)
		}
	}
}

// TestTwoAdaptersOfOneKind: beside the fixture's four adapters, a second
// adapter of each kind registers under its own schema. Each schema's
// statements reach only its own backend (with one convention per kind, the
// first adapter's converter ran the second adapter's subtree and failed with
// an unknown table).
func TestTwoAdaptersOfOneKind(t *testing.T) {
	conn := newFedData().federated(t)
	id := []types.Field{bigint("id")}
	db := sqldb.NewServer("db2")
	db.CreateTable("ev", types.Row(id...), [][]any{{int64(7)}})
	ev := splunk.NewEngine()
	ev.AddIndex(&splunk.Index{Name: "ev", Fields: id, Events: [][]any{{int64(7)}}})
	cass := cassandra.NewStore()
	cass.CreateTable(cassandra.TableDef{Name: "ev", Fields: id, PartitionKeys: []int{0}}, [][]any{{int64(7)}})
	docs := mongo.NewStore()
	docs.AddCollection("ev", []map[string]any{{"id": float64(7)}})
	jdbc, err := sqldb.New("db2", db, rel2sql.MySQL)
	if err != nil {
		t.Fatal(err)
	}
	conn.RegisterAdapter(jdbc)
	conn.RegisterAdapter(splunk.New("splunk2", ev))
	conn.RegisterAdapter(cassandra.New("c2", cass))
	conn.RegisterAdapter(mongo.New("mongo2", docs))

	logs := map[string][2]*[]string{ // each kind's backends: the fixture's, then the second
		"sqldb": {&conn.db.Queries, &db.Queries}, "splunk": {&conn.splunk.Queries, &ev.Queries},
		"cassandra": {&conn.cass.Queries, &cass.Queries}, "mongo": {&conn.mongo.Queries, &docs.Queries},
	}
	for _, c := range []struct {
		sql  string
		kind string
		own  int // which of the kind's two backends the schema is
	}{
		{"SELECT id FROM db2.ev WHERE id = 7", "sqldb", 1},
		{"SELECT id FROM splunk2.ev WHERE id = 7", "splunk", 1},
		{"SELECT id FROM c2.ev WHERE id = 7", "cassandra", 1},
		{"SELECT CAST(_MAP['id'] AS BIGINT) FROM mongo2.ev WHERE CAST(_MAP['id'] AS BIGINT) = 7", "mongo", 1},
		{"SELECT name FROM db.products WHERE id = 2", "sqldb", 0},
		{"SELECT units FROM splunk.orders WHERE units > 45", "splunk", 0},
		{"SELECT payload FROM cass.events WHERE tenant = 'globex'", "cassandra", 0},
		{"SELECT city FROM zips WHERE city = 'UTRECHT'", "mongo", 0},
	} {
		own, other := logs[c.kind][c.own], logs[c.kind][1-c.own]
		ownBefore, otherBefore := len(*own), len(*other)
		res, err := conn.Query(c.sql)
		if err != nil || len(res.Rows) != 1 {
			t.Errorf("%s: rows %v, err %v", c.sql, res, err)
			continue
		}
		if len(*own) != ownBefore+1 || len(*other) != otherBefore {
			t.Errorf("%s: %d requests to its own %s backend and %d to the other, want 1 and 0",
				c.sql, len(*own)-ownBefore, c.kind, len(*other)-otherBefore)
		}
	}
}

// TestParametersCrossTheFederationBoundary: a prepared statement is pushed
// into a backend exactly as its literal twin is — the same operators in the
// plan, the same request text with the bound value in the backend's own
// language (sqldb used to send "?" and be refused; the other three kept "?"
// predicates engine-side) and the same rows. A parameter bound to NULL
// returns no rows and sends no request. Embedded and over the wire.
func TestParametersCrossTheFederationBoundary(t *testing.T) {
	conn := newFedData().federated(t)
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
		sent     func() string // the backend's last request
	}{
		{"SELECT name FROM db.products WHERE id = ?", int64(2),
			"SELECT name FROM db.products WHERE id = 2", conn.db.LastQuery},
		{"SELECT ts, payload FROM cass.events WHERE tenant = ? ORDER BY ts", "acme",
			"SELECT ts, payload FROM cass.events WHERE tenant = 'acme' ORDER BY ts", conn.cass.LastQuery},
		{"SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > ?", 400000.0,
			"SELECT CAST(_MAP['city'] AS VARCHAR(20)) AS city FROM mongo_raw.zips WHERE CAST(_MAP['pop'] AS DOUBLE) > 400000", conn.mongo.LastQuery},
		{"SELECT units FROM splunk.orders WHERE units > ?", int64(25),
			"SELECT units FROM splunk.orders WHERE units > 25", conn.splunk.LastQuery},
		{"SELECT id FROM splunk.roles WHERE role = ?", "lead actor",
			"SELECT id FROM splunk.roles WHERE role = 'lead actor'", conn.splunk.LastQuery},
	} {
		want, err := conn.Query(c.literal)
		if err != nil || len(want.Rows) == 0 {
			t.Fatalf("%s: %v, rows %v", c.literal, err, want)
		}
		sent := c.sent()
		wantPlan, _ := conn.Explain(c.literal)
		gotPlan, err := conn.Explain(c.prepared)
		if err != nil || operators(gotPlan) != operators(wantPlan) {
			t.Errorf("%s: plan %v\n%s\nits literal twin's:\n%s", c.prepared, err, gotPlan, wantPlan)
		}
		id, err := client.Prepare(c.prepared)
		if err != nil {
			t.Fatalf("prepare %s: %v", c.prepared, err)
		}
		for _, wire := range []bool{false, true} {
			var cols []string
			var rows, nulls [][]any
			var err, nullErr error
			if wire {
				var resp, nullResp *avatica.ExecuteResponse
				if resp, err = client.Execute(id, c.param); err == nil {
					cols, rows = resp.Columns, resp.Rows
				}
				if nullResp, nullErr = client.Execute(id, nil); nullErr == nil {
					nulls = nullResp.Rows
				}
			} else {
				var res, nullRes *calcite.Result
				if res, err = conn.Query(c.prepared, c.param); err == nil {
					cols, rows = res.Columns, res.Rows
				}
				if nullRes, nullErr = conn.Query(c.prepared, nil); nullErr == nil {
					nulls = nullRes.Rows
				}
			}
			if err != nil {
				t.Errorf("%s (wire %v): %v", c.prepared, wire, err)
				continue
			}
			compareWire(t, c.prepared, want, cols, rows)
			if nullErr != nil || len(nulls) != 0 {
				t.Errorf("%s (wire %v) bound to NULL: rows %v, err %v; want none", c.prepared, wire, nulls, nullErr)
			}
			if q := c.sent(); q != sent {
				t.Errorf("%s (wire %v): backend's last request %q, the literal twin's %q", c.prepared, wire, q, sent)
			}
		}
	}
}

// operators lists the operators of an EXPLAIN text, top down.
func operators(plan string) string {
	var ops []string
	for _, line := range strings.Split(strings.TrimSpace(plan), "\n") {
		op, _, _ := strings.Cut(strings.TrimSpace(line), "(")
		ops = append(ops, op)
	}
	return strings.Join(ops, " ")
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
