package main

// federated_job: a Join-Order-Benchmark-shaped catalog spread over four
// backends plus a local table, queried by twelve fixed multi-source join
// templates. The adapters' scans, converters and pushdown do most of the work.

import (
	"fmt"
	"math/rand"

	"calcite"
	"calcite/internal/adapter/cassandra"
	"calcite/internal/adapter/mongo"
	"calcite/internal/adapter/splunk"
	"calcite/internal/adapter/sqldb"
	"calcite/internal/rel2sql"
	"calcite/internal/types"
)

// fedData is the movie catalog: title and company live behind the SQL-string
// boundary, cast_info is an event index, movie_info a wide-column table,
// movie_companies a document collection and kind_type a local table.
type fedData struct {
	title, company, castInfo, movieInfo, movieCompanies, kindType *table
}

var (
	fedKinds     = []string{"movie", "series", "episode", "short", "game", "video", "docu"}
	fedRoles     = []string{"actor", "actress", "director", "writer", "producer", "composer"}
	fedCountries = []string{"us", "gb", "fr", "de", "jp", "in", "it", "es", "ca", "br", "kr", "se"}
	fedInfoTypes = []string{"budget", "gross", "rating", "votes", "runtime", "genre"}
	fedNotes     = []string{"production", "distribution", "effects", "music"}
)

func genFederated(rng *rand.Rand, scale int) any {
	nTitle := scaled(fedTitles, scale, 100)
	nCompany := scaled(fedCompanies, scale, 100)
	d := &fedData{
		title:    newTable("pg.title", bigint("id"), bigint("kind_id"), bigint("year"), double("rating")),
		company:  newTable("pg.company", bigint("id"), varchar("country"), bigint("size")),
		castInfo: newTable("splunk.cast_info", types.Field{Name: "rowtime", Type: types.Timestamp}, bigint("movie_id"), bigint("person_id"), varchar("role"), bigint("salary")),
		movieInfo: newTable("cass.movie_info", bigint("movie_id"), bigint("seq"), varchar("info_type"),
			bigint("score")),
		movieCompanies: newTable("movie_companies", bigint("movie_id"), bigint("company_id"), varchar("note")),
		kindType:       newTable("kind_type", bigint("id"), varchar("kind")),
	}
	for i, k := range fedKinds {
		d.kindType.rows = append(d.kindType.rows, []any{int64(i), k})
	}
	for i := 0; i < nTitle; i++ {
		d.title.rows = append(d.title.rows, []any{int64(i), int64(rng.Intn(len(fedKinds))),
			int64(1950 + rng.Intn(75)), quarter(rng, 10)})
	}
	for i := 0; i < nCompany; i++ {
		d.company.rows = append(d.company.rows, []any{int64(i), fedCountries[rng.Intn(len(fedCountries))],
			int64(1 + rng.Intn(5000))})
	}
	for i, n := 0, scaled(fedCastEvents, scale, 500); i < n; i++ {
		d.castInfo.rows = append(d.castInfo.rows, []any{int64(i) * 1000, skewed(rng, nTitle),
			int64(rng.Intn(n / 5)), fedRoles[rng.Intn(len(fedRoles))], int64(1000 + rng.Intn(9000))})
	}
	perMovie := map[int64]int64{}
	for i, n := 0, scaled(fedInfoRows, scale, 300); i < n; i++ {
		m := int64(rng.Intn(nTitle))
		d.movieInfo.rows = append(d.movieInfo.rows, []any{m, perMovie[m],
			fedInfoTypes[rng.Intn(len(fedInfoTypes))], int64(rng.Intn(1000))})
		perMovie[m]++
	}
	for i, n := 0, scaled(fedCompanyDocs, scale, 100); i < n; i++ {
		d.movieCompanies.rows = append(d.movieCompanies.rows, []any{int64(rng.Intn(nTitle)),
			skewed(rng, nCompany), fedNotes[rng.Intn(len(fedNotes))]})
	}
	return d
}

func (d *fedData) tables() []*table {
	return []*table{d.title, d.company, d.castInfo, d.movieInfo, d.movieCompanies, d.kindType}
}

func rowType(t *table) *types.Type {
	fields := make([]types.Field, len(t.cols))
	for i := range t.cols {
		fields[i] = types.Field{Name: t.cols[i], Type: t.types[i]}
	}
	return types.Row(fields...)
}

// movieCompaniesView types the document collection, as §7.1 of the paper does
// for its zips collection.
const movieCompaniesView = `CREATE VIEW movie_companies AS
	SELECT CAST(_MAP['movie_id'] AS BIGINT) AS movie_id,
	       CAST(_MAP['company_id'] AS BIGINT) AS company_id,
	       CAST(_MAP['note'] AS VARCHAR(20)) AS note
	FROM mongo_raw.movie_companies`

// fedBackends are the four stores behind the adapters; the per-layer metrics
// read their request logs and scan their tables.
type fedBackends struct {
	pg     *sqldb.Server
	splunk *splunk.Engine
	cass   *cassandra.Store
	mongo  *mongo.Store
}

func buildFederated(data any) (*system, error) {
	d := data.(*fedData)
	b := &fedBackends{
		pg:     sqldb.NewServer("pg"),
		splunk: splunk.NewEngine(),
		cass:   cassandra.NewStore(),
		mongo:  mongo.NewStore(),
	}
	b.pg.CreateTable("title", rowType(d.title), d.title.rows)
	b.pg.CreateTable("company", rowType(d.company), d.company.rows)
	b.splunk.AddIndex(&splunk.Index{Name: "cast_info", Fields: rowType(d.castInfo).Fields, Events: d.castInfo.rows})
	// The paper's Figure 2 wiring: the event store can look rows up in the
	// SQL database, which lets the planner turn a join into a lookup join.
	b.splunk.SetLookup(func(tab, key string, value any) ([]string, [][]any, error) {
		rt, _, err := b.pg.TableType(tab)
		if err != nil {
			return nil, nil, err
		}
		rows, err := b.pg.Lookup(tab, key, value)
		return rt.FieldNames(), rows, err
	})
	b.cass.CreateTable(cassandra.TableDef{Name: "movie_info", Fields: rowType(d.movieInfo).Fields,
		PartitionKeys: []int{0}, ClusteringKeys: []int{1}}, d.movieInfo.rows)
	docs := make([]map[string]any, len(d.movieCompanies.rows))
	for i, r := range d.movieCompanies.rows {
		docs[i] = map[string]any{"movie_id": float64(r[0].(int64)), "company_id": float64(r[1].(int64)), "note": r[2]}
	}
	b.mongo.AddCollection("movie_companies", docs)

	conn := calcite.Open()
	jdbc, err := sqldb.New("pg", b.pg, rel2sql.Postgres)
	if err != nil {
		return nil, err
	}
	conn.RegisterAdapter(jdbc)
	conn.RegisterAdapter(splunk.New("splunk", b.splunk))
	conn.RegisterAdapter(cassandra.New("cass", b.cass))
	conn.RegisterAdapter(mongo.New("mongo_raw", b.mongo))
	if _, err := conn.Exec(movieCompaniesView); err != nil {
		return nil, fmt.Errorf("create view: %w", err)
	}
	if err := registerTables(conn, []*table{d.kindType}); err != nil {
		return nil, err
	}
	return &system{conn: conn, exec: queryExec(conn), backends: b}, nil
}

// fedTemplates builds the twelve join templates; rng picks their literals.
func fedTemplates(d *fedData, rng *rand.Rand) []*op {
	nTitle := len(d.title.rows)
	year := func() int64 { return int64(1990 + rng.Intn(5)) }
	country := func() string { return fedCountries[rng.Intn(len(fedCountries))] }
	role := func() string { return fedRoles[rng.Intn(len(fedRoles))] }
	// on joins from[rightSrc] to an earlier FROM item.
	on := func(q *query, leftSrc int, leftCol string, rightSrc int, rightCol string) join {
		return join{leftSrc, q.from[leftSrc].tab.col(leftCol), q.from[rightSrc].tab.col(rightCol)}
	}
	count := aggSpec{aggCount, scalar{}, "n"}
	var ops []*op
	add := func(q *query) { ops = append(ops, newOp(fmt.Sprintf("t%02d", len(ops)+1), q)) }

	// t01 title ⋈ kind_type: production per kind after a year.
	q := &query{from: []source{{d.title, "t"}, {d.kindType, "k"}}}
	q.joins = []join{on(q, 0, "kind_id", 1, "id")}
	q.where = []pred{q.cmpPred(0, "year", ">", year(), false)}
	q.selects, q.names = []scalar{q.colOf(1, "kind")}, []string{"kind"}
	q.aggs = []aggSpec{count, {aggMax, q.colOf(0, "rating"), "best"}}
	add(q)

	// t02 cast_info ⋈ title: well-paid people in one role, by recent title.
	q = &query{from: []source{{d.castInfo, "ci"}, {d.title, "t"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id")}
	q.where = []pred{q.cmpPred(0, "role", "=", role(), false), q.cmpPred(0, "salary", ">", int64(9000+rng.Intn(700)), false),
		q.cmpPred(1, "year", ">", year(), false)}
	q.selects, q.names = []scalar{q.colOf(1, "id"), q.colOf(0, "person_id"), q.colOf(0, "salary")}, []string{"id", "person_id", "salary"}
	add(q)

	// t03 movie_info ⋈ title: one movie's info rows (partition-key lookup).
	q = &query{from: []source{{d.movieInfo, "mi"}, {d.title, "t"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id")}
	q.where = []pred{q.cmpPred(0, "movie_id", "=", int64(rng.Intn(nTitle)), false)}
	q.selects, q.names = []scalar{q.colOf(1, "year"), q.colOf(0, "seq"), q.colOf(0, "info_type"), q.colOf(0, "score")}, []string{"year", "seq", "info_type", "score"}
	q.orderBy = []orderKey{{1, false}}
	add(q)

	// t04 movie_companies ⋈ company: one kind of deal in one country.
	q = &query{from: []source{{d.movieCompanies, "mc"}, {d.company, "c"}}}
	q.joins = []join{on(q, 0, "company_id", 1, "id")}
	q.where = []pred{q.cmpPred(0, "note", "=", fedNotes[rng.Intn(len(fedNotes))], false), q.cmpPred(1, "country", "=", country(), false)}
	q.selects, q.names = []scalar{q.colOf(0, "movie_id"), q.colOf(1, "id"), q.colOf(1, "size")}, []string{"movie_id", "company_id", "size"}
	add(q)

	// t05 title ⋈ movie_companies ⋈ company: JOB-style MIN over three sources.
	q = &query{from: []source{{d.title, "t"}, {d.movieCompanies, "mc"}, {d.company, "c"}}}
	q.joins = []join{on(q, 0, "id", 1, "movie_id"), on(q, 1, "company_id", 2, "id")}
	q.where = []pred{q.cmpPred(2, "country", "=", country(), false), q.cmpPred(0, "year", ">", year(), false)}
	q.aggs = []aggSpec{count, {aggMin, q.colOf(0, "year"), "first_year"}, {aggMax, q.colOf(2, "size"), "largest"}}
	add(q)

	// t06 cast_info ⋈ title ⋈ kind_type: top earners per kind.
	q = &query{from: []source{{d.castInfo, "ci"}, {d.title, "t"}, {d.kindType, "k"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id"), on(q, 1, "kind_id", 2, "id")}
	q.where = []pred{q.cmpPred(0, "salary", ">", int64(9500+rng.Intn(300)), false)}
	q.selects, q.names = []scalar{q.colOf(2, "kind")}, []string{"kind"}
	q.aggs = []aggSpec{count, {aggSum, q.colOf(0, "salary"), "payroll"}}
	add(q)

	// t07 movie_info ⋈ title ⋈ movie_companies: a non-key filter on the
	// wide-column table cannot be pushed, so its rows ship.
	q = &query{from: []source{{d.movieInfo, "mi"}, {d.title, "t"}, {d.movieCompanies, "mc"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id"), on(q, 1, "id", 2, "movie_id")}
	q.where = []pred{q.cmpPred(0, "info_type", "=", fedInfoTypes[rng.Intn(len(fedInfoTypes))], false),
		q.cmpPred(0, "score", ">", int64(940+rng.Intn(20)), false), q.cmpPred(2, "note", "=", fedNotes[rng.Intn(len(fedNotes))], false)}
	q.aggs = []aggSpec{count, {aggMin, q.colOf(1, "year"), "first_year"}, {aggMax, q.colOf(0, "score"), "top_score"}}
	add(q)

	// t08 cast_info ⋈ title ⋈ movie_companies ⋈ company: all four backends.
	q = &query{from: []source{{d.castInfo, "ci"}, {d.title, "t"}, {d.movieCompanies, "mc"}, {d.company, "c"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id"), on(q, 1, "id", 2, "movie_id"), on(q, 2, "company_id", 3, "id")}
	q.where = []pred{q.cmpPred(0, "role", "=", role(), false), q.cmpPred(0, "salary", ">", int64(9000+rng.Intn(500)), false),
		q.cmpPred(3, "country", "=", country(), false)}
	q.aggs = []aggSpec{count, {aggMin, q.colOf(1, "year"), "first_year"}, {aggMax, q.colOf(0, "salary"), "top_salary"}}
	add(q)

	// t09 cast_info ⋈ title: top-N by salary.
	q = &query{from: []source{{d.castInfo, "ci"}, {d.title, "t"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "id")}
	q.where = []pred{q.cmpPred(0, "salary", ">", int64(9800+rng.Intn(100)), false), q.cmpPred(1, "rating", ">", float64(4+rng.Intn(2)), false)}
	q.selects, q.names = []scalar{q.colOf(0, "salary"), q.colOf(0, "person_id"), q.colOf(1, "id")}, []string{"salary", "person_id", "id"}
	q.orderBy, q.limit = []orderKey{{0, true}, {1, false}, {2, false}}, 20
	add(q)

	// t10 movie_info ⋈ movie_companies: wide-column rows for the movies of
	// the biggest companies.
	q = &query{from: []source{{d.movieCompanies, "mc"}, {d.movieInfo, "mi"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "movie_id")}
	q.where = []pred{q.cmpPred(0, "company_id", "<", int64(4+rng.Intn(2)), false), q.cmpPred(1, "score", "<", int64(140+rng.Intn(20)), false)}
	q.selects, q.names = []scalar{q.colOf(1, "info_type")}, []string{"info_type"}
	q.aggs = []aggSpec{count, {aggSum, q.colOf(1, "score"), "total"}}
	add(q)

	// t11 title ⋈ movie_companies ⋈ company: deals per year for big companies.
	q = &query{from: []source{{d.title, "t"}, {d.movieCompanies, "mc"}, {d.company, "c"}}}
	q.joins = []join{on(q, 0, "id", 1, "movie_id"), on(q, 1, "company_id", 2, "id")}
	q.where = []pred{q.cmpPred(2, "size", ">", int64(4200+rng.Intn(100)), false), q.cmpPred(0, "kind_id", "=", int64(rng.Intn(len(fedKinds))), false)}
	q.selects, q.names = []scalar{q.colOf(0, "year")}, []string{"year"}
	q.aggs = []aggSpec{count}
	q.orderBy = []orderKey{{0, false}}
	add(q)

	// t12 cast_info ⋈ movie_info: one person's movies with their info rows.
	q = &query{from: []source{{d.castInfo, "ci"}, {d.movieInfo, "mi"}}}
	q.joins = []join{on(q, 0, "movie_id", 1, "movie_id")}
	q.where = []pred{q.cmpPred(0, "person_id", "<", int64(8+rng.Intn(3)), false), q.cmpPred(1, "info_type", "=", fedInfoTypes[rng.Intn(len(fedInfoTypes))], false)}
	q.selects, q.names = []scalar{q.colOf(0, "person_id"), q.colOf(1, "movie_id"), q.colOf(1, "score")}, []string{"person_id", "movie_id", "score"}
	add(q)
	return ops
}

var federatedJob = &workload{
	name:     "federated_job",
	why:      "the paper's headline: JOB-shaped joins across sqldb, splunk, cassandra, mongo and a local table; adapter scans and pushdown do most of the work",
	generate: genFederated,
	build:    buildFederated,
	plan: func(data any, rng *rand.Rand, _ int) [][]*op {
		ts := fedTemplates(data.(*fedData), rng)
		// Fifteen slots: the key lookup t03 runs twice and the three-source
		// t05 three times, which puts the middle of the latency mixture
		// inside t05's own distribution instead of between two templates.
		return [][]*op{append(ts, ts[2], ts[4], ts[4])}
	},
	minWarmupCycles: warmupCycles,
}
