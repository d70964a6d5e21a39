package main

// serve_mixed: two wire clients against an in-process Avatica server, a
// weighted read mix with single-row INSERTs into the fact table beside it.
// Every operation is a whole request sequence: prepare → execute → fetch… →
// close.

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"calcite"
	"calcite/internal/avatica"
)

// serveData is the retail snowflake plus one write-only "sink" row per
// dimension. INSERTed fact rows reference only sink keys, and no read
// statement selects a sink attribute, so every read has one right answer no
// matter how many INSERTs have landed.
type serveData struct {
	*retail
	sinkCust, sinkProd, sinkStore, sinkDate int64
}

const sinkName = "sink"

func genServe(rng *rand.Rand, scale int) any {
	r := genAnalytic(serveSales)(rng, scale).(*retail)
	d := &serveData{retail: r,
		sinkCust: int64(len(r.customers.rows)), sinkProd: int64(len(r.products.rows)),
		sinkStore: int64(len(r.stores.rows)), sinkDate: int64(len(r.dates.rows))}
	r.customers.rows = append(r.customers.rows, []any{d.sinkCust, int64(0), sinkName, int64(0)})
	r.products.rows = append(r.products.rows, []any{d.sinkProd, int64(0), 0.25, sinkName})
	r.stores.rows = append(r.stores.rows, []any{d.sinkStore, int64(0), sinkName, int64(0)})
	r.dates.rows = append(r.dates.rows, []any{d.sinkDate, int64(0), int64(0), int64(0)})
	return d
}

// serveSystem is the client side of a served instance.
type serveSystem struct {
	clients  []*avatica.Client
	inserted atomic.Int64 // INSERTs acknowledged
	nextID   atomic.Int64 // next fact id to insert
}

func buildServe(data any) (*system, error) {
	d := data.(*serveData)
	conn := calcite.Open()
	if err := registerTables(conn, d.tables()); err != nil {
		return nil, err
	}
	srv := avatica.NewServer(conn.Framework)
	srv.TenantMemoryLimit = serveTenantMemoryLimit
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &serveSystem{}
	for c := 0; c < serveClients; c++ {
		cl := avatica.NewClient(addr)
		cl.Tenant = fmt.Sprintf("tenant%d", c)
		s.clients = append(s.clients, cl)
	}
	initial := int64(len(d.sales.rows))
	s.nextID.Store(initial)
	return &system{
		conn:  conn,
		serve: s,
		exec:  func(client int, o *op) ([][]any, error) { return s.sequence(client, o, nil) },
		check: func(o *op, rows [][]any) error {
			if o.class == "dash" {
				// The dashboard groups by segment; the sink segment grows
				// with every INSERT and is checked by the end-state count.
				kept := rows[:0:0]
				for _, r := range rows {
					if r[0] != sinkName {
						kept = append(kept, r)
					}
				}
				rows = kept
			}
			if got := digestRows(rows, o.ordered); got != o.want {
				return fmt.Errorf("wrong result: got %v, want %v: %s %v", got, o.want, o.sql, o.params)
			}
			return nil
		},
		finish: func() error {
			res, err := conn.Query("SELECT COUNT(*) FROM sales")
			if err != nil {
				return err
			}
			if got, want := res.Rows[0][0], initial+s.inserted.Load(); got != want {
				return fmt.Errorf("sales has %v rows after %d acknowledged INSERTs, want %d", got, s.inserted.Load(), want)
			}
			return nil
		},
		stop: srv.Stop,
	}, nil
}

// sequence runs one request sequence the way a JDBC-style caller would:
// prepare, execute, fetch until drained, close. In the traced pass span opens
// a span around each request and returns its closer.
func (s *serveSystem) sequence(client int, o *op, span func(name string) func()) ([][]any, error) {
	call := func(name string, fn func() error) error {
		if span != nil {
			defer span(name)()
		}
		return fn()
	}
	cl := s.clients[client]
	var id int64
	if err := call("avatica.Prepare", func() (err error) { id, err = cl.Prepare(o.sql); return }); err != nil {
		return nil, err
	}
	rows, err := s.executeAndDrain(cl, id, o, call)
	// The statement is released whatever happened; a failed close is
	// reported only when nothing failed before it.
	if cerr := call("avatica.Close", func() error { return cl.Close(id) }); err == nil {
		err = cerr
	}
	if err == nil && o.write {
		s.inserted.Add(1)
	}
	return rows, err
}

func (s *serveSystem) executeAndDrain(cl *avatica.Client, id int64, o *op, call func(string, func() error) error) ([][]any, error) {
	params := o.params
	if o.write {
		params = append([]any{s.nextID.Add(1) - 1}, params...)
	}
	var resp *avatica.ExecuteResponse
	err := call("avatica.Execute", func() (err error) {
		resp, err = cl.Do(avatica.ExecuteRequest{StatementID: id, Params: params, FetchSize: o.fetchSize})
		return
	})
	if err != nil {
		return nil, err
	}
	rows := resp.Rows
	for resp.More {
		err = call("avatica.Fetch", func() (err error) { resp, err = cl.Fetch(id, o.fetchSize); return })
		if err != nil {
			return nil, err
		}
		rows = append(rows, resp.Rows...)
	}
	return rows, nil
}

// serveMix is the operation pattern: 40 slots, so the shares are exactly
// 57.5 % point lookups, 15 % star joins, 10 % paginated sorts, 7.5 % dashboard
// aggregates and 10 % INSERTs. (The dashboard has three slots, not two, so the
// latency mixture's 95th percentile falls inside the dashboard class, not on
// its boundary with the star joins.) Each client runs its own seeded shuffles.
var serveMix = repeatClasses([]string{"point", "star", "sort", "dash", "insert"}, []int{23, 6, 4, 3, 4})

func repeatClasses(classes []string, slots []int) []string {
	var mix []string
	for i, class := range classes {
		for n := 0; n < slots[i]; n++ {
			mix = append(mix, class)
		}
	}
	return mix
}

func planServe(data any, rng *rand.Rand, scale int) [][]*op {
	d := data.(*serveData)
	r := d.retail
	nSales := len(r.sales.rows)
	cache := map[string]*op{} // reference results per (class, parameters)
	memo := func(class string, q *query) *op {
		sql, params := q.SQL()
		key := sql + fmt.Sprint(params)
		if cache[key] == nil {
			cache[key] = newOp(class, q)
		}
		return cache[key]
	}
	mk := map[string]func() *op{
		"point": func() *op {
			q := &query{from: []source{{r.sales, "s"}}}
			id := rng.Intn(nSales)
			q.where = []pred{q.cmpPred(0, "id", "=", int64(id), true)}
			for _, c := range []string{"id", "cust_id", "qty", "amount", "status"} {
				q.selects, q.names = append(q.selects, q.colOf(0, c)), append(q.names, c)
			}
			// Closed form: fact ids are row positions, so the reference is
			// that row's projection, not a scan.
			sql, params := q.SQL()
			return &op{class: "point", sql: sql, params: params, inputRows: q.inputRows(),
				want: digestRows([][]any{q.project(tuple{r.sales.rows[id]})}, false)}
		},
		"star": func() *op {
			q := &query{from: []source{{r.sales, "s"}, {r.customers, "c"}, {r.products, "p"}, {r.stores, "t"}, {r.dates, "d"}}}
			q.joins = []join{
				{0, r.sales.col("cust_id"), 0}, {0, r.sales.col("prod_id"), 0},
				{0, r.sales.col("store_id"), 0}, {0, r.sales.col("date_id"), 0},
			}
			first := int64(rng.Intn(int(d.sinkDate) - serveStarDates))
			q.where = []pred{
				q.cmpPred(0, "date_id", ">=", first, true), q.cmpPred(0, "date_id", "<", first+serveStarDates, true),
				q.cmpPred(1, "segment", "=", segments[rng.Intn(len(segments))], true),
				q.cmpPred(3, "sqft", "<", int64(5000), false),
			}
			q.selects, q.names = []scalar{q.colOf(2, "cat_id")}, []string{"cat_id"}
			q.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, q.colOf(0, "amount"), "total"}}
			return memo("star", q)
		},
		"sort": func() *op {
			q := &query{from: []source{{r.sales, "s"}}}
			first := int64(rng.Intn(int(d.sinkDate) - serveSortDates))
			q.where = []pred{q.cmpPred(0, "date_id", ">=", first, true), q.cmpPred(0, "date_id", "<", first+serveSortDates, true)}
			q.selects, q.names = []scalar{q.colOf(0, "id"), q.colOf(0, "amount")}, []string{"id", "amount"}
			q.orderBy = []orderKey{{1, true}, {0, false}}
			o := memo("sort", q)
			o.fetchSize = serveFetchSize
			return o
		},
		"dash": func() *op {
			q := &query{from: []source{{r.sales, "s"}, {r.customers, "c"}}}
			q.joins = []join{{0, r.sales.col("cust_id"), 0}}
			first := int64(rng.Intn(int(d.sinkDate) - serveDashDates))
			q.where = []pred{q.cmpPred(0, "date_id", ">=", first, true), q.cmpPred(0, "date_id", "<", first+serveDashDates, true)}
			q.selects, q.names = []scalar{q.colOf(1, "segment")}, []string{"segment"}
			q.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, q.colOf(0, "qty"), "units"}}
			return memo("dash", q)
		},
		"insert": func() *op {
			return &op{class: "insert", write: true, inputRows: 1,
				sql:    "INSERT INTO sales VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
				params: []any{d.sinkCust, d.sinkProd, d.sinkStore, d.sinkDate, int64(0), int64(1), 0.25, int64(0), "void"},
				want:   digestRows([][]any{{int64(1)}}, false)}
		},
	}
	lists := make([][]*op, serveClients)
	for c := range lists {
		for cycle := 0; cycle < scaled(serveCycles, scale, 2); cycle++ {
			mix := append([]string(nil), serveMix...)
			rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			for _, class := range mix {
				lists[c] = append(lists[c], mk[class]())
			}
		}
	}
	return lists
}

var serveMixed = &workload{
	name:     "serve_mixed",
	why:      "two wire clients, prepared reads beside single-row INSERTs that flush the plan cache, statistics and columnar snapshot: the price of writes",
	generate: genServe,
	build:    buildServe,
	plan:     planServe,
	cycle:    len(serveMix),
}
