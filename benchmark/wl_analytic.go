package main

// analytic_scan and spill_governed: one statement generator over the retail
// snowflake, run once with unlimited memory on the large fact table and once
// under a quarter-working-set budget on the smaller one.

import (
	"math/rand"

	"calcite"
)

// analyticQueries builds the eight statement classes. Literals come from rng,
// so each seed gives its own texts; within a run the texts are fixed, so after
// warm-up every statement is a plan-cache hit.
func analyticQueries(r *retail, rng *rand.Rand) map[string]*query {
	sales := func(alias string) source { return source{r.sales, alias} }
	qs := map[string]*query{}

	// Selective filter: about 1 row in 100 survives.
	f := &query{from: []source{sales("s")}}
	f.where = []pred{
		f.cmpPred(0, "qty", "=", int64(1+rng.Intn(10)), false),
		f.cmpPred(0, "disc", "<", int64(3), false),
	}
	f.selects, f.names = []scalar{f.colOf(0, "id"), f.colOf(0, "amount")}, []string{"id", "amount"}
	qs["filter"] = f

	// Expression-heavy projection over every fact row.
	p := &query{from: []source{sales("s")}}
	k1, k2 := lit(float64(1+rng.Intn(20))/4), lit(int64(1+rng.Intn(9)))
	p.selects = []scalar{
		p.colOf(0, "id"),
		arith('+', arith('*', p.colOf(0, "qty"), p.colOf(0, "amount")), k1),
		arith('*', arith('+', p.colOf(0, "qty"), k2), arith('-', p.colOf(0, "disc"), lit(int64(2)))),
		arith('-', p.colOf(0, "amount"), arith('*', p.colOf(0, "disc"), lit(0.25))),
	}
	p.names = []string{"id", "gross", "score", "net"}
	qs["project"] = p

	// Two-way hash join, dimension filtered to a narrow age band.
	j := &query{from: []source{sales("s"), {r.customers, "c"}}}
	j.joins = []join{{0, r.sales.col("cust_id"), r.customers.col("id")}}
	age := int64(20 + rng.Intn(50))
	j.where = []pred{j.betweenPred(1, "age", age, age+4)}
	j.selects = []scalar{j.colOf(0, "id"), j.colOf(1, "segment"), j.colOf(0, "amount")}
	j.names = []string{"id", "segment", "amount"}
	qs["join2"] = j

	// Five-way star join + aggregate.
	st := &query{from: []source{sales("s"), {r.customers, "c"}, {r.products, "p"}, {r.stores, "t"}, {r.dates, "d"}}}
	st.joins = []join{
		{0, r.sales.col("cust_id"), r.customers.col("id")},
		{0, r.sales.col("prod_id"), r.products.col("id")},
		{0, r.sales.col("store_id"), r.stores.col("id")},
		{0, r.sales.col("date_id"), r.dates.col("id")},
	}
	st.where = []pred{
		st.cmpPred(1, "segment", "<>", segments[rng.Intn(len(segments))], false),
		st.cmpPred(2, "price", ">", float64(40+rng.Intn(4)), false),
		st.cmpPred(3, "sqft", "<", int64(6000+100*rng.Intn(4)), false),
		st.cmpPred(4, "quarter", "=", int64(1+rng.Intn(4)), false),
	}
	st.selects, st.names = []scalar{st.colOf(1, "segment"), st.colOf(4, "month")}, []string{"segment", "month"}
	st.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, st.colOf(0, "amount"), "total"}, {aggMax, st.colOf(0, "qty"), "maxqty"}}
	qs["star5"] = st

	// High-NDV integer GROUP BY.
	ai := &query{from: []source{sales("s")}}
	ai.selects, ai.names = []scalar{ai.colOf(0, "cust_id")}, []string{"cust_id"}
	ai.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, ai.colOf(0, "qty"), "units"}}
	ai.where = []pred{ai.cmpPred(0, "disc", "<>", int64(rng.Intn(31)), false)}
	qs["agg_int"] = ai

	// Low-NDV string GROUP BY.
	as := &query{from: []source{sales("s")}}
	as.selects, as.names = []scalar{as.colOf(0, "status")}, []string{"status"}
	as.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, as.colOf(0, "amount"), "total"}, {aggMin, as.colOf(0, "disc"), "mindisc"}}
	as.where = []pred{as.cmpPred(0, "qty", "<>", int64(1+rng.Intn(10)), false)}
	qs["agg_str"] = as

	// ORDER BY ... LIMIT.
	tn := &query{from: []source{sales("s")}}
	tn.selects, tn.names = []scalar{tn.colOf(0, "id"), tn.colOf(0, "amount")}, []string{"id", "amount"}
	tn.where = []pred{tn.cmpPred(0, "promo_id", "<>", int64(rng.Intn(nPromos)), false)}
	tn.orderBy, tn.limit = []orderKey{{1, true}, {0, false}}, 100
	qs["topn"] = tn

	// Sliding-window SUM per store.
	w := &query{from: []source{sales("s")}}
	w.selects, w.names = []scalar{w.colOf(0, "id"), w.colOf(0, "store_id")}, []string{"id", "store_id"}
	w.window = &windowSpec{arg: w.colOf(0, "qty"), part: w.colOf(0, "store_id"), order: w.colOf(0, "id"),
		preceding: 8 + rng.Intn(3), as: "running"}
	qs["window"] = w

	// Full sort: the spilling counterpart of topn.
	so := &query{from: []source{sales("s")}}
	so.selects, so.names = []scalar{so.colOf(0, "id"), so.colOf(0, "amount")}, []string{"id", "amount"}
	so.where = []pred{so.cmpPred(0, "promo_id", "<>", int64(rng.Intn(nPromos)), false)}
	so.orderBy = []orderKey{{1, true}, {0, false}}
	qs["sort"] = so

	// Hash join with a build side too large for a governed budget: the fact
	// table joined to half of itself.
	jb := &query{from: []source{sales("s"), sales("b")}}
	jb.joins = []join{{0, r.sales.col("id"), r.sales.col("id")}}
	jb.where = []pred{jb.cmpPred(1, "disc", "<", int64(14+rng.Intn(2)), false)}
	jb.selects = []scalar{jb.colOf(0, "id"), jb.colOf(1, "status"), arith('+', jb.colOf(0, "amount"), jb.colOf(1, "amount"))}
	jb.names = []string{"id", "status", "twice"}
	qs["joinbig"] = jb

	// GROUP BY a key pair with nearly one group per row: aggregation state
	// too large for a governed budget.
	aw := &query{from: []source{sales("s")}}
	aw.selects, aw.names = []scalar{aw.colOf(0, "cust_id"), aw.colOf(0, "prod_id")}, []string{"cust_id", "prod_id"}
	aw.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, aw.colOf(0, "amount"), "total"}}
	aw.where = []pred{aw.cmpPred(0, "qty", "<>", int64(1+rng.Intn(10)), false)}
	qs["agg_wide"] = aw
	return qs
}

// rotation turns a list of class names into one client's operation list.
func rotation(qs map[string]*query, classes ...string) [][]*op {
	ops := make([]*op, len(classes))
	byClass := map[string]*op{}
	for i, c := range classes {
		if byClass[c] == nil {
			byClass[c] = newOp(c, qs[c])
		}
		ops[i] = byClass[c]
	}
	return [][]*op{ops}
}

func buildRetail(configure func(*calcite.Connection, *retail)) func(any) (*system, error) {
	return func(data any) (*system, error) {
		conn := calcite.Open()
		configure(conn, data.(*retail))
		if err := registerTables(conn, data.(*retail).tables()); err != nil {
			return nil, err
		}
		return &system{conn: conn, exec: queryExec(conn)}, nil
	}
}

func genAnalytic(sales int) func(*rand.Rand, int) any {
	return func(rng *rand.Rand, scale int) any {
		return genRetail(rng, retailSizes{
			sales:     scaled(sales, scale, 400),
			customers: scaled(sales/10, scale, 40),
			products:  scaled(sales/25, scale, 40),
			stores:    scaled(sales/250, scale, 20),
			dates:     360,
		})
	}
}

// serialGoverned pins a governed instance to the serial execution paths. At
// the default parallelism a parallel aggregate whose state spills deadlocks
// the engine (MergeGather over FinalAgg partitions with blocked Scatter
// senders; see README.md, hazards), so the governed workload cannot run there.
// Serial, every spill count repeats exactly.
func serialGoverned(conn *calcite.Connection) { conn.SetParallelism(1) }

var analyticScan = &workload{
	name:     "analytic_scan",
	why:      "dashboards re-running eight heavy statements: all plan-cache hits, so exec, rex kernels, schema vectors and parallel do the work and planning none",
	generate: genAnalytic(analyticSales),
	build:    buildRetail(func(*calcite.Connection, *retail) {}),
	plan: func(data any, rng *rand.Rand, _ int) [][]*op {
		return rotation(analyticQueries(data.(*retail), rng), analyticRotation...)
	},
	minWarmupCycles: warmupCycles,
}

var spillGoverned = &workload{
	name:     "spill_governed",
	why:      "the working set exceeds the query memory budget fourfold, so sort, hash join, aggregate and window all spill: memory reservations, codec and run files",
	generate: genAnalytic(spillSales),
	build: buildRetail(func(conn *calcite.Connection, r *retail) {
		serialGoverned(conn)
		// The limit follows the fact table, so -quick spills as well.
		conn.SetQueryMemoryLimit(spillQueryMemoryLimit * int64(len(r.sales.rows)) / spillSales)
	}),
	plan: func(data any, rng *rand.Rand, _ int) [][]*op {
		return rotation(analyticQueries(data.(*retail), rng), spillRotation...)
	},
	minWarmupCycles: warmupCycles,
}
