package main

// plan_adhoc: every statement is textually new, so every statement misses the
// plan cache and pays parse + validate + convert + optimize; the tables are
// tiny, so execution is almost free.

import (
	"fmt"
	"math/rand"

	"calcite"
	"calcite/internal/types"
)

// adhocData is the tiny snowflake plus the materialized rows of the view the
// engine expands (the reference reads the view as a flat table).
type adhocData struct {
	*retail
	salesCust *table
}

const salesCustView = `CREATE VIEW sales_cust AS
	SELECT s.id AS id, s.store_id AS store_id, s.qty AS qty, s.amount AS amount, s.disc AS disc,
	       c.segment AS segment, c.age AS age
	FROM sales s JOIN customers c ON s.cust_id = c.id`

func genAdhoc(rng *rand.Rand, _ int) any {
	r := genRetail(rng, retailSizes{sales: adhocSales, customers: 40, products: 50, stores: 20, dates: 60})
	v := newTable("sales_cust", bigint("id"), bigint("store_id"), bigint("qty"), double("amount"),
		bigint("disc"), varchar("segment"), bigint("age"))
	for _, s := range r.sales.rows {
		c := r.customers.rows[s[r.sales.col("cust_id")].(int64)]
		v.rows = append(v.rows, []any{s[0], s[r.sales.col("store_id")], s[r.sales.col("qty")],
			s[r.sales.col("amount")], s[r.sales.col("disc")], c[2], c[3]})
	}
	return &adhocData{retail: r, salesCust: v}
}

func buildAdhoc(data any) (*system, error) {
	d := data.(*adhocData)
	conn := calcite.Open()
	if err := registerTables(conn, d.tables()); err != nil {
		return nil, err
	}
	if _, err := conn.Exec(salesCustView); err != nil {
		return nil, fmt.Errorf("create view: %w", err)
	}
	return &system{conn: conn, exec: queryExec(conn)}, nil
}

// edge is one foreign key of the snowflake: child.fk references parent.id.
type edge struct {
	child, fk, parent, alias string
}

var adhocEdges = []edge{
	{"s", "cust_id", "customers", "c"},
	{"s", "prod_id", "products", "p"},
	{"s", "store_id", "stores", "t"},
	{"s", "date_id", "dates", "d"},
	{"s", "promo_id", "promos", "m"},
	{"c", "region_id", "regions", "r"},
	{"p", "cat_id", "categories", "g"},
	{"t", "region_id", "regions", "tr"},
}

// predCol is a column the generator may put a predicate or a GROUP BY on.
type predCol struct {
	name   string
	lo, hi int      // numeric range, when strs is nil
	float  bool     // DOUBLE column: literals are quarter units
	strs   []string // string domain
	group  bool     // small domain: usable as a GROUP BY column
}

var adhocCols = map[string][]predCol{
	"sales": {{name: "qty", lo: 1, hi: 10, group: true}, {name: "disc", lo: 0, hi: 30},
		{name: "amount", lo: 1, hi: 100, float: true}, {name: "status", strs: statuses, group: true}},
	"sales_cust": {{name: "qty", lo: 1, hi: 10, group: true}, {name: "disc", lo: 0, hi: 30},
		{name: "amount", lo: 1, hi: 100, float: true}, {name: "segment", strs: segments, group: true},
		{name: "age", lo: 18, hi: 80}},
	"customers":  {{name: "age", lo: 18, hi: 80}, {name: "segment", strs: segments, group: true}},
	"regions":    {{name: "zone", strs: zones, group: true}, {name: "name", strs: regionNames, group: true}},
	"products":   {{name: "price", lo: 1, hi: 200, float: true}},
	"categories": {{name: "dept", strs: depts, group: true}},
	"stores":     {{name: "sqft", lo: 500, hi: 10000}},
	"dates": {{name: "month", lo: 1, hi: 12, group: true}, {name: "quarter", lo: 1, hi: 4, group: true},
		{name: "dow", lo: 0, hi: 6, group: true}},
	"promos": {{name: "kind", strs: promoKinds, group: true}, {name: "pct", lo: 0, hi: 45}},
}

// adhocShapePeriod is the number of statements after which adhocStatement's
// cycle of shapes repeats: the least common multiple of 6, 5, 20 and 140.
const adhocShapePeriod = 420

// adhocStatement draws the i-th statement: a 2–6-way join along the
// snowflake's foreign keys (one in six rooted at the view), 1–4 predicates
// with fresh literals, and a GROUP BY/ORDER BY, an ORDER BY … LIMIT or a window
// head. The shape — join count, predicate count, head, view — cycles with i, so
// every seed runs the same mix of cheap and dear statements; which tables,
// columns and literals fill the shape comes from rng.
func adhocStatement(d *adhocData, rng *rand.Rand, i int) *query {
	byName := map[string]*table{"sales_cust": d.salesCust}
	for _, t := range d.tables() {
		byName[t.name] = t
	}
	q := &query{from: []source{{d.sales, "s"}}}
	viaView := i%6 == 0
	if viaView {
		q.from[0].tab = d.salesCust
	}
	aliasSrc := map[string]int{"s": 0}
	for n := 1 + i%5; n > 0; n-- {
		var open []edge
		for _, e := range adhocEdges {
			_, have := aliasSrc[e.alias]
			_, reachable := aliasSrc[e.child]
			if !have && reachable && !(viaView && e.child == "s" && e.alias != "t") {
				open = append(open, e)
			}
		}
		if len(open) == 0 {
			break
		}
		e := open[rng.Intn(len(open))]
		child := aliasSrc[e.child]
		q.joins = append(q.joins, join{child, q.from[child].tab.col(e.fk), 0})
		aliasSrc[e.alias] = len(q.from)
		q.from = append(q.from, source{byName[e.parent], e.alias})
	}

	for n := 1 + (i/5)%4; n > 0; n-- {
		src := rng.Intn(len(q.from))
		cols := adhocCols[q.from[src].tab.name]
		q.where = append(q.where, adhocPred(q, src, cols[rng.Intn(len(cols))], rng))
	}

	measure := q.colOf(0, []string{"qty", "amount", "disc"}[rng.Intn(3)])
	switch head := (i / 7) % 20; {
	case head < 10: // GROUP BY 1–2 columns, ordered by them
		for n := 1 + rng.Intn(2); n > 0; n-- {
			src := rng.Intn(len(q.from))
			var groupable []predCol
			for _, c := range adhocCols[q.from[src].tab.name] {
				if c.group {
					groupable = append(groupable, c)
				}
			}
			if len(groupable) == 0 {
				src, groupable = 0, adhocCols[q.from[0].tab.name][:1]
			}
			c := groupable[rng.Intn(len(groupable))]
			name := fmt.Sprintf("g%d", len(q.selects))
			q.selects, q.names = append(q.selects, q.colOf(src, c.name)), append(q.names, name)
			q.orderBy = append(q.orderBy, orderKey{len(q.selects) - 1, rng.Intn(3) == 0})
		}
		q.aggs = []aggSpec{{aggCount, scalar{}, "n"}, {aggSum, measure, "total"}}
		if rng.Intn(2) == 0 {
			q.aggs = append(q.aggs, aggSpec{[]aggKind{aggMin, aggMax}[rng.Intn(2)], q.colOf(0, "disc"), "edge"})
		}
	case head < 17: // projection, ORDER BY the fact key, LIMIT
		q.selects = []scalar{q.colOf(0, "id"), arith('*', measure, lit(int64(1+rng.Intn(9))))}
		q.names = []string{"id", "scaled"}
		src := rng.Intn(len(q.from))
		c := adhocCols[q.from[src].tab.name][0]
		q.selects, q.names = append(q.selects, q.colOf(src, c.name)), append(q.names, "extra")
		q.orderBy, q.limit = []orderKey{{0, rng.Intn(2) == 0}}, 5+rng.Intn(40)
	default: // window clause
		q.selects, q.names = []scalar{q.colOf(0, "id"), q.colOf(0, "store_id")}, []string{"id", "store_id"}
		q.window = &windowSpec{arg: measure, part: q.colOf(0, "store_id"), order: q.colOf(0, "id"),
			preceding: 1 + rng.Intn(6), as: "running"}
	}
	return q
}

func adhocPred(q *query, src int, c predCol, rng *rand.Rand) pred {
	if c.strs != nil {
		if rng.Intn(2) == 0 {
			vals := []any{c.strs[rng.Intn(len(c.strs))], c.strs[rng.Intn(len(c.strs))]}
			return q.inPred(src, c.name, vals)
		}
		return q.cmpPred(src, c.name, []string{"=", "<>"}[rng.Intn(2)], c.strs[rng.Intn(len(c.strs))], false)
	}
	draw := func() any {
		if c.float {
			return float64(c.lo*4+rng.Intn((c.hi-c.lo)*4+1)) / 4
		}
		return int64(c.lo + rng.Intn(c.hi-c.lo+1))
	}
	if rng.Intn(4) == 0 {
		lo, hi := draw(), draw()
		if types.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		return q.betweenPred(src, c.name, lo, hi)
	}
	return q.cmpPred(src, c.name, []string{"<", "<=", ">", ">=", "<>"}[rng.Intn(5)], draw(), false)
}

var planAdhoc = &workload{
	name:     "plan_adhoc",
	why:      "ad-hoc BI: every statement is textually new, so parser, sql2rel, plan, rules and meta do nearly all the work and exec almost none",
	generate: genAdhoc,
	build:    buildAdhoc,
	plan: func(data any, rng *rand.Rand, scale int) [][]*op {
		d := data.(*adhocData)
		seen := map[string]bool{}
		ops := make([]*op, 0, scaled(adhocStatements, scale, 300))
		for len(ops) < cap(ops) {
			o := newOp("adhoc", adhocStatement(d, rng, len(ops)))
			if seen[o.sql] {
				continue // distinct texts by construction: a repeat would hit the cache
			}
			seen[o.sql] = true
			ops = append(ops, o)
		}
		return [][]*op{ops}
	},
	cycle: adhocShapePeriod,
}
