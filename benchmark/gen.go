package main

// Seeded data generators. Everything a workload feeds the engine — tables,
// events, documents, statement texts, bind values — derives from one
// math/rand source seeded with -seed, so the same seed gives byte-identical
// inputs and a different seed gives different literals and rows.

import (
	"fmt"
	"math"
	"math/rand"

	"calcite/internal/types"
)

func newTable(name string, fields ...types.Field) *table {
	t := &table{name: name}
	for _, f := range fields {
		t.cols = append(t.cols, f.Name)
		t.types = append(t.types, f.Type)
	}
	return t
}

func bigint(name string) types.Field  { return types.Field{Name: name, Type: types.BigInt} }
func double(name string) types.Field  { return types.Field{Name: name, Type: types.Double} }
func varchar(name string) types.Field { return types.Field{Name: name, Type: types.Varchar} }

// skewed draws a key in [0, n) with a power-law bias toward small keys: a few
// hot dimension rows take most of the fact rows, as real foreign keys do.
func skewed(rng *rand.Rand, n int) int64 {
	return int64(float64(n) * math.Pow(rng.Float64(), 2.5))
}

// quarter draws a quarter-unit float in (0, max]: sums of quarter units are
// exact in float64, so reassociated partial sums (parallel, spilled) compare
// bit for bit against the reference.
func quarter(rng *rand.Rand, max int) float64 {
	return float64(1+rng.Intn(max*4)) / 4
}

// retailSizes are the row counts of the retail snowflake's sized tables; the
// remaining dimensions (regions, categories, promos) are fixed and tiny.
type retailSizes struct {
	sales, customers, products, stores, dates int
}

// retail is a sales fact table with a snowflake of dimensions:
// sales → customers → regions, sales → products → categories,
// sales → stores → regions, sales → dates, sales → promos.
type retail struct {
	sales, customers, regions, products, categories, stores, dates, promos *table
}

func (r *retail) tables() []*table {
	return []*table{r.sales, r.customers, r.regions, r.products, r.categories, r.stores, r.dates, r.promos}
}

var (
	regionNames = []string{"north", "south", "east", "west", "central", "coast", "plains", "islands"}
	zones       = []string{"emea", "amer", "apac"}
	segments    = []string{"consumer", "corporate", "public", "partner"}
	depts       = []string{"home", "garden", "tech", "food"}
	promoKinds  = []string{"none", "coupon", "bundle", "clearance"}
	statuses    = []string{"open", "paid", "shipped", "returned", "void"}
)

const (
	nRegions    = 8
	nCategories = 12
	nPromos     = 10
)

func genRetail(rng *rand.Rand, sz retailSizes) *retail {
	r := &retail{
		sales: newTable("sales", bigint("id"), bigint("cust_id"), bigint("prod_id"), bigint("store_id"),
			bigint("date_id"), bigint("promo_id"), bigint("qty"), double("amount"), bigint("disc"), varchar("status")),
		customers:  newTable("customers", bigint("id"), bigint("region_id"), varchar("segment"), bigint("age")),
		regions:    newTable("regions", bigint("id"), varchar("name"), varchar("zone")),
		products:   newTable("products", bigint("id"), bigint("cat_id"), double("price"), varchar("brand")),
		categories: newTable("categories", bigint("id"), varchar("name"), varchar("dept")),
		stores:     newTable("stores", bigint("id"), bigint("region_id"), varchar("city"), bigint("sqft")),
		dates:      newTable("dates", bigint("id"), bigint("month"), bigint("quarter"), bigint("dow")),
		promos:     newTable("promos", bigint("id"), varchar("kind"), bigint("pct")),
	}
	for i := 0; i < nRegions; i++ {
		r.regions.rows = append(r.regions.rows, []any{int64(i), regionNames[i], zones[rng.Intn(len(zones))]})
	}
	for i := 0; i < nCategories; i++ {
		r.categories.rows = append(r.categories.rows, []any{int64(i), fmt.Sprintf("cat%02d", i), depts[rng.Intn(len(depts))]})
	}
	for i := 0; i < nPromos; i++ {
		r.promos.rows = append(r.promos.rows, []any{int64(i), promoKinds[rng.Intn(len(promoKinds))], int64(5 * rng.Intn(10))})
	}
	for i := 0; i < sz.customers; i++ {
		r.customers.rows = append(r.customers.rows, []any{int64(i), int64(rng.Intn(nRegions)),
			segments[rng.Intn(len(segments))], int64(18 + rng.Intn(63))})
	}
	brands := sz.products/4 + 1
	for i := 0; i < sz.products; i++ {
		r.products.rows = append(r.products.rows, []any{int64(i), int64(rng.Intn(nCategories)),
			quarter(rng, 200), fmt.Sprintf("brand%03d", rng.Intn(brands))})
	}
	cities := sz.stores/2 + 1
	for i := 0; i < sz.stores; i++ {
		r.stores.rows = append(r.stores.rows, []any{int64(i), int64(rng.Intn(nRegions)),
			fmt.Sprintf("city%03d", rng.Intn(cities)), int64(500 + 100*rng.Intn(96))})
	}
	for i := 0; i < sz.dates; i++ {
		month := int64(1 + (i/30)%12)
		r.dates.rows = append(r.dates.rows, []any{int64(i), month, (month-1)/3 + 1, int64(i % 7)})
	}
	r.sales.rows = make([][]any, sz.sales)
	for i := range r.sales.rows {
		r.sales.rows[i] = []any{int64(i), skewed(rng, sz.customers), skewed(rng, sz.products),
			int64(rng.Intn(sz.stores)), int64(rng.Intn(sz.dates)), int64(rng.Intn(nPromos)),
			int64(1 + rng.Intn(10)), quarter(rng, 100), int64(rng.Intn(31)), statuses[rng.Intn(len(statuses))]}
	}
	return r
}
