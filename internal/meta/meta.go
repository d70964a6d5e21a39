// Package meta implements the metadata providers of §6 of the paper.
// Metadata serves two purposes: guiding the planner toward cheaper plans and
// informing rules while they are applied. The default provider supplies the
// overall cost of executing a subexpression, row counts, data sizes,
// selectivity, distinct counts, column uniqueness and collations; systems
// plug in providers that override these functions or add their own.
//
// Providers form an ordered chain with a well-defined fallback order: a
// Query consults custom providers first (in the order given to NewQuery,
// with Prepend able to push a provider to the front), and any provider
// whose function is nil — or returns ok=false — falls through to the next;
// the built-in DefaultProvider terminates every chain, deriving estimates
// from table statistics where collected (ANALYZE histograms, NDV sketches,
// null counts) and from textbook heuristics otherwise.
//
// The paper notes that provider implementations include "a cache for
// metadata results, which yields significant performance improvements";
// Query memoizes every metadata call by (metric, plan digest, args) and the
// cache can be disabled to measure its effect (experiment E8).
// The key holds the digest's interned id, from a rel.Digests memo the Query
// owns for its whole session and that every planner phase shares: a node's
// digest is built from its own attributes and its inputs' digests, once; a
// join-order candidate is not memoized at all (CandidateRowCount). A
// subtree over a Volcano set reference (rel.Unstable) is never memoized; its
// digest changes when sets merge.
package meta

import (
	"math"
	"strconv"

	"calcite/internal/cost"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/trait"
)

// Provider supplies metadata. Any nil function falls through to the next
// provider in the chain; the built-in default provider terminates every
// chain.
type Provider struct {
	// Name identifies the provider in diagnostics.
	Name string
	// RowCount estimates the number of rows produced by n.
	RowCount func(q *Query, n rel.Node) (float64, bool)
	// Selectivity estimates the fraction of input rows satisfying predicate.
	Selectivity func(q *Query, n rel.Node, predicate rex.Node) (float64, bool)
	// DistinctRowCount estimates the number of distinct values of cols.
	DistinctRowCount func(q *Query, n rel.Node, cols []int) (float64, bool)
	// ColumnsUnique reports whether cols form a unique key of n's output.
	ColumnsUnique func(q *Query, n rel.Node, cols []int) (bool, bool)
	// Collations returns the sort order n's output is known to satisfy.
	Collations func(q *Query, n rel.Node) (trait.Collation, bool)
	// NonCumulativeCost estimates the cost of executing n itself,
	// excluding its inputs.
	NonCumulativeCost func(q *Query, n rel.Node) (cost.Cost, bool)
	// AverageRowSize estimates the bytes per output row of n.
	AverageRowSize func(q *Query, n rel.Node) (float64, bool)
}

// Query is a metadata session: a provider chain plus a memoizing cache. It
// is not safe for concurrent use; each planning session owns one.
type Query struct {
	providers []Provider
	cache     map[cacheKey]any
	digests   *rel.Digests
	candidate rel.Node // the node CandidateRowCount is estimating
	// CacheEnabled toggles memoization (for experiment E8).
	CacheEnabled bool
	// Calls counts provider invocations (cache misses), exposed for tests
	// and benchmarks.
	Calls int
}

// NewQuery builds a metadata session with the given custom providers, which
// take precedence (in order) over the built-in default provider.
func NewQuery(providers ...Provider) *Query {
	q := &Query{
		providers:    append(append([]Provider(nil), providers...), DefaultProvider()),
		cache:        map[cacheKey]any{},
		digests:      rel.NewDigests(),
		CacheEnabled: true,
	}
	return q
}

// Prepend installs a provider at the front of the chain, taking precedence
// over existing providers. The Volcano planner uses this to resolve metadata
// for its equivalence-set placeholders; adapters use it to contribute
// backend-specific statistics.
func (q *Query) Prepend(p Provider) {
	q.providers = append([]Provider{p}, q.providers...)
}

// Digests returns the session's digest memo.
func (q *Query) Digests() *rel.Digests { return q.digests }

// cacheKey names one memoized result: the metric, the interned digest of the
// node, and the metric's arguments.
type cacheKey struct {
	metric string
	node   int32
	extra  string
}

func lookup[T any](q *Query, metric string, n rel.Node, extra string, compute func() T) T {
	if q.CacheEnabled && !q.Candidate(n) {
		key := cacheKey{metric, q.digests.ID(n), extra}
		if v, ok := q.cache[key]; ok {
			return v.(T)
		}
		v := compute()
		q.cache[key] = v
		return v
	}
	return compute()
}

// RowCount estimates the rows produced by n (never < 1).
func (q *Query) RowCount(n rel.Node) float64 {
	return lookup(q, "rowCount", n, "", func() float64 {
		q.Calls++
		for _, p := range q.providers {
			if p.RowCount != nil {
				if v, ok := p.RowCount(q, n); ok {
					return math.Max(v, 1)
				}
			}
		}
		return 1
	})
}

// CandidateRowCount is RowCount for a node estimated once and most likely
// dropped, a join-order candidate: no metric on n is digested or cached (its
// inputs' are, as usual). A kept candidate is memoized by KeepRowCount.
func (q *Query) CandidateRowCount(n rel.Node) float64 {
	q.candidate = n
	v := q.RowCount(n)
	q.candidate = nil
	return v
}

// KeepRowCount memoizes rows, the number CandidateRowCount returned, as n's
// row count: the trees built over n read what n was chosen at.
func (q *Query) KeepRowCount(n rel.Node, rows float64) {
	if q.CacheEnabled {
		q.cache[cacheKey{"rowCount", q.digests.ID(n), ""}] = rows
	}
}

// Candidate reports whether n is the node CandidateRowCount is estimating;
// providers that memoize per node store nothing for it.
func (q *Query) Candidate(n rel.Node) bool { return n == q.candidate }

// Selectivity estimates the fraction of n's rows satisfying predicate.
func (q *Query) Selectivity(n rel.Node, predicate rex.Node) float64 {
	extra := ""
	if predicate != nil && q.CacheEnabled && !q.Candidate(n) {
		extra = q.digests.Expr(predicate)
	}
	return lookup(q, "selectivity", n, extra, func() float64 {
		q.Calls++
		for _, p := range q.providers {
			if p.Selectivity != nil {
				if v, ok := p.Selectivity(q, n, predicate); ok {
					return clamp01(v)
				}
			}
		}
		return 0.5
	})
}

// DistinctRowCount estimates distinct combinations of cols in n's output.
func (q *Query) DistinctRowCount(n rel.Node, cols []int) float64 {
	return lookup(q, "distinct", n, colsKey(cols), func() float64 {
		q.Calls++
		for _, p := range q.providers {
			if p.DistinctRowCount != nil {
				if v, ok := p.DistinctRowCount(q, n, cols); ok {
					return math.Max(v, 1)
				}
			}
		}
		return math.Max(q.RowCount(n)/10, 1)
	})
}

// ColumnsUnique reports whether cols form a unique key of n's output.
func (q *Query) ColumnsUnique(n rel.Node, cols []int) bool {
	return lookup(q, "unique", n, colsKey(cols), func() bool {
		q.Calls++
		for _, p := range q.providers {
			if p.ColumnsUnique != nil {
				if v, ok := p.ColumnsUnique(q, n, cols); ok {
					return v
				}
			}
		}
		return false
	})
}

// Collations returns the collation n's output is known to satisfy. This
// powers sort-elimination (§4: "if the input to the sort operator is already
// correctly ordered ... the sort operation can be removed").
func (q *Query) Collations(n rel.Node) trait.Collation {
	return lookup(q, "collations", n, "", func() trait.Collation {
		q.Calls++
		for _, p := range q.providers {
			if p.Collations != nil {
				if v, ok := p.Collations(q, n); ok {
					return v
				}
			}
		}
		return nil
	})
}

// NonCumulativeCost estimates the cost of n excluding inputs.
func (q *Query) NonCumulativeCost(n rel.Node) cost.Cost {
	return lookup(q, "selfCost", n, "", func() cost.Cost {
		q.Calls++
		for _, p := range q.providers {
			if p.NonCumulativeCost != nil {
				if v, ok := p.NonCumulativeCost(q, n); ok {
					return v
				}
			}
		}
		return cost.Tiny
	})
}

// CumulativeCost estimates the total cost of the subtree rooted at n.
func (q *Query) CumulativeCost(n rel.Node) cost.Cost {
	return lookup(q, "cumCost", n, "", func() cost.Cost {
		c := q.NonCumulativeCost(n)
		for _, in := range n.Inputs() {
			c = c.Plus(q.CumulativeCost(in))
		}
		return c
	})
}

// AverageRowSize estimates bytes per row of n's output.
func (q *Query) AverageRowSize(n rel.Node) float64 {
	return lookup(q, "rowSize", n, "", func() float64 {
		q.Calls++
		for _, p := range q.providers {
			if p.AverageRowSize != nil {
				if v, ok := p.AverageRowSize(q, n); ok {
					return v
				}
			}
		}
		return float64(8 * len(n.RowType().Fields))
	})
}

// InvalidateCache clears memoized results (used after the plan graph
// mutates between planner phases).
func (q *Query) InvalidateCache() {
	q.cache = map[cacheKey]any{}
}

func colsKey(cols []int) string {
	var b []byte
	for _, c := range cols {
		b = strconv.AppendInt(append(b, ','), int64(c), 10)
	}
	return string(b)
}

func clamp01(v float64) float64 {
	return math.Max(0.0001, math.Min(1, v))
}
