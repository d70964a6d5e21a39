package meta

import (
	"testing"

	"calcite/internal/cost"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

func scanNode(name string, rowCount float64) rel.Node {
	t := schema.NewMemTable(name, types.Row(
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.Varchar},
	), nil)
	t.SetStats(schema.Statistics{RowCount: rowCount, UniqueColumns: [][]int{{0}}})
	return rel.NewTableScan(trait.Logical, t, []string{name})
}

// TestCacheHitMiss: repeated metadata calls on the same node must hit the
// memo cache (one provider invocation), and disabling the cache must re-run
// the provider every time.
func TestCacheHitMiss(t *testing.T) {
	n := scanNode("t", 500)

	q := NewQuery()
	for i := 0; i < 5; i++ {
		if rc := q.RowCount(n); rc != 500 {
			t.Fatalf("RowCount: %v", rc)
		}
	}
	if q.Calls != 1 {
		t.Fatalf("cached session made %d provider calls, want 1", q.Calls)
	}

	q2 := NewQuery()
	q2.CacheEnabled = false
	for i := 0; i < 5; i++ {
		q2.RowCount(n)
	}
	if q2.Calls != 5 {
		t.Fatalf("uncached session made %d provider calls, want 5", q2.Calls)
	}
}

// TestCacheKeySeparation: different metrics and different nodes must not
// collide in the cache.
func TestCacheKeySeparation(t *testing.T) {
	a := scanNode("a", 100)
	b := scanNode("b", 900)
	q := NewQuery()
	if q.RowCount(a) == q.RowCount(b) {
		t.Fatal("distinct nodes returned identical row counts")
	}
	// A second metric on a cached node still computes fresh.
	if q.AverageRowSize(a) <= 0 {
		t.Fatal("row size")
	}
	if got := q.RowCount(a); got != 100 {
		t.Fatalf("metric collision: RowCount(a) = %v after AverageRowSize", got)
	}
}

// TestInvalidateCache: invalidation must force recomputation.
func TestInvalidateCache(t *testing.T) {
	n := scanNode("t", 50)
	q := NewQuery()
	q.RowCount(n)
	calls := q.Calls
	q.InvalidateCache()
	q.RowCount(n)
	if q.Calls != calls+1 {
		t.Fatalf("invalidate did not evict: %d calls, want %d", q.Calls, calls+1)
	}
}

// TestProviderChain: a custom provider takes precedence, its misses fall
// through to the default provider, and Prepend outranks both.
func TestProviderChain(t *testing.T) {
	n := scanNode("t", 500)
	custom := Provider{
		Name: "custom",
		RowCount: func(q *Query, node rel.Node) (float64, bool) {
			return 42, true
		},
	}
	q := NewQuery(custom)
	if rc := q.RowCount(n); rc != 42 {
		t.Fatalf("custom provider ignored: %v", rc)
	}
	// Metrics the custom provider does not implement fall through.
	if c := q.CumulativeCost(n); c.IsInfinite() {
		t.Fatalf("fall-through cost: %v", c)
	}

	front := Provider{
		Name: "front",
		NonCumulativeCost: func(q *Query, node rel.Node) (cost.Cost, bool) {
			return cost.New(7, 7, 7, 7), true
		},
	}
	q2 := NewQuery(custom)
	q2.Prepend(front)
	if c := q2.NonCumulativeCost(n); c.Rows != 7 {
		t.Fatalf("prepended provider not consulted first: %v", c)
	}
}

// TestDefaultsAreSane: the terminal default provider must answer everything.
func TestDefaultsAreSane(t *testing.T) {
	n := scanNode("t", 1000)
	q := NewQuery()
	if s := q.Selectivity(n, nil); s <= 0 || s > 1 {
		t.Fatalf("selectivity: %v", s)
	}
	if d := q.DistinctRowCount(n, []int{0}); d < 1 {
		t.Fatalf("distinct: %v", d)
	}
	if !q.ColumnsUnique(n, []int{0}) {
		t.Fatal("declared unique key not detected")
	}
}

// TestJoinOrderCandidateOutsideMemo: a join-order candidate is estimated as
// RowCount estimates it, without entering the memo — neither its row count
// nor its condition's selectivity — while its inputs are answered from the
// memo; a kept candidate's row count is memoized as given.
func TestJoinOrderCandidateOutsideMemo(t *testing.T) {
	a, b := scanNode("a", 100), scanNode("b", 900)
	cond := rex.Eq(rex.NewInputRef(0, types.BigInt), rex.NewInputRef(2, types.BigInt))
	want := NewQuery().RowCount(rel.NewJoin(rel.InnerJoin, a, b, cond))

	q := NewQuery()
	q.CandidateRowCount(rel.NewJoin(rel.InnerJoin, a, b, cond)) // memoizes the inputs' metrics
	entries, calls := len(q.cache), q.Calls
	j := rel.NewJoin(rel.InnerJoin, a, b, cond)
	if got := q.CandidateRowCount(j); got != want {
		t.Fatalf("candidate rows %v, RowCount %v", got, want)
	}
	if len(q.cache) != entries || q.Candidate(j) {
		t.Fatalf("candidate left %d memo entries behind", len(q.cache)-entries)
	}
	if q.Calls <= calls {
		t.Fatal("candidate was not estimated")
	}
	q.KeepRowCount(j, 7)
	calls = q.Calls
	if got := q.RowCount(j); got != 7 || q.Calls != calls {
		t.Fatalf("kept candidate: RowCount %v after %d provider calls, want 7 from the memo", got, q.Calls-calls)
	}
}
