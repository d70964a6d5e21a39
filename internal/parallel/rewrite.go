package parallel

// The parallel planner: a physical rewrite phase that turns an optimized
// enumerable plan into a morsel-driven parallel plan. It propagates the
// distribution trait bottom-up and inserts exchange operators exactly where
// a node's required input distribution is not satisfied (trait.Distribution
// .Satisfies), the same reasoning the trait framework applies to collations:
//
//   - batch-scannable scans become MorselScan (random distribution);
//   - filters and projections execute in place, preserving distribution;
//   - joins with a partitioned input become partitioned build + probe over
//     their inputs as they are, a serial input being one partition (right/
//     full joins, which need cross-partition unmatched tracking, gather to a
//     single stream and run serially);
//   - aggregates split into thread-local partial aggregation, a hash
//     exchange on the group keys, and a partitioned final merge;
//   - sorts split into per-worker sorts and a merge-gather;
//   - every other operator (windows, set ops, adapters, DML) requires the
//     singleton distribution, so partitioned inputs gather in front of it: a
//     window sorts once, narrow, and a hash exchange plus a merge-gather on
//     position columns cost more than the sort they would split.
//
// The rewrite runs at execution time (core.Framework), not inside the
// Volcano search: plans stay backend-agnostic until the host system decides
// how many workers to spend, which is the paper's "execution left to the
// host" stance applied to parallelism.
//
// Division of labour: parallel moves batches; tables, charging and spill live
// in exec. The blocking operators placed here (HashJoinPar, PartialAgg,
// FinalAgg, SortPar) only schedule exec's JoinBuild, GroupedAgg and
// ExternalSorter across partitions, so a memory-governed plan has the same
// shape as an ungoverned one.

import (
	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// Parallelize rewrites an optimized physical plan for execution across p
// workers sharing pool. p <= 1 returns the plan unchanged. The returned root
// always produces a single (singleton-distribution) stream.
func Parallelize(root rel.Node, pool *Pool, p int) rel.Node {
	if p <= 1 || pool == nil {
		return root
	}
	r := &rewriter{pool: pool, p: p}
	n, dist := r.rewrite(root)
	if dist.Partitioned() {
		n = NewGatherExchange(n, pool, p)
	}
	return n
}

type rewriter struct {
	pool *Pool
	p    int
}

// singleton wraps n with a gather exchange when it is partitioned.
func (r *rewriter) singleton(n rel.Node, d trait.Distribution) rel.Node {
	if d.Partitioned() {
		return NewGatherExchange(n, r.pool, r.p)
	}
	return n
}

func (r *rewriter) rewrite(n rel.Node) (rel.Node, trait.Distribution) {
	// Only the enumerable convention executes client-side; backend subtrees
	// (and the converters feeding them) are the backend's business.
	if !trait.SameConvention(n.Traits().Convention, trait.Enumerable) {
		return n, trait.Singleton()
	}
	switch x := n.(type) {
	case *exec.Scan:
		if _, ok := x.Table.(schema.BatchScannableTable); ok {
			// Stream tables enumerate in arrival order and downstream
			// operators lean on its bounded out-of-orderness; morsels would
			// interleave arbitrarily, so stream scans stay serial.
			if _, stream := x.Table.(schema.StreamableTable); !stream {
				return NewMorselScan(x, r.pool, r.p), trait.RandomDist()
			}
		}
		return n, trait.Singleton()

	case *exec.Filter:
		in, d := r.rewrite(x.Inputs()[0])
		return x.WithNewInputs([]rel.Node{in}), d

	case *exec.Project:
		in, d := r.rewrite(x.Inputs()[0])
		if d.Kind == trait.DistHashed {
			// The projection remaps columns; without tracking the mapping,
			// downgrade to "partitioned, keys unknown".
			d = trait.RandomDist()
		}
		return x.WithNewInputs([]rel.Node{in}), d

	case *exec.HashJoin:
		probe, pd := r.rewrite(x.Left())
		build, bd := r.rewrite(x.Right())
		serial := x.Kind == rel.RightJoin || x.Kind == rel.FullJoin ||
			!pd.Partitioned() && !bd.Partitioned()
		if serial {
			return x.WithNewInputs([]rel.Node{
				r.singleton(probe, pd), r.singleton(build, bd),
			}), trait.Singleton()
		}
		// A serial input is simply one partition: one build partition, or
		// one probe partition over the shared table.
		if !pd.Partitioned() {
			pd = trait.RandomDist()
		}
		inner := x.WithNewInputs([]rel.Node{probe, build}).(*exec.HashJoin)
		return NewHashJoinPar(inner, r.pool, r.p), pd

	case *exec.Aggregate:
		in, d := r.rewrite(x.Inputs()[0])
		if !d.Partitioned() {
			return x.WithNewInputs([]rel.Node{in}), trait.Singleton()
		}
		inner := x.WithNewInputs([]rel.Node{in}).(*exec.Aggregate)
		partial := NewPartialAgg(inner, r.pool, r.p)
		if len(x.GroupKeys) == 0 {
			// Global aggregate: gather the per-worker states and merge once.
			gathered := NewGatherExchange(partial, r.pool, r.p)
			return NewFinalAgg(inner, gathered, r.pool, r.p), trait.Singleton()
		}
		// Keyed aggregate: repartition partial groups by the group key so
		// each worker owns a disjoint key range, then merge the group order
		// back to first-seen (serial) order.
		keyOrds := make([]int, len(x.GroupKeys))
		for i := range keyOrds {
			keyOrds[i] = i
		}
		ex := NewHashExchange(partial, keyOrds, r.pool, r.p)
		final := NewFinalAgg(inner, ex, r.pool, r.p)
		w := len(x.RowType().Fields)
		coll := trait.Collation{
			{Field: w, Direction: trait.Ascending},
			{Field: w + 1, Direction: trait.Ascending},
		}
		return NewMergeGatherExchange(final, coll, 2, 0, -1, r.pool, r.p), trait.Singleton()

	case *exec.StreamAgg:
		// Keyed tumble/hop windows scatter by group key; the input below the
		// exchange deliberately stays serial (no recursive rewrite): morsel
		// scans interleave arbitrarily, which would break each partition's
		// bounded out-of-orderness, while Scatter preserves the single
		// producer's arrival order per partition. Global windows have no key
		// to scatter on, and session windows close in data-dependent order
		// (a long-lived session outlasts later-starting ones), so neither
		// has a mergeable per-partition collation — they run serially.
		if len(x.GroupKeys) == 0 || x.Window.Kind == rel.SessionWindow {
			in, d := r.rewrite(x.Inputs()[0])
			return x.WithNewInputs([]rel.Node{r.singleton(in, d)}), trait.Singleton()
		}
		ex := NewHashExchange(x.Inputs()[0], x.GroupKeys, r.pool, r.p)
		sp := NewStreamAggPar(x.WithNewInputs([]rel.Node{ex}).(*exec.StreamAgg), r.pool, r.p)
		coll := trait.Collation{{Field: 0, Direction: trait.Ascending}}
		for i := range x.GroupKeys {
			coll = append(coll, trait.FieldCollation{Field: 2 + i, Direction: trait.Ascending})
		}
		coll = append(coll, trait.FieldCollation{Field: 1, Direction: trait.Ascending})
		return NewMergeGatherExchange(sp, coll, 0, 0, -1, r.pool, r.p), trait.Singleton()

	case *exec.Sort:
		in, d := r.rewrite(x.Inputs()[0])
		if !d.Partitioned() {
			return x.WithNewInputs([]rel.Node{in}), trait.Singleton()
		}
		if len(x.Collation) == 0 {
			// Pure limit: gather (in morsel order) and limit serially.
			gathered := NewGatherExchange(in, r.pool, r.p)
			return x.WithNewInputs([]rel.Node{gathered}), trait.Singleton()
		}
		inner := x.WithNewInputs([]rel.Node{in}).(*exec.Sort)
		sp := NewSortPar(inner, r.pool, r.p)
		return NewMergeGatherExchange(sp, sp.MergeCollation(), 2,
			x.Offset, x.Fetch, r.pool, r.p), trait.Singleton()

	default:
		// Every other operator runs serially over singleton inputs;
		// partitioned children gather in front of it.
		ins := n.Inputs()
		if len(ins) == 0 {
			return n, trait.Singleton()
		}
		newIns := make([]rel.Node, len(ins))
		changed := false
		for i, in := range ins {
			ci, cd := r.rewrite(in)
			ci = r.singleton(ci, cd)
			newIns[i] = ci
			if ci != in {
				changed = true
			}
		}
		if changed {
			n = n.WithNewInputs(newIns)
		}
		return n, trait.Singleton()
	}
}
