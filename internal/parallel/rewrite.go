package parallel

// The parallel planner: a physical rewrite phase that turns an optimized
// enumerable plan into a morsel-driven parallel plan. It propagates the
// distribution trait bottom-up and inserts a gather exactly where a serial
// operator would read a partitioned input (trait.Distribution.Partitioned),
// the same reasoning the trait framework applies to collations:
//
//   - batch-scannable scans become MorselScan (random distribution), but a
//     table known to hold at most one morsel stays serial: one worker would
//     read it all, so operators over only such scans get no exchange;
//   - filters and projections execute in place, preserving distribution;
//   - joins with a partitioned input become partitioned build + probe over
//     their inputs as they are, a serial input being one partition (right/
//     full joins, which need cross-partition unmatched tracking, gather to a
//     single stream and run serially);
//   - aggregates split into thread-local partial aggregation, a gather, and
//     one final merge of the partial states, in first-seen group order;
//   - every other operator (sorts, windows, stream aggregates, set ops,
//     adapters, DML) requires the singleton distribution, so partitioned
//     inputs gather in front of it. A sort or a window sorts once over the
//     Seq-ordered gather: per-worker runs merged on position columns cost
//     more than the radix sort they would split, and the stable sort needs
//     no positions to keep the serial order. A stream aggregate stays over
//     its serial stream scan: splitting its keys over workers and merging
//     each emission round back measured slower on stream_window than the
//     serial operator.
//
// The rewrite runs once per prepared plan (core.Framework.prepare), after
// the Volcano search: the optimized plan stays backend-agnostic and the host
// system decides how many workers to spend, the paper's "execution left to
// the host" stance applied to parallelism. The plan cache, EXPLAIN and the
// trace all hold the rewritten tree, so distribution is a trait of the plan
// that runs.
//
// Division of labour: parallel moves batches; tables, charging and spill live
// in exec. The blocking operators placed here (HashJoinPar, PartialAgg,
// FinalAgg) only schedule exec's JoinBuild and GroupedAgg across workers, so
// a memory-governed plan has the same shape as an ungoverned one.

import (
	"calcite/internal/exec"
	"calcite/internal/rel"
	"calcite/internal/schema"
	"calcite/internal/trait"
)

// Parallelize rewrites an optimized physical plan for execution across p
// workers sharing pool, in morsels of morsel rows (the batch size the plan
// runs at). p <= 1 returns the plan unchanged. The returned root always
// produces a single (singleton-distribution) stream.
func Parallelize(root rel.Node, pool *Pool, p, morsel int) rel.Node {
	if p <= 1 || pool == nil {
		return root
	}
	r := &rewriter{pool: pool, p: p, morsel: float64(morsel)}
	n, dist := r.rewrite(root)
	if dist.Partitioned() {
		n = NewGatherExchange(n, pool)
	}
	return n
}

type rewriter struct {
	pool   *Pool
	p      int
	morsel float64
}

// singleton wraps n with a gather exchange when it is partitioned.
func (r *rewriter) singleton(n rel.Node, d trait.Distribution) rel.Node {
	if d.Partitioned() {
		return NewGatherExchange(n, r.pool)
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
			// interleave arbitrarily, so stream scans stay serial. So does a
			// table known to fit one morsel: no second worker could help.
			_, stream := x.Table.(schema.StreamableTable)
			if rows := x.Table.Stats().RowCount; !stream && (rows <= 0 || rows > r.morsel) {
				return NewMorselScan(x, r.pool, r.p), trait.RandomDist()
			}
		}
		return n, trait.Singleton()

	case *exec.Filter, *exec.Project:
		// No rewrite returns a hash distribution, so a projection's column
		// remapping leaves the distribution as it is.
		in, d := r.rewrite(n.Inputs()[0])
		return n.WithNewInputs([]rel.Node{in}), d

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
		// The workers' partial states gather into one merge, which orders
		// the groups by first-seen position, as the serial aggregate does.
		inner := x.WithNewInputs([]rel.Node{in}).(*exec.Aggregate)
		gathered := NewGatherExchange(NewPartialAgg(inner, r.pool, r.p), r.pool)
		return NewFinalAgg(inner, gathered), trait.Singleton()

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
