// Package parallel implements morsel-driven parallel execution for the
// vectorized batch convention: scans split into morsels that a pool of
// resident workers claim dynamically, and one exchange operator, the
// gather, moves batches from the partitions of a pipeline into one stream
// over channels.
//
// # Architecture
//
// Parallelize rewrites an optimized enumerable plan once, when the plan is
// prepared for the worker count it will run at; the plan cache, EXPLAIN and
// the trace hold the rewritten tree. It works bottom-up, propagating the
// trait.Distribution of each operator and inserting a gather exactly where a
// serial operator would read a partitioned input:
//
//   - batch-scannable scans become MorselScan (random distribution); a
//     table known to hold at most one morsel (Stats().RowCount) is scanned
//     serially, since one worker would read it all;
//   - filters and projections run partition-local, preserving distribution;
//   - every join with a partitioned input drains its build partitions in
//     parallel and probes each probe partition against the shared table,
//     a serial input being one partition and a join without equi keys one
//     in-memory build (right/full joins gather to a single stream and run
//     serially);
//   - aggregates split into thread-local partial aggregation, a gather of
//     the partials' state batches (typed state columns), and one merge of
//     them, a kernel per call, that orders the groups by first-seen
//     position;
//   - sorts, windows and every other operator run serially over a gather;
//     a stream aggregate runs serially over its stream scan, which is never
//     split (arrival order carries the watermark).
//
// A sort over a gather beats per-worker sorts merged on position columns:
// the radix sort of the whole input costs less than the k-way merge, and
// the Seq-ordered gather hands the stable sort the serial input order, so
// no position columns are needed.
//
// # Division of labour with package exec
//
// This package moves batches; tables, charging and spill live in exec. The
// blocking operators here own no group table, build table or sort buffer:
// HashJoinPar drains into an exec.JoinBuild, and PartialAgg runs one
// exec.GroupedAgg per partition and FinalAgg one over the gathered partials
// (state-batch modes) — the engines the serial operators use. Memory
// governance therefore never changes the plan shape: every worker charges
// the query's allocator through the same spill-capable code.
//
// # Batch ownership at exchange boundaries
//
// The BatchCursor contract lets a producer recycle per-batch buffers once
// the consumer asks for the next batch; that is safe for same-goroutine
// pipelines but not for exchanges, which buffer batches in channels and
// hand them to other goroutines. Every batch that crosses an exchange
// boundary is therefore Detach()ed first: the selection vector (the one
// buffer operators recycle) is copied, while column storage — immutable
// once emitted — stays shared. Downstream of an exchange, a batch is owned
// by the receiving partition until it is itself emitted or dropped.
//
// # Determinism
//
// Sources stamp batches with increasing sequence numbers (Batch.Seq);
// per-batch operators preserve them, and gather exchanges merge partition
// streams back into Seq order. A parallel run therefore reproduces the
// serial engine's row order exactly, with two value-level caveats
// documented on Connection.SetParallelism: floating-point aggregates may
// differ in the last bit (partial sums reassociate), and COLLECT multiset
// element order follows merge order.
//
// # Cancellation
//
// Pipelines run under a context; the first error cancels it, tearing down
// every gather (producers unblock on channel sends, consumers on receives,
// via ctx.Done) so no goroutine leaks, and so does the consumer's Close.
// Workers are shared per Framework through Pool, which keeps them resident
// across queries and sheds them after an idle timeout.
package parallel
