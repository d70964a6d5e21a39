package calcite_test

// Differential vector suite: the batch engine's columnar paths (vector
// kernels, closures over vectors, typed aggregation grouping, typed join
// probes, typed spill pages) must be observationally identical to the
// row-at-a-time interpreter. Batches have one representation, so row mode
// (Connection.ForceRowMode: Bind instead of BindBatch, rex.Evaluator instead
// of kernels and closures) is the only reference there is; running the shared
// SQL corpus under both and comparing row for row checks the whole engine,
// not just the kernels.

import (
	"reflect"
	"testing"
)

// typedDiffConfigs crosses the execution knobs the vector paths interact
// with: morsel parallelism, the batchSize=3 boundary case, and a memory
// limit low enough that sorts, joins and aggregates spill through the
// typed page codec.
var typedDiffConfigs = []struct {
	name        string
	parallelism int
	batchSize   int
	memLimit    int64
}{
	{name: "serial", parallelism: 1},
	{name: "parallel4", parallelism: 4},
	{name: "serial/batch3", parallelism: 1, batchSize: 3},
	{name: "serial/mem256k", parallelism: 1, memLimit: 256 << 10},
	{name: "parallel4/mem64k", parallelism: 4, memLimit: 64 << 10},
	{name: "parallel4/batch3/mem256k", parallelism: 4, batchSize: 3, memLimit: 256 << 10},
}

// TestVectorsAndRowModeAgree is the vector-execution safety net: every corpus
// query must produce identical results from the batch engine — across
// parallelism, tiny batches and spilling — and from the row-mode reference.
func TestVectorsAndRowModeAgree(t *testing.T) {
	ref := diffConn()
	ref.ForceRowMode(true)
	want := runCorpus(embeddedRunner(ref)) // nil where the query fails
	for _, cfg := range typedDiffConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			conn := diffConn()
			conn.SetParallelism(cfg.parallelism)
			if cfg.batchSize > 0 {
				conn.SetBatchSize(cfg.batchSize)
			}
			if cfg.memLimit > 0 {
				conn.SetMemoryLimit(cfg.memLimit)
			}
			got := runCorpus(embeddedRunner(conn))
			for i, q := range diffQueries {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s\n  vectors:  %v\n  row mode: %v", q.sql, got[i], want[i])
				}
			}
		})
	}
}
