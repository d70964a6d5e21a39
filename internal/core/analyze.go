package core

import (
	"fmt"
	"strings"

	"calcite/internal/parser"
	"calcite/internal/schema"
	"calcite/internal/stats"
)

// analyzeTable implements ANALYZE TABLE: it scans the target table once
// (reusing the vectorized ScanBatches path where the table supports it),
// collects row count, per-column null counts, min/max, NDV sketches and
// equi-depth histograms, and installs them as the table's statistics. The
// collected statistics are what turn the §6 metadata providers' textbook
// constants into data-derived estimates.
func (f *Framework) analyzeTable(s *parser.AnalyzeStmt) (*Result, error) {
	table, path, err := schema.Resolve(f.Catalog, s.Table)
	if err != nil {
		return nil, err
	}
	setter, ok := table.(schema.StatsSettable)
	if !ok {
		return nil, fmt.Errorf("core: table %q does not support ANALYZE (no settable statistics)",
			strings.Join(path, "."))
	}
	width := len(table.RowType().Fields)
	collector := stats.NewCollector(width)

	switch t := table.(type) {
	case schema.BatchScannableTable:
		cur, err := t.ScanBatches(schema.DefaultBatchSize)
		if err != nil {
			return nil, err
		}
		defer cur.Close()
		for {
			b, err := cur.NextBatch()
			if err == schema.Done {
				break
			}
			if err != nil {
				return nil, err
			}
			b = b.Compact()
			for c := 0; c < b.Width() && c < width; c++ {
				// Numeric vectors fold unboxed; other kinds box per batch.
				switch v := b.Vecs[c]; v.Kind {
				case schema.VecInt64:
					stats.AddNumbers(collector, c, v.I64, v.Nulls)
				case schema.VecFloat64:
					stats.AddNumbers(collector, c, v.F64, v.Nulls)
				default:
					collector.AddCol(c, v.Boxed(), nil)
				}
			}
			collector.AddRows(b.NumRows())
		}
	case schema.ScannableTable:
		cur, err := t.Scan()
		if err != nil {
			return nil, err
		}
		defer cur.Close()
		for {
			row, err := cur.Next()
			if err == schema.Done {
				break
			}
			if err != nil {
				return nil, err
			}
			collector.AddRow(row)
		}
	default:
		return nil, fmt.Errorf("core: table %q is not scannable", strings.Join(path, "."))
	}

	cols, rows := collector.Finish()
	newStats := table.Stats() // preserve declared unique-key hints
	newStats.RowCount = rows
	newStats.Columns = cols
	newStats.Analyzed = true
	setter.SetStats(newStats)
	// New statistics change join orders: plans over this table are stale.
	f.InvalidateTable(table)
	return &Result{
		Columns: []string{"TABLE", "ROWS"},
		Rows:    [][]any{{strings.Join(path, "."), int64(rows)}},
	}, nil
}
