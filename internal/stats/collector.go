package stats

import (
	"fmt"
	"math"
	"math/rand"

	"calcite/internal/types"
)

// ColumnStats is the collected statistics of one table column. All fields
// are estimates except NullCount and Min/Max, which are exact over the
// analyzed snapshot.
type ColumnStats struct {
	// NullCount is the number of NULL values.
	NullCount float64
	// Min and Max bound the non-null values (nil when the column is all-null
	// or its values are not totally ordered by types.Compare).
	Min, Max any
	// NDV is the estimated number of distinct non-null values: exact while
	// the column stays under the exact-tracking threshold, a HyperLogLog
	// estimate beyond it.
	NDV float64
	// Histogram is an equi-depth histogram over the non-null values;
	// non-numeric columns have none.
	Histogram *Histogram
}

// exactNDVLimit is the number of distinct values tracked exactly before the
// collector falls back to the HyperLogLog estimate alone.
const exactNDVLimit = 1 << 14

// sampleLimit caps the per-column reservoir feeding the histogram, bounding
// ANALYZE memory on large tables.
const sampleLimit = 1 << 17

// Collector accumulates per-column statistics over a stream of rows.
type Collector struct {
	rows float64
	cols []*colAcc
}

type colAcc struct {
	nulls    float64
	min, max any
	hll      HLL
	exact    map[uint64]struct{} // nil once the exact limit is exceeded
	exactNDV float64

	// reservoir sample of numeric keys for the histogram; numeric stays
	// true only while every non-null value coerces to float64.
	numeric bool
	seen    float64
	sample  []float64
	rng     *rand.Rand
}

// NewCollector creates a collector for rows of the given width.
func NewCollector(width int) *Collector {
	c := &Collector{cols: make([]*colAcc, width)}
	for i := range c.cols {
		c.cols[i] = &colAcc{
			numeric: true,
			exact:   map[uint64]struct{}{},
			// Deterministic seed: ANALYZE of the same data yields the same
			// statistics (and therefore the same plans) on every run.
			rng: rand.New(rand.NewSource(int64(i)*2654435761 + 97)),
		}
	}
	return c
}

// AddRow folds one row into the statistics.
func (c *Collector) AddRow(row []any) {
	c.rows++
	for i, acc := range c.cols {
		var v any
		if i < len(row) {
			v = row[i]
		}
		acc.add(v)
	}
}

// AddCol folds a column vector (one batch's column) into column i. sel, when
// non-nil, selects the live rows. The caller is responsible for bumping the
// row count once per batch via AddRows.
func (c *Collector) AddCol(i int, col []any, sel []int32) {
	acc := c.cols[i]
	if sel == nil {
		for _, v := range col {
			acc.add(v)
		}
		return
	}
	for _, r := range sel {
		acc.add(col[r])
	}
}

// AddRows advances the row count by n (used with AddCol).
func (c *Collector) AddRows(n int) { c.rows += float64(n) }

// AddNumbers folds one batch's numeric column, held unboxed, into column i:
// vals[r] is NULL where nulls[r] (a nil mask means no NULLs). Only the
// batch's two extremes are boxed. The caller bumps the row count via AddRows.
func AddNumbers[T int64 | float64](c *Collector, i int, vals []T, nulls []bool) {
	a := c.cols[i]
	var lo, hi T
	seen := false
	for r, x := range vals {
		switch {
		case nulls != nil && nulls[r]:
			a.nulls++
			continue
		case x != x: // NaN orders by types.Compare, not by <
			a.bound(x)
		case !seen:
			lo, hi, seen = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
		a.fold(hashNumber(float64(x)), float64(x), true)
	}
	if seen {
		a.bound(lo)
		a.bound(hi)
	}
}

func (a *colAcc) add(v any) {
	if v == nil {
		a.nulls++
		return
	}
	a.bound(v)
	f, numeric := types.AsFloat(v)
	a.fold(HashValue(v), f, numeric)
}

// bound widens the column's [min, max] to include v.
func (a *colAcc) bound(v any) {
	if a.min == nil || types.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max == nil || types.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// fold counts one non-NULL value of hash h toward the distinct-value sketches
// and, while the column is numeric, samples its float form f.
func (a *colAcc) fold(h uint64, f float64, numeric bool) {
	a.hll.AddHash(h)
	if a.exact != nil {
		a.exact[h] = struct{}{}
		if len(a.exact) > exactNDVLimit {
			a.exact = nil
		}
	}
	if !a.numeric {
		return
	}
	if !numeric {
		a.numeric = false
		a.sample = nil
		return
	}
	if f != f {
		return // NaN has no place on the histogram's axis (NewHistogram's run scan never ends on one)
	}
	a.seen++
	if len(a.sample) < sampleLimit {
		a.sample = append(a.sample, f)
	} else if j := a.rng.Int63n(int64(a.seen)); j < sampleLimit {
		a.sample[int(j)] = f
	}
}

// Finish returns the per-column statistics and the total row count.
func (c *Collector) Finish() ([]*ColumnStats, float64) {
	out := make([]*ColumnStats, len(c.cols))
	for i, acc := range c.cols {
		cs := &ColumnStats{
			NullCount: acc.nulls,
			Min:       acc.min,
			Max:       acc.max,
		}
		if acc.exact != nil {
			cs.NDV = float64(len(acc.exact))
		} else {
			cs.NDV = acc.hll.Estimate()
		}
		if acc.numeric && len(acc.sample) > 0 {
			cs.Histogram = NewHistogram(acc.sample, DefaultBuckets)
			if acc.seen > float64(len(acc.sample)) {
				// Scale the sampled histogram back to the full column. Bucket
				// counts scale linearly with the sampling rate; bucket NDVs do
				// not, so they are rescaled against the column-level sketch:
				// buckets cover disjoint key ranges, so their true NDVs sum to
				// the column NDV.
				scale := acc.seen / float64(len(acc.sample))
				sampleNDV := 0.0
				for _, b := range cs.Histogram.Buckets {
					sampleNDV += b.NDV
				}
				ndvScale := 1.0
				if sampleNDV > 0 && cs.NDV > sampleNDV {
					ndvScale = cs.NDV / sampleNDV
				}
				for bi := range cs.Histogram.Buckets {
					b := &cs.Histogram.Buckets[bi]
					b.Count *= scale
					b.NDV = math.Min(b.NDV*ndvScale, b.Count)
				}
				cs.Histogram.Rows = acc.seen
			}
		}
		out[i] = cs
	}
	return out, c.rows
}

func formatFallback(v any) string { return fmt.Sprintf("%v", v) }
