package stats

import "sort"

// DefaultBuckets is the equi-depth histogram resolution used by ANALYZE.
const DefaultBuckets = 64

// Bucket is one span of an equi-depth histogram: the rows r with
// Lo <= key(r) <= Hi. Buckets are stored in ascending, non-overlapping key
// order; a value run (all rows of one key) never splits across buckets, so
// Count can exceed the target depth on heavily skewed columns — which is
// exactly the skew the histogram exists to expose.
type Bucket struct {
	Lo, Hi float64
	// Count is the number of rows in the bucket.
	Count float64
	// NDV is the exact number of distinct keys in the bucket.
	NDV float64
}

// Histogram is an equi-depth (equal-height) histogram over the non-null
// values of a numeric column. Rows is the total row count across buckets.
type Histogram struct {
	Buckets []Bucket
	Rows    float64
}

// NewHistogram builds an equi-depth histogram with at most maxBuckets
// buckets from an unsorted sample of keys (sorted in place). Returns nil for
// an empty sample.
func NewHistogram(keys []float64, maxBuckets int) *Histogram {
	if len(keys) == 0 {
		return nil
	}
	if maxBuckets <= 0 {
		maxBuckets = DefaultBuckets
	}
	sort.Float64s(keys)
	depth := (len(keys) + maxBuckets - 1) / maxBuckets
	h := &Histogram{Rows: float64(len(keys))}
	cur := Bucket{Lo: keys[0], Hi: keys[0], Count: 0, NDV: 0}
	last := keys[0]
	for i := 0; i < len(keys); {
		// Consume the full run of equal keys.
		v := keys[i]
		run := i
		for run < len(keys) && keys[run] == v {
			run++
		}
		runLen := run - i
		if cur.Count > 0 && int(cur.Count) >= depth {
			// Close the bucket at a key boundary.
			cur.Hi = last
			h.Buckets = append(h.Buckets, cur)
			cur = Bucket{Lo: v, Hi: v}
		}
		cur.Count += float64(runLen)
		cur.NDV++
		last = v
		i = run
	}
	cur.Hi = last
	h.Buckets = append(h.Buckets, cur)
	return h
}

// FracLess estimates the fraction of the histogram's rows with key < x
// (inclusive adds the rows with key == x). Within a bucket the distribution
// is assumed uniform over [Lo, Hi].
func (h *Histogram) FracLess(x float64, inclusive bool) float64 {
	if h == nil || h.Rows == 0 {
		return 0.5
	}
	rows := 0.0
	for _, b := range h.Buckets {
		switch {
		case x > b.Hi:
			rows += b.Count
		case x < b.Lo:
			return rows / h.Rows
		default:
			// x falls inside the bucket: interpolate the rows strictly below
			// x, capped so the run at x itself is never counted twice when x
			// sits at the bucket's upper boundary.
			within := 0.0
			if b.Hi > b.Lo {
				within = (x - b.Lo) / (b.Hi - b.Lo)
			}
			below := b.Count * within
			if maxBelow := b.Count - b.Count/b.NDV; below > maxBelow {
				below = maxBelow
			}
			rows += below
			if inclusive {
				rows += b.Count / b.NDV // the run at x itself
			}
			return rows / h.Rows
		}
	}
	return rows / h.Rows
}

// FracEq estimates the fraction of the histogram's rows with key == x: the
// containing bucket's rows spread over its distinct keys.
func (h *Histogram) FracEq(x float64) float64 {
	if h == nil || h.Rows == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if x < b.Lo {
			return 0
		}
		if x <= b.Hi {
			return b.Count / b.NDV / h.Rows
		}
	}
	return 0
}
