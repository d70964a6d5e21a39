package exec

import (
	"fmt"
	"strings"
	"testing"

	"calcite/internal/schema"
	"calcite/internal/trait"
)

// TestMergeCursorOrders: the merge interleaves sorted sources into one
// sorted stream, ties to the lowest source, every column kept, and applies
// OFFSET/FETCH to the merged order. It merges sort spill runs.
func TestMergeCursorOrders(t *testing.T) {
	// Sorted runs of (value, source), the first split over two batches.
	runs := func() []schema.BatchCursor {
		run := func(src int64, batches ...[]int64) schema.BatchCursor {
			var bs []*schema.Batch
			for _, vals := range batches {
				rows := make([][]any, len(vals))
				for i, v := range vals {
					rows[i] = []any{v, src}
				}
				bs = append(bs, schema.BatchFromRows(rows, 2))
			}
			return schema.NewSliceBatchCursor(bs)
		}
		return []schema.BatchCursor{run(0, []int64{1, 3}, []int64{5, 5, 7}), run(1, []int64{2, 4, 5, 6})}
	}
	coll := trait.Collation{{Field: 0, Direction: trait.Ascending}}
	for _, tc := range []struct {
		offset, fetch int64
		batchSize     int
		want          string
	}{
		{0, -1, 0, "[1 0] [2 1] [3 0] [4 1] [5 0] [5 0] [5 1] [6 1] [7 0]"},
		{0, -1, 2, "[1 0] [2 1] [3 0] [4 1] [5 0] [5 0] [5 1] [6 1] [7 0]"},
		{3, 4, 3, "[4 1] [5 0] [5 0] [5 1]"},
		{8, 5, 0, "[7 0]"},
	} {
		m := newMergeCursor(runs(), coll, tc.offset, tc.fetch, tc.batchSize, nil)
		var got []string
		for {
			b, err := m.NextBatch()
			if err == schema.Done {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < b.NumRows(); i++ {
				got = append(got, fmt.Sprint(b.Row(i)))
			}
		}
		m.Close()
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("offset %d fetch %d batch %d: got %s, want %s", tc.offset, tc.fetch, tc.batchSize, g, tc.want)
		}
	}
}

// closeCounter counts the Close calls of the cursor it wraps.
type closeCounter struct {
	schema.BatchCursor
	closed *int
}

func (c closeCounter) Close() error {
	*c.closed++
	return c.BatchCursor.Close()
}

// TestMergeCursorCloseClosesSources: a merge closed before its sources end
// (a satisfied FETCH) closes every source once and then runs onClose, which
// is how a spilled sort removes its run files.
func TestMergeCursorCloseClosesSources(t *testing.T) {
	closed, hooked := 0, 0
	srcs := make([]schema.BatchCursor, 3)
	for i := range srcs {
		rows := [][]any{{int64(i)}, {int64(i + 3)}}
		srcs[i] = closeCounter{schema.NewSliceBatchCursor([]*schema.Batch{schema.BatchFromRows(rows, 1)}), &closed}
	}
	coll := trait.Collation{{Field: 0, Direction: trait.Ascending}}
	m := newMergeCursor(srcs, coll, 0, 2, 0, func() {
		if closed != len(srcs) {
			t.Errorf("onClose ran with %d of %d sources closed", closed, len(srcs))
		}
		hooked++
	})
	b, err := m.NextBatch()
	if err != nil || b.NumRows() != 2 {
		t.Fatalf("first batch: %v rows, err %v; want 2 rows", b, err)
	}
	m.Close()
	m.Close()
	if closed != len(srcs) || hooked != 1 {
		t.Fatalf("%d source closes and %d onClose runs, want %d and 1", closed, hooked, len(srcs))
	}
}
