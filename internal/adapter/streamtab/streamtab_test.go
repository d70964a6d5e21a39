package streamtab

import (
	"reflect"
	"testing"
	"time"

	"calcite/internal/schema"
	"calcite/internal/types"
)

func table(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("orders", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "units", Type: types.BigInt},
	), 0)
	for i := int64(0); i < 5; i++ {
		if err := tb.Append([]any{i * 1000, i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func drain(t *testing.T, c schema.Cursor) int {
	t.Helper()
	n := 0
	for {
		_, err := c.Next()
		if err == schema.Done {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
}

func TestHistoryVsStream(t *testing.T) {
	tb := table(t)
	tb.SetWatermark(2000)
	hist, err := tb.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, hist); n != 3 { // rowtimes 0,1000,2000
		t.Errorf("history rows: %d", n)
	}
	strm, err := tb.StreamScan()
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, strm); n != 5 {
		t.Errorf("stream rows: %d", n)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	tb := table(t)
	if err := tb.Append([]any{int64(100), int64(1)}); err == nil {
		t.Error("out-of-order append must fail")
	}
	if err := tb.Append([]any{"notatime", int64(1)}); err == nil {
		t.Error("non-int64 rowtime must fail")
	}
	// Equal timestamps are fine (non-decreasing).
	if err := tb.Append([]any{int64(4000), int64(1)}); err != nil {
		t.Errorf("equal rowtime rejected: %v", err)
	}
}

func TestRowtimeColumnAndStats(t *testing.T) {
	tb := table(t)
	if tb.RowtimeColumn() != 0 {
		t.Error("rowtime column")
	}
	if tb.Stats().RowCount != 5 {
		t.Errorf("stats: %+v", tb.Stats())
	}
	a := New("s")
	a.AddTable(tb)
	if _, ok := a.AdapterSchema().Table("orders"); !ok {
		t.Error("adapter schema missing table")
	}
}

// TestAppendNormalizes: events arriving with time.Time rowtimes and Go ints
// are stored as epoch-millis int64 and int64, in a copy of the caller's row.
func TestAppendNormalizes(t *testing.T) {
	tb := NewTable("orders", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "units", Type: types.BigInt},
	), 0)
	row := []any{time.UnixMilli(5000), 7}
	if err := tb.Append(row, []any{int32(6000), uint8(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append([]any{time.UnixMilli(5500), 2}); err == nil {
		t.Error("out-of-order time.Time rowtime accepted")
	}
	cur, err := tb.StreamScan()
	if err != nil {
		t.Fatal(err)
	}
	var got [][]any
	for {
		r, err := cur.Next()
		if err == schema.Done {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if want := [][]any{{int64(5000), int64(7)}, {int64(6000), int64(1)}}; !reflect.DeepEqual(got, want) {
		t.Errorf("stored %#v, want %#v", got, want)
	}
	if _, ok := row[0].(time.Time); !ok || row[1] != 7 {
		t.Errorf("caller's row changed to %#v", row)
	}
}
