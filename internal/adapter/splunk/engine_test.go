package splunk_test

import (
	"reflect"
	"testing"
	"time"

	"calcite/internal/adapter/splunk"
	"calcite/internal/types"
)

// TestAddIndexNormalizes: events loaded with time.Time rowtimes and Go ints
// are held as epoch-millis int64 and int64, so search conditions compare
// numerically; the caller's events are left as they were.
func TestAddIndexNormalizes(t *testing.T) {
	events := [][]any{{time.UnixMilli(1000), 10}, {time.UnixMilli(2000), 9}, {time.UnixMilli(3000), 100}}
	engine := splunk.NewEngine()
	engine.AddIndex(&splunk.Index{
		Name:   "ev",
		Fields: []types.Field{{Name: "rowtime", Type: types.Timestamp}, {Name: "units", Type: types.BigInt}},
		Events: events,
	})
	_, rows, err := engine.Search("search index=ev units>9 rowtime>1000")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]any{{int64(3000), int64(100)}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %#v, want %#v", rows, want)
	}
	if _, ok := events[0][0].(time.Time); !ok {
		t.Errorf("caller's event changed to %#v", events[0])
	}
}
