package main

// stream_window: three continuous queries over one replayed event stream.
// Each operation is a full replay through the streaming operator stack.

import (
	"fmt"
	"math/rand"

	"calcite"
	"calcite/internal/adapter/streamtab"
	"calcite/internal/rex"
	"calcite/internal/stream"
	"calcite/internal/types"
)

// streamData is the event log [rowtime, k, v] in event-time order, plus the
// replay seed that perturbs its arrival order.
type streamData struct {
	events     [][]any
	replaySeed int64
}

func genStream(rng *rand.Rand, scale int) any {
	d := &streamData{replaySeed: rng.Int63()}
	keys := int64(scaled(streamKeys, scale, 20))
	ts := int64(0)
	for i, n := 0, scaled(streamEvents, scale, 400); i < n; i++ {
		ts += int64(rng.Intn(2 * streamMeanGapMs))
		d.events = append(d.events, []any{ts, skewed(rng, int(keys)), int64(rng.Intn(1000))})
	}
	return d
}

func streamTable(d *streamData) (*streamtab.Table, error) {
	tb := streamtab.NewTable("events", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp}, bigint("k"), bigint("v")), 0)
	if err := tb.Append(d.events...); err != nil {
		return nil, err
	}
	tb.SetReplaySkew(d.replaySeed, streamSkewMs)
	return tb, nil
}

func buildStream(data any) (*system, error) {
	tb, err := streamTable(data.(*streamData))
	if err != nil {
		return nil, err
	}
	conn := calcite.Open()
	a := streamtab.New("s")
	a.AddTable(tb)
	conn.RegisterAdapter(a)
	return &system{conn: conn, exec: queryExec(conn)}, nil
}

// streamQuery is one continuous query and the oracle call that computes its
// windows. The trailing interval of each group window is the allowed
// lateness; it covers the replay skew, so no event is dropped and the result
// does not depend on arrival order.
type streamQuery struct {
	class  string
	sql    string
	oracle func(events []stream.Event, keys []int, calls []rex.AggCall) ([]stream.Window, error)
}

var streamQueries = []streamQuery{
	{"tumble", `SELECT STREAM TUMBLE_START(rowtime, INTERVAL '1' SECOND) AS ws, TUMBLE_END(rowtime, INTERVAL '1' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY TUMBLE(rowtime, INTERVAL '1' SECOND, INTERVAL '2' SECOND), k`,
		func(ev []stream.Event, keys []int, calls []rex.AggCall) ([]stream.Window, error) {
			return stream.Tumble(ev, 1000, keys, calls)
		}},
	{"hop", `SELECT STREAM HOP_START(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND) AS ws, HOP_END(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY HOP(rowtime, INTERVAL '1' SECOND, INTERVAL '16' SECOND, INTERVAL '2' SECOND), k`,
		func(ev []stream.Event, keys []int, calls []rex.AggCall) ([]stream.Window, error) {
			return stream.Hop(ev, 1000, 16000, keys, calls)
		}},
	{"session", `SELECT STREAM SESSION_START(rowtime, INTERVAL '2' SECOND) AS ws, SESSION_END(rowtime, INTERVAL '2' SECOND) AS we, k, COUNT(*) AS c, SUM(v) AS s FROM s.events GROUP BY SESSION(rowtime, INTERVAL '2' SECOND, INTERVAL '2' SECOND), k`,
		func(ev []stream.Event, keys []int, calls []rex.AggCall) ([]stream.Window, error) {
			return stream.Session(ev, 2000, keys, calls)
		}},
}

// planStream computes each query's windows with internal/stream's row-mode
// oracle, which re-materializes every window from the raw events and shares
// no operator with the streaming path under test.
func planStream(data any, _ *rand.Rand, _ int) [][]*op {
	d := data.(*streamData)
	tb, err := streamTable(d)
	if err != nil {
		panic(err) // the generator produced an out-of-order log: a bug
	}
	cur, err := tb.StreamScan()
	if err != nil {
		panic(err)
	}
	events, err := stream.EventsFromCursor(cur, 0)
	if err != nil {
		panic(err)
	}
	calls := []rex.AggCall{
		rex.NewAggCall(rex.AggCount, nil, false, "c"),
		rex.NewAggCall(rex.AggSum, []int{2}, false, "s"),
	}
	var ops []*op
	for _, sq := range streamQueries {
		wins, err := sq.oracle(events, []int{1}, calls)
		if err != nil {
			panic(fmt.Sprintf("stream oracle %s: %v", sq.class, err))
		}
		rows := make([][]any, len(wins))
		for i, w := range wins {
			rows[i] = append(append([]any{w.Start, w.End}, w.Key...), w.Values...)
		}
		ops = append(ops, &op{class: sq.class, sql: sq.sql, want: digestRows(rows, false),
			inputRows: int64(len(d.events))})
	}
	return [][]*op{ops}
}

var streamWindow = &workload{
	name:            "stream_window",
	why:             "continuous TUMBLE/HOP/SESSION queries over a replayed out-of-order stream: the streaming operators reuse batch accumulators incrementally",
	generate:        genStream,
	build:           buildStream,
	plan:            planStream,
	minWarmupCycles: warmupCycles,
}
