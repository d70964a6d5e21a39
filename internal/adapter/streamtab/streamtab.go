// Package streamtab is the stream adapter (§7.2): tables whose rows are
// time-ordered events. Querying a stream table without the STREAM directive
// returns "existing records which have already been received" (the history,
// up to the watermark); with STREAM, the system processes the incoming
// records — here, every buffered event including those past the watermark.
//
// The table is batch-native: both the history and the stream enumerate as
// column-major typed batches (schema.BatchScannableTable plus
// StreamScanBatches), so continuous queries ingest vectors rather than
// boxed rows. Appended rowtimes must not decrease. For tests it is also a
// replay source with controllable event-time skew: SetReplaySkew
// deterministically perturbs the arrival order of an in-order event log so
// the same out-of-order run can be replayed.
package streamtab

import (
	"fmt"
	"sort"
	"sync"

	"calcite/internal/core"
	"calcite/internal/plan"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// Table is a time-ordered event table. It implements schema.ScannableTable
// and schema.BatchScannableTable (history), schema.StreamableTable and
// StreamScan/StreamScanBatches (incoming records).
type Table struct {
	name       string
	rowType    *types.Type
	rowtimeCol int

	mu        sync.RWMutex
	events    [][]any
	maxTs     int64
	hasEvents bool
	watermark int64

	// Replay skew: when replaySkew > 0, StreamScan yields the events in a
	// deterministically perturbed arrival order (seeded, bounded by the
	// skew) instead of append order.
	replaySkew int64
	replaySeed int64

	// vecs is the lazily built column-major snapshot of the vecsN arrival-
	// ordered events, serving StreamScanBatches zero-copy; Append and
	// SetReplaySkew invalidate it.
	vecs  []*schema.Vector
	vecsN int
}

// NewTable creates a stream table; rowtimeCol is the ordinal of the
// monotonic event-time column (epoch millis, time.Time, or any integer
// type — values are normalized to int64 millis on append).
func NewTable(name string, rowType *types.Type, rowtimeCol int) *Table {
	return &Table{name: name, rowType: rowType, rowtimeCol: rowtimeCol}
}

// SetReplaySkew makes StreamScan replay the events in a deterministic
// pseudo-random arrival order where each event may arrive up to ms
// milliseconds of event time late relative to earlier arrivals. The same
// (seed, ms) pair always produces the same order; ms == 0 restores append
// order.
func (t *Table) SetReplaySkew(seed, ms int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.replaySeed, t.replaySkew = seed, ms
	t.vecs, t.vecsN = nil, 0
}

// Append adds events, each normalized (types.Normalize, which copies a row
// it changes): rowtimes may be time.Time or any integer type and are stored
// as int64 millis; none may be smaller than the largest rowtime seen so far.
func (t *Table) Append(rows ...[]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, row := range rows {
		row = types.NormalizeRow(row)
		ts, ok := row[t.rowtimeCol].(int64)
		if !ok {
			return fmt.Errorf("streamtab: rowtime column must be a timestamp (time.Time or integer millis), got %T", row[t.rowtimeCol])
		}
		if t.hasEvents && ts < t.maxTs {
			return fmt.Errorf("streamtab: out-of-order event (rowtime %d < %d); streams are time-ordered sets of records", ts, t.maxTs)
		}
		if !t.hasEvents || ts > t.maxTs {
			t.maxTs, t.hasEvents = ts, true
		}
		t.events = append(t.events, row)
	}
	t.vecs, t.vecsN = nil, 0
	return nil
}

// SetWatermark marks events at or before ts as historical.
func (t *Table) SetWatermark(ts int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watermark = ts
}

func (t *Table) Name() string         { return t.name }
func (t *Table) RowType() *types.Type { return t.rowType }
func (t *Table) RowtimeColumn() int   { return t.rowtimeCol }

func (t *Table) Stats() schema.Statistics {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return schema.Statistics{RowCount: float64(len(t.events))}
}

// history returns the rows with rowtime <= watermark, in arrival order.
// Callers hold at least a read lock.
func (t *Table) history() [][]any {
	rows := t.arrivalLocked()
	out := make([][]any, 0, len(rows))
	for _, row := range rows {
		if row[t.rowtimeCol].(int64) <= t.watermark {
			out = append(out, row)
		}
	}
	return out
}

// arrivalLocked returns the events in arrival order: append order, or the
// seeded skewed permutation when replay skew is set. Callers hold at least
// a read lock.
func (t *Table) arrivalLocked() [][]any {
	if t.replaySkew <= 0 {
		return t.events
	}
	// Perturb each event's position by sorting on rowtime plus a seeded
	// jitter in [0, skew]. If a precedes b in the result then
	// ts(a) <= ts(b) + skew, so the arrival stream's out-of-orderness is
	// bounded by exactly the configured skew.
	type keyed struct {
		key int64
		row []any
	}
	rng := t.replaySeed
	perturbed := make([]keyed, len(t.events))
	for i, row := range t.events {
		// Deterministic LCG (Knuth's MMIX constants).
		rng = rng*6364136223846793005 + 1442695040888963407
		jitter := (rng >> 33) % (t.replaySkew + 1)
		if jitter < 0 {
			jitter += t.replaySkew + 1
		}
		perturbed[i] = keyed{key: row[t.rowtimeCol].(int64) + jitter, row: row}
	}
	sort.SliceStable(perturbed, func(i, j int) bool { return perturbed[i].key < perturbed[j].key })
	out := make([][]any, len(perturbed))
	for i, k := range perturbed {
		out[i] = k.row
	}
	return out
}

// Scan returns the historical rows (rowtime <= watermark): the semantics of
// querying a stream without the STREAM keyword.
func (t *Table) Scan() (schema.Cursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return schema.NewSliceCursor(t.history()), nil
}

// ScanBatches implements schema.BatchScannableTable for the history.
func (t *Table) ScanBatches(batchSize int) (schema.BatchCursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := t.history()
	return schema.NewVectorCursor(schema.VectorsFromRows(rows, t.rowType.Fields), len(rows), batchSize), nil
}

// StreamScan returns all buffered events in arrival order — the incoming
// records a STREAM query processes.
func (t *Table) StreamScan() (schema.Cursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := t.arrivalLocked()
	return schema.NewSliceCursor(append([][]any(nil), rows...)), nil
}

// StreamScanBatches enumerates the incoming records as zero-copy windows
// over a cached columnar snapshot of the arrival order.
func (t *Table) StreamScanBatches(batchSize int) (schema.BatchCursor, error) {
	t.mu.RLock()
	vecs, n := t.vecs, t.vecsN
	t.mu.RUnlock()
	if vecs == nil {
		t.mu.Lock()
		if t.vecs == nil {
			rows := t.arrivalLocked()
			t.vecs, t.vecsN = schema.VectorsFromRows(rows, t.rowType.Fields), len(rows)
		}
		vecs, n = t.vecs, t.vecsN
		t.mu.Unlock()
	}
	return schema.NewVectorCursor(vecs, n, batchSize), nil
}

// Adapter groups stream tables in a schema.
type Adapter struct {
	schema *schema.BaseSchema
}

// New creates a stream adapter schema.
func New(name string) *Adapter { return &Adapter{schema: schema.NewBaseSchema(name)} }

// AddTable registers a stream table.
func (a *Adapter) AddTable(t *Table) { a.schema.AddTable(t) }

// AdapterSchema implements core.Adapter.
func (a *Adapter) AdapterSchema() schema.Schema { return a.schema }

// Rules implements core.Adapter (streams execute in the enumerable
// convention; windowing is planned by sql2rel).
func (a *Adapter) Rules() []plan.Rule { return nil }

// Converters implements core.Adapter.
func (a *Adapter) Converters() []core.ConverterReg { return nil }
