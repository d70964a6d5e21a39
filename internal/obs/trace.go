package obs

// Per-query tracing: every execution builds a tree of spans, one per
// physical operator, keyed by a fingerprint of the normalized SQL text.
// Spans accumulate rows/batches/elapsed with atomic counters (worker
// partitions of a parallel plan update the same span concurrently) and the
// memory governor's per-operator peak/spill counters are attached when the
// query finishes. A finished trace is condensed into an immutable
// TraceSnapshot — the single source of truth that EXPLAIN ANALYZE renders
// as text and /debug/queries serves as JSON.

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Span is one operator's execution record. Counter updates are atomic; the
// identity fields and tree shape are fixed at construction.
type Span struct {
	// Name is the operator name (rel.Node.Op()).
	Name string
	// Attrs are the operator's own attributes (rel.Node.Attrs()).
	Attrs string
	// MemKey is the operator name used by the memory governor's
	// reservations ("Sort", "HashJoin", ...); empty when the operator never
	// reserves memory.
	MemKey string
	// Children are the input operators' spans.
	Children []*Span

	rows      atomic.Int64
	batches   atomic.Int64
	elapsedNs atomic.Int64

	// Plan-feedback identity, stamped once after span construction: the
	// stable operator path id ("0", "0.1", ...) shared with the optimizer's
	// estimate table, and the optimizer's row estimate for this operator
	// (0 = no estimate known).
	path    string
	estRows float64

	// Memory counters, attached once by AttachMemStats after execution.
	peakBytes    int64
	spilledBytes int64
	spillFiles   int
	spillEvents  int
	memAttached  bool
}

// Record accumulates one batch pull: n rows delivered in d.
func (s *Span) Record(n int64, d time.Duration) {
	if s == nil {
		return
	}
	s.batches.Add(1)
	s.rows.Add(n)
	s.elapsedNs.Add(int64(d))
}

// AddElapsed accumulates time spent inside the operator without a batch
// (the final Done-returning pull still does work worth attributing).
func (s *Span) AddElapsed(d time.Duration) {
	if s == nil {
		return
	}
	s.elapsedNs.Add(int64(d))
}

// Rows returns the rows delivered so far.
func (s *Span) Rows() int64 { return s.rows.Load() }

// SetEstimate stamps the span with its stable operator path id and the
// optimizer's row estimate (est <= 0 keeps the path but records no
// estimate). Called once, at span-tree construction.
func (s *Span) SetEstimate(path string, est float64) {
	if s == nil {
		return
	}
	s.path = path
	if est > 0 {
		s.estRows = est
	}
}

// EstRows returns the optimizer's row estimate for this operator (0 when
// unknown).
func (s *Span) EstRows() float64 { return s.estRows }

// Path returns the stable operator path id ("" for operators with no
// counterpart in the optimized plan, e.g. exchanges).
func (s *Span) Path() string { return s.path }

// QueryTrace is one query execution being traced. It is built by the
// framework's execute path, handed to the executor (which attaches spans to
// plan nodes), and finished into a TraceSnapshot.
type QueryTrace struct {
	ID          uint64
	SQL         string
	Fingerprint string
	Start       time.Time
	// Stage latencies, filled by the framework's execute path.
	PlanNs     int64
	OptimizeNs int64
	Phases     OptimizerPhases
	ExecNs     int64
	TotalNs    int64
	Rows       int64
	Error      string
	// Cached marks a plan-cache hit: the statement skipped parse+optimize
	// and executed a previously optimized plan (PlanNs and OptimizeNs are 0).
	Cached bool
	// Parallelism is the worker count the plan was prepared for.
	Parallelism int
	// Query-level memory counters (from the query's allocator).
	PeakBytes    int64
	SpilledBytes int64

	Root *Span
}

// OptimizerPhases splits the optimize stage into the optimizer's phases —
// logical rewrite, join-order enumeration, physical planning — which run
// inside it, so they sum to at most OptimizeNs; JoinCandidates counts the
// pairs of partial join trees the enumeration considered, JoinCosted those it
// had to estimate because they could still beat the best pair so far.
type OptimizerPhases struct {
	RewriteNs      int64 `json:"rewrite_ns"`
	JoinOrderNs    int64 `json:"join_order_ns"`
	PhysicalNs     int64 `json:"physical_ns"`
	JoinCandidates int64 `json:"join_candidates"`
	JoinCosted     int64 `json:"join_costed"`
}

// NewSpan creates a span under parent (nil parent makes it the root).
func (t *QueryTrace) NewSpan(parent *Span, name, attrs, memKey string) *Span {
	s := &Span{Name: name, Attrs: attrs, MemKey: memKey}
	if parent == nil {
		t.Root = s
	} else {
		parent.Children = append(parent.Children, s)
	}
	return s
}

// AttachMemStats attaches the memory governor's per-operator counters to
// the first span whose MemKey matches op and has no stats yet. The governor
// aggregates by operator name, so when a plan contains several operators
// with the same reservation name the aggregate lands on the first (document
// order) — the same collapse the governor itself performs. Counters with no
// matching span are attached to a synthetic child of the root so nothing is
// dropped.
func (t *QueryTrace) AttachMemStats(op string, peak, spilled int64, files, events int) {
	if sp := findMemSpan(t.Root, op); sp != nil {
		sp.peakBytes, sp.spilledBytes = peak, spilled
		sp.spillFiles, sp.spillEvents = files, events
		sp.memAttached = true
		return
	}
	if t.Root == nil {
		t.Root = &Span{Name: "Query"}
	}
	orphan := &Span{Name: op, MemKey: op,
		peakBytes: peak, spilledBytes: spilled,
		spillFiles: files, spillEvents: events, memAttached: true}
	t.Root.Children = append(t.Root.Children, orphan)
}

func findMemSpan(s *Span, op string) *Span {
	if s == nil {
		return nil
	}
	if s.MemKey == op && !s.memAttached {
		return s
	}
	for _, c := range s.Children {
		if m := findMemSpan(c, op); m != nil {
			return m
		}
	}
	return nil
}

// SpanStats is the immutable, JSON-ready snapshot of one span.
type SpanStats struct {
	Name         string       `json:"name"`
	Attrs        string       `json:"attrs,omitempty"`
	Path         string       `json:"path,omitempty"`
	Rows         int64        `json:"rows"`
	EstRows      float64      `json:"est_rows,omitempty"`
	Batches      int64        `json:"batches"`
	ElapsedNs    int64        `json:"elapsed_ns"`
	PeakBytes    int64        `json:"peak_bytes,omitempty"`
	SpilledBytes int64        `json:"spilled_bytes,omitempty"`
	SpillFiles   int          `json:"spill_files,omitempty"`
	SpillEvents  int          `json:"spill_events,omitempty"`
	Children     []*SpanStats `json:"children,omitempty"`
}

// QError returns the estimation-error factor of this operator — the q-error
// max(est/actual, actual/est), both sides floored at one row — or 0 when the
// operator has no estimate.
func (s *SpanStats) QError() float64 {
	if s == nil || s.EstRows <= 0 {
		return 0
	}
	return QError(s.EstRows, float64(s.Rows))
}

// QError is the symmetric relative estimation error of est vs actual:
// max(est/actual, actual/est) with both values floored at 1, so a perfect
// estimate scores 1 and over- and under-estimation score alike.
func QError(est, actual float64) float64 {
	e := math.Max(est, 1)
	a := math.Max(actual, 1)
	return math.Max(e/a, a/e)
}

func (s *Span) snapshot() *SpanStats {
	if s == nil {
		return nil
	}
	out := &SpanStats{
		Name:         s.Name,
		Attrs:        s.Attrs,
		Path:         s.path,
		Rows:         s.rows.Load(),
		EstRows:      s.estRows,
		Batches:      s.batches.Load(),
		ElapsedNs:    s.elapsedNs.Load(),
		PeakBytes:    s.peakBytes,
		SpilledBytes: s.spilledBytes,
		SpillFiles:   s.spillFiles,
		SpillEvents:  s.spillEvents,
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.snapshot())
	}
	return out
}

// TraceSnapshot is a finished query trace: immutable, safe to share between
// the ring buffer, the slow-query log and HTTP handlers.
type TraceSnapshot struct {
	ID          uint64    `json:"id"`
	SQL         string    `json:"sql"`
	Fingerprint string    `json:"fingerprint"`
	Start       time.Time `json:"start"`
	PlanNs      int64     `json:"plan_ns"`
	OptimizeNs  int64     `json:"optimize_ns"`
	ExecNs      int64     `json:"exec_ns"`
	TotalNs     int64     `json:"total_ns"`
	Rows        int64     `json:"rows"`
	Error       string    `json:"error,omitempty"`
	Cached      bool      `json:"cached,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	PeakBytes   int64     `json:"peak_bytes"`
	Spilled     int64     `json:"spilled_bytes"`
	Slow        bool      `json:"slow,omitempty"`
	// MaxQError is the worst per-operator estimation error of the execution
	// (see SpanStats.QError); 0 when no operator carried an estimate.
	MaxQError float64    `json:"max_qerror,omitempty"`
	Spans     *SpanStats `json:"spans,omitempty"`

	// Phases splits OptimizeNs by optimizer phase (zero on a plan-cache
	// hit).
	Phases OptimizerPhases `json:"optimizer_phases"`
}

func maxQError(s *SpanStats) float64 {
	if s == nil {
		return 0
	}
	q := s.QError()
	for _, c := range s.Children {
		if cq := maxQError(c); cq > q {
			q = cq
		}
	}
	return q
}

// Snapshot condenses the live trace into its immutable form.
func (t *QueryTrace) Snapshot() *TraceSnapshot {
	spans := t.Root.snapshot()
	return &TraceSnapshot{
		MaxQError:   maxQError(spans),
		ID:          t.ID,
		SQL:         t.SQL,
		Fingerprint: t.Fingerprint,
		Start:       t.Start,
		PlanNs:      t.PlanNs,
		OptimizeNs:  t.OptimizeNs,
		Phases:      t.Phases,
		ExecNs:      t.ExecNs,
		TotalNs:     t.TotalNs,
		Rows:        t.Rows,
		Error:       t.Error,
		Cached:      t.Cached,
		Parallelism: t.Parallelism,
		PeakBytes:   t.PeakBytes,
		Spilled:     t.SpilledBytes,
		Spans:       spans,
	}
}

// DriftQError is the per-operator q-error at which RenderSpans flags the
// operator's estimate as drifted (the "[q=N.N!]" marker) — the estimate is
// off by at least this factor in either direction.
const DriftQError = 2.0

// RenderSpans renders the span tree as indented text — the EXPLAIN ANALYZE
// operator-stats section. One line per operator:
//
//	EnumerableSort: rows=42, est=100 [q=2.4!], batches=1, elapsed=1.2ms, peak=128.0KiB, spilled=800.0KiB, spill-files=3, spill-events=2
//
// The optimizer's row estimate renders next to the actual count on operators
// that carry one, with the drift marker when the q-error reaches DriftQError.
// Memory fields appear only on operators the governor tracked; spill fields
// only when the operator spilled.
func RenderSpans(root *SpanStats) string {
	var b strings.Builder
	renderSpan(&b, root, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *SpanStats, depth int) {
	if s == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	b.WriteString(": rows=")
	b.WriteString(strconv.FormatInt(s.Rows, 10))
	if s.EstRows > 0 {
		b.WriteString(", est=")
		b.WriteString(strconv.FormatFloat(s.EstRows, 'g', 4, 64))
		if q := s.QError(); q >= DriftQError {
			b.WriteString(" [q=")
			b.WriteString(strconv.FormatFloat(q, 'f', 1, 64))
			b.WriteString("!]")
		}
	}
	b.WriteString(", batches=")
	b.WriteString(strconv.FormatInt(s.Batches, 10))
	b.WriteString(", elapsed=")
	b.WriteString(time.Duration(s.ElapsedNs).Round(time.Microsecond).String())
	if s.PeakBytes > 0 || s.SpillEvents > 0 {
		b.WriteString(", peak=")
		b.WriteString(formatBytes(s.PeakBytes))
	}
	if s.SpilledBytes > 0 || s.SpillEvents > 0 {
		b.WriteString(", spilled=")
		b.WriteString(formatBytes(s.SpilledBytes))
		b.WriteString(", spill-files=")
		b.WriteString(strconv.Itoa(s.SpillFiles))
		b.WriteString(", spill-events=")
		b.WriteString(strconv.Itoa(s.SpillEvents))
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}

// formatBytes renders a byte count with a binary-unit suffix (kept local so
// obs stays dependency-free; mirrors memory.FormatBytes).
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return strconv.FormatFloat(float64(n)/(1<<30), 'f', 1, 64) + "GiB"
	case n >= 1<<20:
		return strconv.FormatFloat(float64(n)/(1<<20), 'f', 1, 64) + "MiB"
	case n >= 1<<10:
		return strconv.FormatFloat(float64(n)/(1<<10), 'f', 1, 64) + "KiB"
	}
	return strconv.FormatInt(n, 10) + "B"
}

// NormalizeSQL canonicalizes a SQL text for fingerprinting: literals become
// '?', whitespace collapses to single spaces, and everything outside string
// literals is lowercased. Two invocations of the same statement shape (same
// plan, different constants) normalize identically.
func NormalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	i := 0
	lastSpace := true
	last := byte(0)
	for i < len(sql) {
		c := sql[i]
		switch {
		case c == '\'':
			// String literal (with '' escapes) → ?
			j := i + 1
			for j < len(sql) {
				if sql[j] == '\'' {
					if j+1 < len(sql) && sql[j+1] == '\'' {
						j += 2
						continue
					}
					break
				}
				j++
			}
			b.WriteByte('?')
			last, lastSpace = '?', false
			if j < len(sql) {
				j++
			}
			i = j
		case c >= '0' && c <= '9':
			// Numeric literal → ?, unless part of an identifier.
			if isIdentChar(last) {
				b.WriteByte(c)
				last, lastSpace = c, false
				i++
				continue
			}
			j := i
			for j < len(sql) && (sql[j] >= '0' && sql[j] <= '9' || sql[j] == '.' ||
				sql[j] == 'e' || sql[j] == 'E' ||
				((sql[j] == '+' || sql[j] == '-') && j > i && (sql[j-1] == 'e' || sql[j-1] == 'E'))) {
				j++
			}
			b.WriteByte('?')
			last, lastSpace = '?', false
			i = j
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if !lastSpace {
				b.WriteByte(' ')
				last, lastSpace = ' ', true
			}
			i++
		default:
			lc := c
			if c >= 'A' && c <= 'Z' {
				lc = c + ('a' - 'A')
			}
			b.WriteByte(lc)
			last, lastSpace = lc, false
			i++
		}
	}
	return strings.TrimRight(b.String(), " ")
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '$'
}

// Fingerprint returns the FNV-64a hash of the normalized SQL as hex — the
// plan-fingerprint key of the trace layer.
func Fingerprint(sql string) string {
	h := uint64(14695981039346656037)
	norm := NormalizeSQL(sql)
	for i := 0; i < len(norm); i++ {
		h ^= uint64(norm[i])
		h *= 1099511628211
	}
	return strconv.FormatUint(h, 16)
}
