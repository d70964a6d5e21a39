// Package obs is the framework's zero-dependency observability substrate:
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with label support and Prometheus text-format exposition) and
// a per-query trace layer (span trees keyed by normalized-SQL fingerprints,
// a bounded ring of recent traces, and a structured JSON slow-query log).
//
// The package imports only the standard library and knows nothing about
// relational plans or operators: the execution engine attaches spans to
// plan nodes and the serving layer exposes the registry over HTTP, but obs
// itself is just instruments and buffers. Every instrument is safe for
// concurrent use; hot-path updates are single atomic operations.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is anything a family can expose.
type metric interface {
	// sampleValue returns the scrape-time value (counters, gauges).
	sampleValue() float64
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
	// fn, when set, makes this a function-backed counter sampled at scrape
	// time instead of an accumulating one (used to expose counters that an
	// instrumented subsystem already maintains as plain atomics).
	fn func() int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

func (c *Counter) sampleValue() float64 { return float64(c.Value()) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	fn   func() float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) sampleValue() float64 { return g.Value() }

// DefaultLatencyBuckets are the fixed histogram buckets for latency metrics,
// in seconds (100µs .. 10s, roughly logarithmic).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket cumulative histogram. Observations land in the
// first bucket whose upper bound is >= the value (Prometheus "le" semantics);
// values above the last bound count only toward +Inf.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the cumulative count per bound (le semantics),
// excluding +Inf (which equals Count()).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.bounds))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) sampleValue() float64 { return float64(h.Count()) }

// family is one metric name with its help text, type and children (one per
// label combination).
type family struct {
	name, help, typ string
	mu              sync.Mutex
	children        map[string]metric // keyed by canonical label signature
	labels          map[string][]Label
}

// Registry is a concurrency-safe collection of metric families with
// Prometheus text-format exposition. Registration is idempotent: asking for
// an existing (name, labels) pair returns the existing instrument, so
// instrumented code can re-register cheaply instead of threading instrument
// handles everywhere.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.families[name]; f != nil {
		return f
	}
	f = &family{name: name, help: help, typ: typ,
		children: map[string]metric{}, labels: map[string][]Label{}}
	r.families[name] = f
	r.order = append(r.order, name)
	sort.Strings(r.order)
	return f
}

// labelSig canonicalizes a label set (sorted by key) for child lookup.
func labelSig(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String(), ls
}

// child returns the metric for the label set, creating it with mk on first
// use.
func (f *family) child(labels []Label, mk func() metric) metric {
	sig, ls := labelSig(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.children[sig]
	if !ok {
		m = mk()
		f.children[sig] = m
		f.labels[sig] = ls
	}
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.family(name, help, "counter").child(labels, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a different type", name))
	}
	return c
}

// CounterFunc registers a function-backed counter: the subsystem keeps its
// own atomic count and the registry samples it at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.family(name, help, "counter").child(labels, func() metric { return &Counter{fn: fn} })
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.family(name, help, "gauge").child(labels, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a different type", name))
	}
	return g
}

// GaugeFunc registers a function-backed gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.family(name, help, "gauge").child(labels, func() metric { return &Gauge{fn: fn} })
}

// Histogram registers (or fetches) a fixed-bucket histogram. bounds are the
// upper bucket bounds; nil uses DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	m := r.family(name, help, "histogram").child(labels, func() metric { return newHistogram(bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a different type", name))
	}
	return h
}

// formatValue renders a sample the way Prometheus clients do: integers
// without exponent, floats with full precision.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func renderLabels(ls []Label, extra ...Label) string {
	all := append(append([]Label(nil), ls...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4). Families are ordered by name and children by label
// signature, so the output is deterministic — golden-file friendly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		sigs := make([]string, 0, len(f.children))
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		children := make([]metric, len(sigs))
		labelSets := make([][]Label, len(sigs))
		for i, sig := range sigs {
			children[i] = f.children[sig]
			labelSets[i] = f.labels[sig]
		}
		f.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for i, m := range children {
			ls := labelSets[i]
			switch x := m.(type) {
			case *Histogram:
				cum := x.BucketCounts()
				for bi, bound := range x.bounds {
					le := strconv.FormatFloat(bound, 'g', -1, 64)
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(ls, L("le", le)), cum[bi])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, renderLabels(ls, L("le", "+Inf")), x.Count())
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(ls), formatValue(x.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(ls), x.Count())
			default:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(ls), formatValue(m.sampleValue())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
