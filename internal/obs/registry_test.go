package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas are ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("reqs_total", "requests") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Distinct label sets are distinct children of the same family.
	a := r.Counter("by_route", "h", L("route", "/a"))
	b := r.Counter("by_route", "h", L("route", "/b"))
	if a == b {
		t.Fatal("distinct label sets share a child")
	}
	// Label order does not matter for identity.
	x := r.Counter("multi", "h", L("k1", "v1"), L("k2", "v2"))
	y := r.Counter("multi", "h", L("k2", "v2"), L("k1", "v1"))
	if x != y {
		t.Fatal("label order changed child identity")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp", "t")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	r.GaugeFunc("live", "l", func() float64 { return 42 })
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "live 42\n") {
		t.Fatalf("function-backed gauge missing:\n%s", b.String())
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering gauge over existing counter did not panic")
		}
	}()
	r.Gauge("m", "h")
}

// TestHistogramBoundaries pins the "le" bucket semantics: a value exactly on
// an upper bound lands in that bucket; values above the last bound count only
// toward +Inf.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "l", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1.0, 9.99, 10.0, 11.0, 1e9} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	want := []int64{2, 4, 6} // cumulative: le=0.1 → 2, le=1 → 4, le=10 → 6
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (cumulative)", i, got[i], want[i])
		}
	}
	wantSum := 0.05 + 0.1 + 0.5 + 1.0 + 9.99 + 10.0 + 11.0 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-9*wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// Unsorted bounds are sorted at construction.
	h2 := r.Histogram("lat2", "l", []float64{10, 0.1, 1})
	h2.Observe(0.5)
	if c := h2.BucketCounts(); c[0] != 0 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("unsorted bounds not canonicalized: %v", c)
	}
}

// TestRegistryConcurrent hammers registration, updates and scrapes from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				r.Counter("conc_total", "h", L("route", route)).Inc()
				r.Gauge("conc_gauge", "h").Add(1)
				r.Histogram("conc_hist", "h", nil, L("route", route)).Observe(float64(i) / 1000)
				if i%50 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, route := range []string{"a", "b", "c", "d"} {
		total += r.Counter("conc_total", "h", L("route", route)).Value()
	}
	if total != workers*iters {
		t.Fatalf("counter total = %d, want %d", total, workers*iters)
	}
	if g := r.Gauge("conc_gauge", "h").Value(); g != workers*iters {
		t.Fatalf("gauge = %v, want %d", g, workers*iters)
	}
}

// goldenExposition is the expected Prometheus text rendering of a small fixed
// registry — families ordered by name, children by canonical label signature,
// histograms with cumulative le buckets plus _sum/_count.
const goldenExposition = `# HELP app_latency_seconds Request latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 3
app_latency_seconds_bucket{le="+Inf"} 4
app_latency_seconds_sum 7.6
app_latency_seconds_count 4
# HELP app_requests_total Requests by route.
# TYPE app_requests_total counter
app_requests_total{code="200",route="/x"} 3
app_requests_total{code="500",route="/x"} 1
# HELP app_temp_celsius Current temperature.
# TYPE app_temp_celsius gauge
app_temp_celsius 21.5
`

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Register out of name order and with unsorted labels: exposition must
	// still be deterministic.
	r.Gauge("app_temp_celsius", "Current temperature.").Set(21.5)
	r.Counter("app_requests_total", "Requests by route.", L("route", "/x"), L("code", "500")).Inc()
	r.Counter("app_requests_total", "Requests by route.", L("code", "200"), L("route", "/x")).Add(3)
	h := r.Histogram("app_latency_seconds", "Request latency.", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 1.0, 6.05} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenExposition {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), goldenExposition)
	}
	// A second scrape of an unchanged registry is byte-identical.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b.String() != b2.String() {
		t.Fatal("scrape output not deterministic")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("q", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `esc_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing %q in:\n%s", want, b.String())
	}
}

func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read as zero")
	}
}
