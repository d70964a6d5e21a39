package main

// The measurement loop: set-up (repeated, timed), reference computation,
// warm-up, then a fixed measured window of closed-loop clients.

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// A run builds the program's state at least minSetupRepeats times, and
	// goes on (up to maxSetupRepeats) until the builds have taken
	// setupBudget: millisecond set-ups need many repeats for a steady median.
	minSetupRepeats = 5
	maxSetupRepeats = 40
	setupBudget     = 600 * time.Millisecond
	// warmupSeconds is the least time spent warming up before measuring.
	warmupSeconds = 2.0
	// planSeedSalt separates the statement generator's random stream from
	// the data generator's, so statement literals do not shift when a table
	// size changes.
	planSeedSalt = 0x5DEECE66D
)

// sample is one completed operation of the measured window.
type sample struct {
	op  *op
	ns  int64
	end time.Duration // completion time, since the window started
	ok  bool
}

// mark is the state of the process at a moment of the measured window: the
// window's start, and every time client 0 completes a cycle of its mix.
type mark struct {
	at  time.Duration // since the window started
	cpu time.Duration // process user+system CPU so far
}

// prepared is a workload ready to run: the built system, each client's
// operation list and the set-up timings.
type prepared struct {
	wl     *workload
	sys    *system
	data   any
	ops    [][]*op
	next   []int // per client: position in its list
	setupS []float64

	mu       sync.Mutex
	failures []string
	failed   int
	done     int
}

// prepare runs the timed set-up repeatedly (keeping the last build) and then
// computes the statement lists with their reference digests.
func prepare(wl *workload, seed int64, scale int) (*prepared, error) {
	p := &prepared{wl: wl}
	var spent time.Duration
	for i := 0; i < minSetupRepeats || (spent < setupBudget && i < maxSetupRepeats); i++ {
		if p.sys != nil {
			if err := p.sys.close(); err != nil {
				return nil, err
			}
			p.sys, p.data = nil, nil
			runtime.GC()
		}
		start := time.Now()
		data := wl.generate(rand.New(rand.NewSource(seed)), scale)
		sys, err := wl.build(data)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		spent += time.Since(start)
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		p.sys, p.data = sys, data
	}
	p.ops = wl.plan(p.data, rand.New(rand.NewSource(seed^planSeedSalt)), scale)
	p.next = make([]int, len(p.ops))
	return p, nil
}

// step runs client's next operation and returns it with its latency.
func (p *prepared) step(client int) sample {
	list := p.ops[client]
	o := list[p.next[client]%len(list)]
	p.next[client]++
	start := time.Now()
	err := p.sys.run(client, o)
	ns := int64(time.Since(start))
	p.note(o, err)
	return sample{op: o, ns: ns, ok: err == nil}
}

// note counts a finished operation and keeps the first few failures.
func (p *prepared) note(o *op, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if err != nil {
		p.failed++
		if len(p.failures) < 5 {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", o.class, err))
		}
	}
}

// drive runs every client in a closed loop until stop returns true for it;
// stop sees the client's completed-operation count.
func (p *prepared) drive(stop func(client, done int) bool, record func(client int, s sample)) {
	var wg sync.WaitGroup
	for c := range p.ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; !stop(c, n); n++ {
				s := p.step(c)
				if record != nil {
					record(c, s)
				}
			}
		}(c)
	}
	wg.Wait()
}

// cycle is the number of operations after which client's mix of statement
// classes repeats: the workload's, or else the whole list.
func (p *prepared) cycle(client int) int {
	if n := p.wl.cycle; n > 0 && n <= len(p.ops[client]) {
		return n
	}
	return len(p.ops[client])
}

// warmup lets caches fill, the plan cache settle and lazy pools start: at
// least warmupSeconds, and at least minWarmupCycles passes over each list. It
// stops every client at the end of a cycle, so the measured window starts on
// one.
func (p *prepared) warmup(scale int) {
	deadline := time.Now().Add(time.Duration(warmupSeconds / float64(scale) * float64(time.Second)))
	p.drive(func(c, done int) bool {
		return done >= p.wl.minWarmupCycles*len(p.ops[c]) && p.next[c]%p.cycle(c) == 0 && !time.Now().Before(deadline)
	}, nil)
}

// window is the raw outcome of one measured window.
type window struct {
	samples [][]sample // per client
	marks   []mark     // the start, then each completed cycle of client 0
	elapsed time.Duration
	cpu     time.Duration
	allocB  uint64
}

// measure runs the measured window: every client loops until the deadline.
func (p *prepared) measure(seconds float64) *window {
	w := &window{samples: make([][]sample, len(p.ops))}
	for c := range w.samples {
		w.samples[c] = make([]sample, 0, 1<<14)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, start := ms.TotalAlloc, cpuTime(), time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	w.marks = append(w.marks, mark{0, cpu0})
	p.drive(func(int, int) bool { return !time.Now().Before(deadline) },
		func(c int, s sample) {
			s.end = time.Since(start)
			w.samples[c] = append(w.samples[c], s)
			if c == 0 && p.next[0]%p.cycle(0) == 0 {
				w.marks = append(w.marks, mark{s.end, cpuTime()})
			}
		})
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	w.allocB = ms.TotalAlloc - alloc0
	return w
}

// segment is a stretch of the measured window made of whole cycles.
type segment struct {
	seconds, cpuMs float64
	samples        []sample // operations of every client that ended in it
}

// segmentsWanted is about how many segments a window is cut into.
const segmentsWanted = 10

// segments cuts the window into about segmentsWanted stretches of equally
// many whole cycles of client 0 (the last, incomplete stretch is left out), so
// every segment runs the same mix of statements. A window too short for one
// cycle is a single segment.
func (w *window) segments() []segment {
	all := w.all()
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	cycles := len(w.marks) - 1
	if cycles < 1 {
		return []segment{{w.elapsed.Seconds(), float64(w.cpu) / 1e6, all}}
	}
	per := max(1, cycles/segmentsWanted)
	var segs []segment
	for i, k := 0, 0; i+per <= cycles; i += per {
		from, to := w.marks[i], w.marks[i+per]
		for k < len(all) && all[k].end <= from.at {
			k++
		}
		first := k
		for k < len(all) && all[k].end <= to.at {
			k++
		}
		segs = append(segs, segment{(to.at - from.at).Seconds(), float64(to.cpu-from.cpu) / 1e6, all[first:k]})
	}
	return segs
}

// undisturbed summarises f over the segments by its quartile on the side of
// the better values: the first where lower is better, the third where higher
// is. The benchmark runs on a few cores of a shared host, whose other tenants
// slow the program for seconds at a time and never speed it up; a median over
// the window moves with every such episode, the better quartile only once
// three quarters of the window are disturbed.
func undisturbed(segs []segment, higherIsBetter bool, f func(segment) float64) float64 {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = f(s)
	}
	if higherIsBetter {
		return quantile(vals, 0.75)
	}
	return quantile(vals, 0.25)
}

func (w *window) all() []sample {
	var out []sample
	for _, s := range w.samples {
		out = append(out, s...)
	}
	return out
}

// finish runs the workload's end-state checks and tears the system down.
func (p *prepared) finish() {
	if p.sys.finish != nil {
		if err := p.sys.finish(); err != nil {
			p.failed++
			p.failures = append(p.failures, "end state: "+err.Error())
		}
	}
	if err := p.sys.close(); err != nil {
		p.failed++
		p.failures = append(p.failures, "teardown: "+err.Error())
	}
	for _, f := range p.failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.ns) / 1e6
	}
	return out
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(p *prepared, w *window) map[string]metric {
	segs := w.segments()
	okPerS := func(weight func(*op) float64) float64 {
		return undisturbed(segs, true, func(g segment) float64 {
			var sum float64
			for _, s := range g.samples {
				if s.ok {
					sum += weight(s.op)
				}
			}
			return sum / g.seconds
		})
	}
	latency := func(q float64) float64 {
		return undisturbed(segs, false, func(g segment) float64 { return quantile(latenciesMs(g.samples), q) })
	}
	return map[string]metric{
		"setup_s":          {median(p.setupS), "s"},
		"ops_per_s":        {okPerS(func(*op) float64 { return 1 }), "1/s"},
		"input_rows_per_s": {okPerS(func(o *op) float64 { return float64(o.inputRows) }), "rows/s"},
		"latency_p50_ms":   {latency(0.50), "ms"},
		"latency_p95_ms":   {latency(0.95), "ms"},
		"cpu_ms_per_op":    {undisturbed(segs, false, func(g segment) float64 { return g.cpuMs / float64(len(g.samples)) }), "ms"},
		"alloc_kb_per_op":  {float64(w.allocB) / 1024 / float64(len(w.all())), "KiB"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is what a run records about where it ran.
func environment() map[string]string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}
