package main

// The traced pass: one client, every operation wrapped in the benchmark's own
// spans, with counts read from what the engine already exposes publicly
// (PlanCache.Counters, LastPlanner, LastTraces, the worker and memory pools,
// the obs registry, the backends' request logs). It is never the source of an
// end-to-end metric.

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"calcite"
	"calcite/internal/exec"
	"calcite/internal/obs"
	"calcite/internal/parser"
	"calcite/internal/plan"
	"calcite/internal/rel"
	"calcite/internal/sql2rel"
)

// opCategories are the operator classes of exec.self_share.*.
var opCategories = []string{"scan", "filter", "project", "join", "aggregate", "sort", "window", "exchange", "streamagg", "adapter"}

// isAdapterOp reports whether an operator name belongs to an adapter's
// calling convention (scan, pushed operator or converter).
func isAdapterOp(name string) bool {
	for _, prefix := range []string{"Jdbc", "Splunk", "Cassandra", "Mongo"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// operatorCategory maps an engine operator name (rel.Node.Op) to its class.
func operatorCategory(name string) string {
	if isAdapterOp(name) {
		return "adapter"
	}
	for _, m := range []struct{ sub, cat string }{
		{"StreamAggregate", "streamagg"}, {"Exchange", "exchange"}, {"Window", "window"},
		{"Sort", "sort"}, {"Aggregate", "aggregate"}, {"Join", "join"}, {"Project", "project"},
		{"Filter", "filter"}, {"Scan", "scan"}, {"Values", "scan"},
	} {
		if strings.Contains(name, m.sub) {
			return m.cat
		}
	}
	return "other"
}

// tracedOp is what the traced pass records about one operation.
type tracedOp struct {
	op        *op
	ok        bool
	latencyNs int64 // the caller-seen call: conn.Query, or the wire sequence
	cached    bool  // the engine reported a plan-cache hit

	// Dissection of a cache miss: the benchmark's own calls into each layer.
	dissected                                        bool
	parseNs, convertNs, optimizeNs                   int64
	parseAllocB                                      uint64
	logicalNodes, physicalNodes                      int
	hepFired, volcanoFired, volcanoRounds, metaCalls int

	// From the engine's trace of the statement.
	execNs, serverTotalNs   int64
	enginePlanNs            int64 // the engine's own convert + optimize stage timers
	selfNs                  map[string]int64
	rowsScanned, rowsOut    int64
	shipped                 int64 // rows crossing adapter converters
	peakBytes, spilledBytes int64
	maxQError               float64
	delta                   counters
	executeNs               int64 // serve_mixed: the /execute round trip
	fetchFrames             int
}

// counters is a point-in-time read of the engine's cumulative counters.
type counters struct {
	hits, misses, invalidations int64
	tasks, morsels, spawns      int64
	spillEvents, denials        int64
	windows, late               int64
	replans                     int64
	requests                    int64 // backend requests, all four stores
}

func (a counters) minus(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.invalidations - b.invalidations,
		a.tasks - b.tasks, a.morsels - b.morsels, a.spawns - b.spawns,
		a.spillEvents - b.spillEvents, a.denials - b.denials,
		a.windows - b.windows, a.late - b.late, a.replans - b.replans, a.requests - b.requests}
}

func readCounters(sys *system) counters {
	fw := sys.conn.Framework
	pc := fw.PlanCache().Counters()
	wp := fw.WorkerPool()
	spawns, _ := wp.Stats()
	mem := fw.MemoryPool().Counters()
	c := counters{
		hits: pc.Hits, misses: pc.Misses, invalidations: pc.Invalidations,
		tasks: wp.TasksDone(), morsels: wp.MorselsDispatched(), spawns: spawns,
		spillEvents: mem.SpillEvents, denials: mem.Denials,
		windows: exec.StreamWindowsEmitted(), late: exec.StreamLateDropped(),
		replans: fw.Feedback().Counters().Replans,
	}
	if b := sys.backends; b != nil {
		// The request logs are read without their locks: the traced pass has
		// one client and reads only between its operations.
		c.requests = int64(len(b.pg.Queries) + len(b.splunk.Queries) + len(b.cass.Queries) + len(b.mongo.Queries))
	}
	return c
}

// tracedRun drives the traced pass over a prepared workload.
type tracedRun struct {
	p    *prepared
	tr   *tracer
	ops  []tracedOp
	stmt int
}

// step runs client 0's next operation under spans.
func (r *tracedRun) step() {
	p := r.p
	list := p.ops[0]
	o := list[p.next[0]%len(list)]
	p.next[0]++
	r.stmt++
	rec := tracedOp{op: o}
	root := r.tr.begin("op", 0, r.stmt)
	r.tr.spans[root-1].Class = o.class

	before := readCounters(p.sys)
	var rows [][]any
	var err error
	if p.sys.serve != nil {
		rows, err = p.sys.serve.sequence(0, o, func(name string) func() {
			id := r.tr.begin(name, root, r.stmt)
			return func() {
				d := r.tr.end(id)
				rec.latencyNs += d
				switch name {
				case "avatica.Execute":
					rec.executeNs = d
				case "avatica.Fetch":
					rec.fetchFrames++
				}
			}
		})
	} else {
		id := r.tr.begin("core.Execute", root, r.stmt)
		rows, err = p.sys.exec(0, o)
		rec.latencyNs = r.tr.end(id)
		r.tr.spans[id-1].Rows = int64(len(rows))
	}
	rec.delta = readCounters(p.sys).minus(before)
	if err == nil {
		err = p.sys.verify(o, rows)
	}
	rec.ok = err == nil
	p.note(o, err)
	if snap := engineTrace(p.sys.conn, o.sql); snap != nil {
		rec.readSnapshot(snap)
		if !snap.Cached && !o.write {
			r.dissect(o, root, &rec)
		}
	}
	r.tr.end(root)
	r.ops = append(r.ops, rec)
}

// engineTrace returns the engine's own trace of the statement just run: the
// newest retained trace, provided it is for this SQL text.
func engineTrace(conn *calcite.Connection, sql string) *obs.TraceSnapshot {
	traces := conn.LastTraces(1)
	if len(traces) == 0 || traces[0].SQL != sql {
		return nil
	}
	return traces[0]
}

func (rec *tracedOp) readSnapshot(snap *obs.TraceSnapshot) {
	rec.cached = snap.Cached
	rec.execNs, rec.serverTotalNs = snap.ExecNs, snap.TotalNs
	rec.enginePlanNs = snap.PlanNs + snap.OptimizeNs
	rec.rowsOut = snap.Rows
	rec.peakBytes, rec.spilledBytes = snap.PeakBytes, snap.Spilled
	rec.maxQError = snap.MaxQError
	rec.selfNs = map[string]int64{}
	var walk func(s *obs.SpanStats)
	walk = func(s *obs.SpanStats) {
		if s == nil {
			return
		}
		self := s.ElapsedNs // inclusive of the operators below it
		for _, c := range s.Children {
			self -= c.ElapsedNs
			walk(c)
		}
		if self > 0 {
			rec.selfNs[operatorCategory(s.Name)] += self
		}
		// A converter's subtree runs inside the backend and reports no rows
		// of its own: what the converter delivers is what was read and shipped.
		converter := strings.HasSuffix(s.Name, "ToEnumerable")
		if converter {
			rec.shipped += s.Rows
		}
		if converter || (len(s.Children) == 0 && !isAdapterOp(s.Name)) {
			rec.rowsScanned += s.Rows
		}
	}
	walk(snap.Spans)
}

// dissect replays a plan-cache miss through the layer entry points one by
// one, so each layer's share of planning is a span of its own.
func (r *tracedRun) dissect(o *op, root int, rec *tracedOp) {
	fw := r.p.sys.conn.Framework
	top := r.tr.begin("dissect", root, r.stmt)
	defer r.tr.end(top)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	id := r.tr.begin("parser.Parse", top, r.stmt)
	stmt, err := parser.Parse(o.sql)
	rec.parseNs = r.tr.end(id)
	runtime.ReadMemStats(&ms)
	rec.parseAllocB = ms.TotalAlloc - alloc0
	if err != nil {
		return
	}

	id = r.tr.begin("sql2rel.Convert", top, r.stmt)
	logical, err := sql2rel.New(fw.Catalog).Convert(stmt)
	rec.convertNs = r.tr.end(id)
	if err != nil {
		return
	}
	rec.logicalNodes = countNodes(logical)

	// Framework.Optimize keeps its Hep planner to itself; running the logical
	// phase once more, outside the optimize span, is the only way to read its
	// firing count from outside.
	id = r.tr.begin("plan.Hep", top, r.stmt)
	hep := plan.NewHepPlanner(fw.LogicalRules...)
	hep.Meta = fw.NewMetaQuery()
	hep.Optimize(logical)
	r.tr.end(id)
	rec.hepFired = hep.Fired

	id = r.tr.begin("plan.Optimize", top, r.stmt)
	physical, err := fw.Optimize(logical)
	rec.optimizeNs = r.tr.end(id)
	if err != nil {
		return
	}
	if vp := fw.LastPlanner; vp != nil {
		rec.volcanoFired, rec.volcanoRounds = vp.Fired, vp.Rounds
		if vp.Meta != nil {
			rec.metaCalls = vp.Meta.Calls
		}
	}
	rec.physicalNodes = countNodes(physical)
	rec.dissected = true

	if len(o.params) == 0 { // ExecutePhysical binds no parameters
		id = r.tr.begin("exec.ExecutePhysical", top, r.stmt)
		rows, _ := fw.ExecutePhysical(physical)
		r.tr.end(id)
		r.tr.spans[id-1].Rows = int64(len(rows))
	}
}

func countNodes(n rel.Node) int {
	c := 0
	rel.Walk(n, func(rel.Node) bool { c++; return true })
	return c
}

// scrape reads the registry's Prometheus exposition into name → value, summing
// the series of one name (the benchmark never needs a label).
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// minTracedOps is the least number of operations the traced pass records,
// however short its window: one full cycle of serve_mixed's 40-slot mix.
const minTracedOps = 40

// runTraced is the --trace 1 pass: a short untraced slice for the tracing
// overhead, the traced operations, the workload's probes, then the trace file.
func runTraced(wl *workload, seed int64, seconds float64, scale int, outDir string) (*result, error) {
	p, err := prepare(wl, seed, scale)
	if err != nil {
		return nil, err
	}
	// One client: Framework.LastPlanner and the newest-trace lookup are only
	// safe to read when nothing else is executing.
	p.ops, p.next = p.ops[:1], p.next[:1]
	p.warmup(scale)
	untraced := p.measure(seconds / 4)
	pr := &probes{untracedP50Ms: median(latenciesMs(untraced.all()))}

	// The rotation workloads trace whole cycles, so their per-operation
	// counts are exact functions of the seed, not of where the clock stopped.
	r := &tracedRun{p: p, tr: newTracer()}
	wholeCycles := func() bool { return wl.minWarmupCycles == 0 || r.stmt%len(p.ops[0]) == 0 }
	for deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second))); time.Now().Before(deadline) || r.stmt < minTracedOps || !wholeCycles(); {
		r.step()
	}

	switch wl {
	case analyticScan:
		pr.serialExecUs, err = probeSerial(p)
	case spillGoverned:
		if pr.unlimitedExecP50Us, err = probeUnlimited(p); err == nil {
			pr.encodeMBs, pr.decodeMBs, err = probeCodec(seed)
		}
	case streamWindow:
		pr.streamStateKB, err = probeStreamState(p)
	case federatedJob:
		pr.pushedOpsShare, pr.scanUsPerKrow, err = probeFederated(p)
	case serveMixed:
		pr.admissionWaitUs, pr.rejectedShare = probeAdmission(p)
		pr.snapshotRebuildMs, err = probeSnapshotRebuild(p.data.(*serveData))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: probe: %w", wl.name, err)
	}
	p.finish()
	if err := r.tr.write(outDir, wl.name, seed, r.stmt); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return &result{Correct: p.failed == 0, Attempted: p.done, Failed: p.failed, Metrics: perLayer(r.ops, pr)}, nil
}
