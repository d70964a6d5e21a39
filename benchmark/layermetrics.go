package main

// Per-layer metrics: definitions, the probes that need a second instance or a
// direct call into a layer, and the arithmetic from traced operations to the
// reported numbers. Every metric is emitted on every workload; a layer that a
// workload does not touch reports 0.

import (
	"bufio"
	"bytes"
	"math/rand"
	"strings"
	"time"

	"calcite"
	"calcite/internal/memory"
	"calcite/internal/rel"
	"calcite/internal/schema"
)

type metricDef struct {
	name, unit, better string
}

// analyticClasses and serveClasses are the per-class latency metrics.
var (
	analyticClasses = []string{"filter", "project", "join2", "star5", "agg_int", "agg_str", "topn", "window", "sort", "joinbig", "agg_wide"}
	serveClasses    = []string{"point", "star", "sort", "dash", "insert"}
	adapterKinds    = []string{"sqldb", "splunk", "cassandra", "mongo"}
)

// perLayerDefs lists every per-layer metric, in README order.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"parser.parse_us_p50", "us", "lower"},
		{"parser.parse_alloc_kb", "KiB", "lower"},
		{"sql2rel.convert_us_p50", "us", "lower"},
		{"sql2rel.logical_nodes_p50", "count", "lower"},
		{"plan.optimize_us_p50", "us", "lower"},
		{"plan.optimize_us_p95", "us", "lower"},
		{"plan.hep_fired_per_op", "count", "lower"},
		{"plan.volcano_fired_per_op", "count", "lower"},
		{"plan.volcano_rounds_per_op", "count", "lower"},
		{"plan.physical_nodes_p50", "count", "lower"},
		{"meta.calls_per_op", "count", "lower"},
		{"plan.share_of_latency", "ratio", "lower"},
		{"core.plancache_hit_share", "ratio", "higher"},
		{"core.plancache_invalidations_per_kop", "count", "lower"},
		{"exec.run_us_p50", "us", "lower"},
		{"exec.run_us_p95", "us", "lower"},
	}
	for _, c := range opCategories {
		defs = append(defs, metricDef{"exec.self_share." + c, "ratio", "lower"})
	}
	for _, c := range analyticClasses {
		defs = append(defs, metricDef{"exec.class_ms_p50." + c, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"exec.rows_scanned_per_row_out", "ratio", "lower"},
		metricDef{"parallel.speedup_vs_serial", "ratio", "higher"},
		metricDef{"parallel.tasks_per_op", "count", "lower"},
		metricDef{"parallel.morsels_per_op", "count", "lower"},
		metricDef{"parallel.spawns_per_op", "count", "lower"},
		metricDef{"memory.spilled_kb_per_op", "KiB", "lower"},
		metricDef{"memory.spill_events_per_op", "count", "lower"},
		metricDef{"memory.peak_kb_p50", "KiB", "lower"},
		metricDef{"memory.denied_per_op", "count", "lower"},
		metricDef{"memory.codec_encode_mb_per_s", "MiB/s", "higher"},
		metricDef{"memory.codec_decode_mb_per_s", "MiB/s", "higher"},
		metricDef{"memory.spill_slowdown", "ratio", "lower"},
		metricDef{"schema.snapshot_rebuild_ms_p50", "ms", "lower"},
		metricDef{"adapter.rows_shipped_per_op", "count", "lower"},
		metricDef{"adapter.requests_per_op", "count", "lower"},
		metricDef{"adapter.rows_shipped_per_row_out", "ratio", "lower"},
		metricDef{"adapter.pushed_ops_share", "ratio", "higher"},
	)
	for _, k := range adapterKinds {
		defs = append(defs, metricDef{"adapter.scan_us_per_krow." + k, "us", "lower"})
	}
	defs = append(defs,
		metricDef{"feedback.max_qerror_p50", "ratio", "lower"},
		metricDef{"feedback.max_qerror_p95", "ratio", "lower"},
		metricDef{"feedback.replans_per_kop", "count", "lower"},
		metricDef{"stream.windows_emitted_per_op", "count", "higher"},
		metricDef{"stream.late_dropped_per_op", "count", "lower"},
		metricDef{"stream.state_kb_peak", "KiB", "lower"},
		metricDef{"avatica.wire_overhead_us_p50", "us", "lower"},
		metricDef{"avatica.admission_wait_us_mean", "us", "lower"},
		metricDef{"avatica.rejected_share", "ratio", "lower"},
		metricDef{"avatica.fetch_frames_per_op", "count", "lower"},
		metricDef{"avatica.write_latency_p95_ms", "ms", "lower"},
	)
	for _, c := range serveClasses {
		defs = append(defs, metricDef{"avatica.class_ms_p50." + c, "ms", "lower"})
	}
	return append(defs, metricDef{"obs.trace_overhead_share", "ratio", "lower"})
}

// endToEndDefs lists the end-to-end metrics with the share of the parent's
// median by which each may worsen before a change counts as a regression.
var endToEndDefs = []struct {
	metricDef
	bound float64
}{
	{metricDef{"setup_s", "s", "lower"}, 0.25},
	{metricDef{"ops_per_s", "1/s", "higher"}, 0.25},
	{metricDef{"input_rows_per_s", "rows/s", "higher"}, 0.25},
	{metricDef{"latency_p50_ms", "ms", "lower"}, 0.25},
	{metricDef{"latency_p95_ms", "ms", "lower"}, 0.25},
	{metricDef{"cpu_ms_per_op", "ms", "lower"}, 0.25},
	{metricDef{"alloc_kb_per_op", "KiB", "lower"}, 0.10},
	{metricDef{"peak_rss_mb", "MiB", "lower"}, 0.25},
}

// probes holds the numbers that need more than the traced operations.
type probes struct {
	untracedP50Ms        float64 // same process, same operations, no spans
	serialExecUs         map[string]float64
	unlimitedExecP50Us   float64
	encodeMBs, decodeMBs float64
	snapshotRebuildMs    float64
	pushedOpsShare       float64
	scanUsPerKrow        map[string]float64
	admissionWaitUs      float64
	streamStateKB        float64
	rejectedShare        float64
}

func vals(ops []tracedOp, keep func(*tracedOp) bool, f func(*tracedOp) float64) []float64 {
	var out []float64
	for i := range ops {
		if keep == nil || keep(&ops[i]) {
			out = append(out, f(&ops[i]))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns the traced operations and probes into the reported metrics.
func perLayer(ops []tracedOp, pr *probes) map[string]metric {
	n := float64(len(ops))
	all := func(f func(*tracedOp) float64) []float64 { return vals(ops, nil, f) }
	dis := func(f func(*tracedOp) float64) []float64 {
		return vals(ops, func(o *tracedOp) bool { return o.dissected }, f)
	}
	perOp := func(f func(*tracedOp) float64) float64 { return ratio(sum(all(f)), n) }
	perDissected := func(f func(*tracedOp) float64) float64 {
		d := dis(f)
		return ratio(sum(d), float64(len(d)))
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	m := map[string]float64{
		"parser.parse_us_p50":        median(dis(func(o *tracedOp) float64 { return us(o.parseNs) })),
		"parser.parse_alloc_kb":      median(dis(func(o *tracedOp) float64 { return float64(o.parseAllocB) / 1024 })),
		"sql2rel.convert_us_p50":     median(dis(func(o *tracedOp) float64 { return us(o.convertNs) })),
		"sql2rel.logical_nodes_p50":  median(dis(func(o *tracedOp) float64 { return float64(o.logicalNodes) })),
		"plan.optimize_us_p50":       median(dis(func(o *tracedOp) float64 { return us(o.optimizeNs) })),
		"plan.optimize_us_p95":       quantile(dis(func(o *tracedOp) float64 { return us(o.optimizeNs) }), 0.95),
		"plan.hep_fired_per_op":      perDissected(func(o *tracedOp) float64 { return float64(o.hepFired) }),
		"plan.volcano_fired_per_op":  perDissected(func(o *tracedOp) float64 { return float64(o.volcanoFired) }),
		"plan.volcano_rounds_per_op": perDissected(func(o *tracedOp) float64 { return float64(o.volcanoRounds) }),
		"plan.physical_nodes_p50":    median(dis(func(o *tracedOp) float64 { return float64(o.physicalNodes) })),
		"meta.calls_per_op":          perDissected(func(o *tracedOp) float64 { return float64(o.metaCalls) }),
		// (parse + convert + optimize of the misses) / (latency of everything).
		// Convert and optimize are the engine's own stage timers for the real
		// execution; it does not time parsing, so that comes from the replay.
		"plan.share_of_latency": ratio(
			sum(all(func(o *tracedOp) float64 { return float64(o.parseNs + o.enginePlanNs) })),
			sum(all(func(o *tracedOp) float64 { return float64(o.latencyNs) }))),
		"core.plancache_hit_share": ratio(
			sum(all(func(o *tracedOp) float64 { return float64(o.delta.hits) })),
			sum(all(func(o *tracedOp) float64 { return float64(o.delta.hits + o.delta.misses) }))),
		"core.plancache_invalidations_per_kop": 1000 * perOp(func(o *tracedOp) float64 { return float64(o.delta.invalidations) }),
		"exec.run_us_p50":                      median(all(func(o *tracedOp) float64 { return us(o.execNs) })),
		"exec.run_us_p95":                      quantile(all(func(o *tracedOp) float64 { return us(o.execNs) }), 0.95),
		"exec.rows_scanned_per_row_out": ratio(
			sum(all(func(o *tracedOp) float64 { return float64(o.rowsScanned) })),
			sum(all(func(o *tracedOp) float64 { return float64(o.rowsOut) }))),
		"parallel.tasks_per_op":       perOp(func(o *tracedOp) float64 { return float64(o.delta.tasks) }),
		"parallel.morsels_per_op":     perOp(func(o *tracedOp) float64 { return float64(o.delta.morsels) }),
		"parallel.spawns_per_op":      perOp(func(o *tracedOp) float64 { return float64(o.delta.spawns) }),
		"memory.spilled_kb_per_op":    perOp(func(o *tracedOp) float64 { return float64(o.spilledBytes) / 1024 }),
		"memory.spill_events_per_op":  perOp(func(o *tracedOp) float64 { return float64(o.delta.spillEvents) }),
		"memory.peak_kb_p50":          median(all(func(o *tracedOp) float64 { return float64(o.peakBytes) / 1024 })),
		"memory.denied_per_op":        perOp(func(o *tracedOp) float64 { return float64(o.delta.denials) }),
		"adapter.rows_shipped_per_op": perOp(func(o *tracedOp) float64 { return float64(o.shipped) }),
		"adapter.requests_per_op":     perOp(func(o *tracedOp) float64 { return float64(o.delta.requests) }),
		"adapter.rows_shipped_per_row_out": ratio(
			sum(all(func(o *tracedOp) float64 { return float64(o.shipped) })),
			sum(all(func(o *tracedOp) float64 { return float64(o.rowsOut) }))),
		"feedback.max_qerror_p50":       median(all(func(o *tracedOp) float64 { return o.maxQError })),
		"feedback.max_qerror_p95":       quantile(all(func(o *tracedOp) float64 { return o.maxQError }), 0.95),
		"feedback.replans_per_kop":      1000 * perOp(func(o *tracedOp) float64 { return float64(o.delta.replans) }),
		"stream.windows_emitted_per_op": perOp(func(o *tracedOp) float64 { return float64(o.delta.windows) }),
		"stream.late_dropped_per_op":    perOp(func(o *tracedOp) float64 { return float64(o.delta.late) }),
		"avatica.fetch_frames_per_op":   perOp(func(o *tracedOp) float64 { return float64(o.fetchFrames) }),
	}

	var selfTotal float64
	selfBy := map[string]float64{}
	for i := range ops {
		for cat, ns := range ops[i].selfNs {
			selfBy[cat] += float64(ns)
			selfTotal += float64(ns)
		}
	}
	for _, c := range opCategories {
		m["exec.self_share."+c] = ratio(selfBy[c], selfTotal)
	}
	m["stream.state_kb_peak"] = pr.streamStateKB

	classMs := func(class string) float64 {
		return median(vals(ops, func(o *tracedOp) bool { return o.op.class == class },
			func(o *tracedOp) float64 { return float64(o.latencyNs) / 1e6 }))
	}
	// "sort" is a class of both families, so only the family the workload
	// belongs to is filled in; the other reports 0.
	prefix, classes := "exec.class_ms_p50.", analyticClasses
	if len(ops) > 0 && ops[0].executeNs > 0 {
		prefix, classes = "avatica.class_ms_p50.", serveClasses
	}
	for _, c := range classes {
		m[prefix+c] = classMs(c)
	}
	m["avatica.write_latency_p95_ms"] = quantile(vals(ops, func(o *tracedOp) bool { return o.op.write },
		func(o *tracedOp) float64 { return float64(o.latencyNs) / 1e6 }), 0.95)
	// Client-seen /execute round trip minus the server's own total for the
	// same statement, on the point lookups.
	m["avatica.wire_overhead_us_p50"] = median(vals(ops,
		func(o *tracedOp) bool { return o.executeNs > 0 && o.op.class == "point" && o.serverTotalNs > 0 },
		func(o *tracedOp) float64 { return us(o.executeNs - o.serverTotalNs) }))

	// parallel.speedup_vs_serial: summed per-class median exec time of the
	// serial rerun over the same sum at default parallelism.
	var serial, dflt float64
	for class, s := range pr.serialExecUs {
		serial += s
		dflt += median(vals(ops, func(o *tracedOp) bool { return o.op.class == class },
			func(o *tracedOp) float64 { return us(o.execNs) }))
	}
	m["parallel.speedup_vs_serial"] = ratio(serial, dflt)
	m["memory.spill_slowdown"] = ratio(m["exec.run_us_p50"], pr.unlimitedExecP50Us)
	m["memory.codec_encode_mb_per_s"] = pr.encodeMBs
	m["memory.codec_decode_mb_per_s"] = pr.decodeMBs
	m["schema.snapshot_rebuild_ms_p50"] = pr.snapshotRebuildMs
	m["adapter.pushed_ops_share"] = pr.pushedOpsShare
	for _, k := range adapterKinds {
		m["adapter.scan_us_per_krow."+k] = pr.scanUsPerKrow[k]
	}
	m["avatica.admission_wait_us_mean"] = pr.admissionWaitUs
	m["avatica.rejected_share"] = pr.rejectedShare
	tracedP50 := median(all(func(o *tracedOp) float64 { return float64(o.latencyNs) / 1e6 }))
	m["obs.trace_overhead_share"] = ratio(tracedP50-pr.untracedP50Ms, pr.untracedP50Ms)

	out := map[string]metric{}
	for _, d := range perLayerDefs() {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}

// execUsByClass runs the operation list cycles times on sys and returns each
// class's median engine-reported execution time.
func execUsByClass(sys *system, ops []*op, cycles int) (map[string]float64, error) {
	by := map[string][]float64{}
	for c := 0; c < cycles; c++ {
		for _, o := range ops {
			if err := sys.run(0, o); err != nil {
				return nil, err
			}
			if snap := engineTrace(sys.conn, o.sql); snap != nil && c > 0 { // cycle 0 plans
				by[o.class] = append(by[o.class], float64(snap.ExecNs)/1e3)
			}
		}
	}
	out := map[string]float64{}
	for class, xs := range by {
		out[class] = median(xs)
	}
	return out, nil
}

// probeCycles is how often a probe instance runs the rotation (the first
// cycle plans and is not counted).
const probeCycles = 4

// probeSerial reruns analytic_scan's rotation at parallelism 1.
func probeSerial(p *prepared) (map[string]float64, error) {
	sys, err := buildRetail(func(c *calcite.Connection, _ *retail) { c.SetParallelism(1) })(p.data)
	if err != nil {
		return nil, err
	}
	return execUsByClass(sys, p.ops[0], probeCycles)
}

// probeUnlimited reruns spill_governed's rotation on its own data with the
// memory limit lifted.
func probeUnlimited(p *prepared) (float64, error) {
	sys, err := buildRetail(func(c *calcite.Connection, _ *retail) { serialGoverned(c) })(p.data)
	if err != nil {
		return 0, err
	}
	by, err := execUsByClass(sys, p.ops[0], probeCycles)
	if err != nil {
		return 0, err
	}
	var xs []float64
	for _, o := range p.ops[0] { // weight classes as the rotation does
		xs = append(xs, by[o.class])
	}
	return median(xs), nil
}

// probeCodec times memory.EncodeBatch/DecodeBatch on one generated
// 4096-row typed batch.
func probeCodec(seed int64) (encodeMBs, decodeMBs float64, err error) {
	r := genRetail(rand.New(rand.NewSource(seed)), retailSizes{sales: 4096, customers: 400, products: 160, stores: 16, dates: 360})
	batch := schema.BatchFromRows(r.sales.rows, len(r.sales.cols))
	var buf bytes.Buffer
	const rounds = 40
	start := time.Now()
	for i := 0; i < rounds; i++ {
		buf.Reset()
		w := bufio.NewWriter(&buf)
		if err := memory.EncodeBatch(w, batch); err != nil {
			return 0, 0, err
		}
		if err := w.Flush(); err != nil {
			return 0, 0, err
		}
	}
	enc := time.Since(start)
	encoded := buf.Bytes()
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := memory.DecodeBatch(bufio.NewReader(bytes.NewReader(encoded))); err != nil {
			return 0, 0, err
		}
	}
	dec := time.Since(start)
	mib := float64(len(encoded)) * rounds / (1 << 20)
	return mib / enc.Seconds(), mib / dec.Seconds(), nil
}

// probeSnapshotRebuild times the first MemTable.ScanBatches after an Insert
// on a copy of the fact table: the columnar snapshot has to be rebuilt.
func probeSnapshotRebuild(d *serveData) (float64, error) {
	t := schema.NewMemTable("sales_copy", rowType(d.sales), append([][]any(nil), d.sales.rows...))
	if _, err := t.ScanBatches(0); err != nil { // build the first snapshot
		return 0, err
	}
	var ms []float64
	for i := 0; i < 7; i++ {
		row := append([]any(nil), d.sales.rows[i]...)
		if err := t.Insert([][]any{row}); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := t.ScanBatches(0); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// probeFederated measures the share of pushable operators that the optimized
// plans place inside an adapter convention, and a full scan through each
// adapter table.
func probeFederated(p *prepared) (pushed float64, scan map[string]float64, err error) {
	conn := p.sys.conn
	var inAdapter, total float64
	seen := map[string]bool{}
	for _, o := range p.ops[0] {
		if seen[o.sql] {
			continue
		}
		seen[o.sql] = true
		_, optimized, err := conn.Plan(o.sql)
		if err != nil {
			return 0, nil, err
		}
		rel.Walk(optimized, func(n rel.Node) bool {
			for _, kind := range []string{"Filter", "Project", "Sort", "Limit", "Aggregate"} {
				if strings.Contains(n.Op(), kind) {
					total++
					if isAdapterOp(n.Op()) {
						inAdapter++
					}
					break
				}
			}
			return true
		})
	}
	scan = map[string]float64{}
	for kind, path := range map[string][]string{
		"sqldb": {"pg", "title"}, "splunk": {"splunk", "cast_info"},
		"cassandra": {"cass", "movie_info"}, "mongo": {"mongo_raw", "movie_companies"},
	} {
		tab, _, err := schema.Resolve(conn.Framework.Catalog, path)
		if err != nil {
			return 0, nil, err
		}
		var best float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			cur, err := tab.(schema.ScannableTable).Scan()
			if err != nil {
				return 0, nil, err
			}
			rows := 0
			for {
				if _, err := cur.Next(); err != nil {
					break
				}
				rows++
			}
			cur.Close()
			if us := float64(time.Since(start)) / 1e3 / (float64(rows) / 1000); best == 0 || us < best {
				best = us
			}
		}
		scan[kind] = best
	}
	return ratio(inAdapter, total), scan, nil
}

// probeStreamState runs each continuous query once on a serial instance with
// a budget too large to ever bind. The engine accounts standing window state
// only under a budget; there the largest per-query peak reservation is the
// state the query holds, and it repeats exactly for a seed.
func probeStreamState(p *prepared) (float64, error) {
	sys, err := buildStream(p.data)
	if err != nil {
		return 0, err
	}
	serialGoverned(sys.conn)
	sys.conn.SetQueryMemoryLimit(1 << 40)
	var peak int64
	for _, o := range p.ops[0] {
		if err := sys.run(0, o); err != nil {
			return 0, err
		}
		if snap := engineTrace(sys.conn, o.sql); snap != nil {
			peak = max(peak, snap.PeakBytes)
		}
	}
	return float64(peak) / 1024, nil
}

// probeAdmission reads the admission controller's counters from the registry.
func probeAdmission(p *prepared) (waitUs, rejected float64) {
	s := scrape(p.sys.conn.Obs().Registry)
	admitted, refused := s["calcite_admission_admitted_total"], s["calcite_admission_rejected_total"]
	return ratio(s["calcite_admission_wait_ns_total"]/1e3, admitted), ratio(refused, admitted+refused)
}
