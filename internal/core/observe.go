package core

// Observability wiring: the Framework owns one obs.Engine (metrics registry
// + trace retention + slow-query log) and registers function-backed
// instruments over the subsystems that keep their own atomic counters (the
// memory pool and the worker pool), so the hot paths never touch the
// registry.

import (
	"io"
	"time"

	"calcite/internal/exec"
	"calcite/internal/obs"
	"calcite/internal/schema"
)

// Obs returns the framework's observability engine, creating it on first
// use with the subsystem metrics registered and the configured slow-query
// threshold applied.
func (f *Framework) Obs() *obs.Engine {
	f.obsMu.Lock()
	defer f.obsMu.Unlock()
	if f.obsEng == nil {
		f.obsEng = obs.NewEngine()
		f.obsEng.SetSlowQuery(f.SlowQueryThreshold, f.SlowQueryLog)
		f.registerSubsystemMetrics(f.obsEng.Registry)
	}
	return f.obsEng
}

// SetSlowQuery updates the slow-query threshold and log sink, on the live
// engine if one exists.
func (f *Framework) SetSlowQuery(threshold time.Duration, w io.Writer) {
	f.SlowQueryThreshold = threshold
	f.SlowQueryLog = w
	f.obsMu.Lock()
	eng := f.obsEng
	f.obsMu.Unlock()
	eng.SetSlowQuery(threshold, w)
}

// registerSubsystemMetrics exposes the memory governor and the worker pool
// through function-backed instruments sampled at scrape time.
func (f *Framework) registerSubsystemMetrics(r *obs.Registry) {
	mp := f.MemoryPool()
	r.GaugeFunc("calcite_memory_pool_limit_bytes",
		"Configured framework-wide memory budget (0 = unlimited).",
		func() float64 { return float64(mp.Limit()) })
	r.GaugeFunc("calcite_memory_pool_used_bytes",
		"Bytes currently reserved by running queries.",
		func() float64 { return float64(mp.Used()) })
	r.CounterFunc("calcite_memory_granted_bytes_total",
		"Bytes granted by the memory pool.",
		func() int64 { return mp.Counters().GrantedBytes })
	r.CounterFunc("calcite_memory_denied_bytes_total",
		"Bytes refused because they would exceed the pool limit.",
		func() int64 { return mp.Counters().DeniedBytes })
	r.CounterFunc("calcite_memory_denials_total",
		"Grant requests refused by the memory pool.",
		func() int64 { return mp.Counters().Denials })
	r.CounterFunc("calcite_memory_released_bytes_total",
		"Bytes returned to the memory pool.",
		func() int64 { return mp.Counters().ReleasedBytes })
	r.CounterFunc("calcite_spill_events_total",
		"Operator decisions to overflow state to disk.",
		func() int64 { return mp.Counters().SpillEvents })
	r.CounterFunc("calcite_spill_bytes_total",
		"Bytes written to spill files.",
		func() int64 { return mp.Counters().SpillBytes })
	r.CounterFunc("calcite_spill_files_total",
		"Spill files created.",
		func() int64 { return mp.Counters().SpillFiles })

	pc := f.PlanCache()
	r.GaugeFunc("calcite_plan_cache_entries",
		"Optimized plans currently cached.",
		func() float64 { return float64(pc.Len()) })
	r.CounterFunc("calcite_plan_cache_hits_total",
		"Statements that reused a cached plan (skipped parse+optimize).",
		func() int64 { return pc.Counters().Hits })
	r.CounterFunc("calcite_plan_cache_misses_total",
		"Statements that planned from scratch.",
		func() int64 { return pc.Counters().Misses })
	r.CounterFunc("calcite_plan_cache_evictions_total",
		"Cached plans evicted by the LRU size cap.",
		func() int64 { return pc.Counters().Evictions })
	r.CounterFunc("calcite_plan_cache_invalidations_total",
		"Whole-cache flushes (DDL, adapter/table/lattice registration, planner switches).",
		func() int64 { return pc.Counters().Invalidations })
	r.CounterFunc("calcite_plan_cache_table_invalidations_total",
		"Cached plans evicted because a table they scan got new statistics (ANALYZE, or it doubled).",
		func() int64 { return pc.Counters().TableEvictions })
	r.CounterFunc("calcite_memtable_rows_appended_total",
		"Rows appended to in-memory tables (process-wide).",
		schema.MemTableRowsAppended)
	r.CounterFunc("calcite_plan_cache_feedback_evictions_total",
		"Targeted evictions requested by the cardinality-feedback loop.",
		func() int64 { return pc.Counters().FeedbackEvictions })

	fb := f.Feedback()
	fb.SetObserver(r.Histogram("calcite_plan_qerror",
		"Per-operator estimation error (q-error) of harvested executions.",
		[]float64{1, 1.5, 2, 4, 8, 16, 32, 64, 128, 256}).Observe)
	r.GaugeFunc("calcite_plan_qerror_max",
		"Worst per-operator q-error observed since the last invalidation.",
		fb.WorstQError)
	r.GaugeFunc("calcite_feedback_fingerprints",
		"Statement fingerprints tracked by the feedback store.",
		func() float64 { fps, _ := fb.Size(); return float64(fps) })
	r.GaugeFunc("calcite_feedback_corrections",
		"Operator shapes with an active cardinality correction.",
		func() float64 { _, ops := fb.Size(); return float64(ops) })
	r.CounterFunc("calcite_feedback_harvests_total",
		"Finished traces folded into the feedback store.",
		func() int64 { return fb.Counters().Harvests })
	r.CounterFunc("calcite_feedback_samples_total",
		"Per-operator actual-vs-estimate observations harvested.",
		func() int64 { return fb.Counters().Samples })
	r.CounterFunc("calcite_feedback_corrections_total",
		"Corrected row counts served to planning sessions.",
		func() int64 { return fb.Counters().Corrections })
	r.CounterFunc("calcite_feedback_replans_total",
		"Re-planning requests (estimation error past the replan threshold).",
		func() int64 { return fb.Counters().Replans })
	r.CounterFunc("calcite_feedback_build_overshoots_total",
		"Hash-join build sides that overshot their estimate past the swap threshold.",
		func() int64 { return fb.Counters().BuildOvershoots })
	r.CounterFunc("calcite_feedback_swaps_total",
		"Build/probe swaps applied by the adaptive re-planner.",
		func() int64 { return fb.Counters().SwapsApplied })
	r.CounterFunc("calcite_feedback_invalidations_total",
		"Feedback-store flushes (shared with the plan cache's whole-cache flushes).",
		func() int64 { return fb.Counters().Invalidations })

	wp := f.WorkerPool()
	r.GaugeFunc("calcite_workers_busy",
		"Worker goroutines currently executing a task.",
		func() float64 { return float64(wp.Busy()) })
	r.GaugeFunc("calcite_workers_parallelism",
		"Configured degree of parallelism.",
		func() float64 { return float64(wp.Parallelism()) })
	r.CounterFunc("calcite_worker_tasks_total",
		"Tasks completed by pool workers.",
		func() int64 { return wp.TasksDone() })
	r.CounterFunc("calcite_worker_spawns_total",
		"Worker goroutines started (task arrived with no idle resident).",
		func() int64 { s, _ := wp.Stats(); return s })
	r.CounterFunc("calcite_worker_handoffs_total",
		"Tasks handed to an already-resident idle worker.",
		func() int64 { _, h := wp.Stats(); return h })
	r.CounterFunc("calcite_morsels_dispatched_total",
		"Scan morsels claimed by workers.",
		func() int64 { return wp.MorselsDispatched() })

	// Streaming: the continuous-query operators keep package-level atomics
	// (hot-path friendly); the registry samples them at scrape time.
	r.CounterFunc("calcite_stream_rows_total",
		"Events ingested by streaming aggregation operators.",
		exec.StreamRowsIn)
	r.CounterFunc("calcite_stream_windows_emitted_total",
		"Windows emitted by streaming aggregation operators.",
		exec.StreamWindowsEmitted)
	r.CounterFunc("calcite_stream_late_events_total",
		"Events dropped because they arrived behind the watermark.",
		exec.StreamLateDropped)
	r.GaugeFunc("calcite_stream_state_bytes",
		"Bytes of standing window state held by live streaming queries.",
		func() float64 { return float64(exec.StreamStateBytes()) })
	exec.SetStreamEmitObserver(r.Histogram("calcite_stream_emit_seconds",
		"Time to fold a stream batch and emit the windows its watermark closes.",
		[]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}).Observe)
}
