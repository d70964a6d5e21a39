package main

// Committed input sizes. They were tuned once, on a 2-core machine, so that
// each workload completes well over 220 operations in its measured window,
// and are never scaled at run time: the parent commit and a change always see
// identical inputs. (-quick divides them by 50 for the tests.)
const (
	// runSeconds is the measured window the manifest asks the driver for: the
	// longest that keeps the driver's 4 + 22 x 6 runs, each some 3-4 s longer
	// than its window, within its 3420 s with a sixth to spare.
	runSeconds = 16
	// quickScale divides every size (and the warm-up) in -quick mode.
	quickScale = 50

	// plan_adhoc: fact rows (every table has at most 100 rows) and the number
	// of distinct statements generated. A client cycles through the list; it
	// is far larger than the plan cache (256 entries, LRU), so even a second
	// pass misses on every statement.
	adhocSales      = 100
	adhocStatements = 8000

	// analytic_scan: fact rows; customers = 1/10, products = 1/25, stores =
	// 1/250 of it.
	analyticSales = 50000
	// spill_governed: fact rows, and the per-query memory limit. The limit is
	// a quarter of the working set — the largest per-query peak reservation
	// (TraceSnapshot.PeakBytes) of the spill rotation run with the limit
	// lifted, measured once at the default seed: see baseline/README.md.
	spillSales            = 12000
	spillQueryMemoryLimit = 1093985

	// federated_job: rows per backend table.
	fedTitles      = 5000  // sqldb
	fedCompanies   = 5000  // sqldb
	fedCastEvents  = 50000 // splunk
	fedInfoRows    = 30000 // cassandra
	fedCompanyDocs = 5000  // mongo

	// stream_window: events, distinct keys, mean gap between events and the
	// replay skew (event time by which an event may arrive late).
	streamEvents    = 12000
	streamKeys      = 1000
	streamMeanGapMs = 4
	streamSkewMs    = 2000

	// serve_mixed: fact rows, wire clients (= nproc of the reference machine),
	// each tenant's memory budget, the /fetch frame size, the width in dates
	// of the paginated sort's range (about 140 fact rows per date), and how
	// many shuffled copies of the 40-slot mix make up a client's list.
	serveSales             = 20000
	serveClients           = 2
	serveTenantMemoryLimit = 256 << 20
	serveFetchSize         = 256
	serveSortDates         = 8
	serveStarDates         = 30
	serveDashDates         = 90
	serveCycles            = 50

	// warmupCycles is how many times the rotation workloads run their whole
	// statement list before measuring: the first run plans, and the feedback
	// loop may re-plan a drifted statement up to five more times.
	warmupCycles = 7
)

// Rotations. Classes repeat so that neither the median nor the 95th
// percentile of the latency mixture falls on the boundary between two
// classes, where it would flip from run to run. In spillRotation the two
// dearest statements (agg_wide, window) are a tenth of the operations, so the
// 95th percentile lies in the middle of their latencies, not in their tail.
var (
	analyticRotation = []string{"filter", "project", "agg_int", "join2", "project", "star5", "agg_str", "filter", "project", "topn", "agg_str", "join2", "project", "window"}
	spillRotation    = []string{
		"sort", "joinbig", "sort", "joinbig", "sort", "agg_wide", "joinbig", "sort", "joinbig", "sort",
		"joinbig", "sort", "joinbig", "sort", "joinbig", "window", "sort", "joinbig", "sort", "joinbig",
	}
)
