// Package feedback closes the loop between execution traces and the
// optimizer: every finished query trace carries actual per-operator row
// counts (PR 7), and this package harvests them into a cardinality-feedback
// store keyed by plan fingerprint and stable operator path id. The store
// (1) quantifies estimation error as q-error — max(est/actual, actual/est) —
// for the plan-quality metrics and the /debug/plans report, (2) feeds
// bounded, exponentially-smoothed corrections back into the metadata layer
// as a meta.Provider so repeated executions of the same statement converge
// toward observed cardinalities, and (3) records hash-join build-side
// overshoots so the next planning of the statement can swap build and probe
// sides. The store invalidates alongside the plan cache: everything on DDL
// (Invalidate); when one table gets fresh statistics, the records and replan
// budgets of the statements scanning it (InvalidateTable). INSERT invalidates
// nothing; the smoothed corrections follow a growing table on their own.
//
// Corrections are keyed by the canonical logical digest of the operator
// subtree (NodeKey), not by path: the join-order enumeration explores plan
// shapes that have no runtime path, while a scan or pushed-down filter keeps
// the same digest across every join order — exactly the operators whose
// corrected cardinality steers the enumeration. An operator over a dynamic
// parameter is the exception: its digest is the same for every binding (and
// every statement with that placeholder text) while its row count is not, so
// it is measured and reported but neither corrected nor re-planned on.
//
// The two maps that grow with every new statement are bounded, so a stream
// of ad-hoc statements holds memory set by the caps, not by its history: the
// per-statement records (one per fingerprint, the /debug/plans rows) keep
// StatementCap = 256 statements, the plan cache's capacity
// (core.DefaultPlanCacheSize is defined as StatementCap), and the row-count
// corrections (one per operator shape) CorrectionCap = 16 × StatementCap.
// Past its cap a map drops its least recently touched entries — touched
// meaning harvested, or for a statement also a recorded build overshoot —
// down to three quarters of the cap; reads do not touch. Swap preferences and
// join selectivities grow with the schema's join shapes, not the statement
// stream, and are not bounded.
package feedback

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"calcite/internal/meta"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
	"calcite/internal/schema"
)

// Capacities of the store's statement records and row-count corrections.
const (
	StatementCap  = 256
	CorrectionCap = 16 * StatementCap
)

// Tuning of the store's smoothing, bounding and reaction thresholds.
const (
	// alpha is the EWMA weight of the newest observation (0 < alpha <= 1).
	alpha = 0.5
	// maxRatio bounds a correction relative to the optimizer's estimate:
	// the corrected row count stays within [est/maxRatio, est*maxRatio].
	maxRatio = 64
	// replanQError is the per-operator q-error at which a harvest requests
	// re-planning of the statement (its cached plan is evicted). It is set
	// well above the drift-marker threshold: a mild drift rarely changes the
	// plan choice, and parameterized statements legitimately vary between
	// bindings — evicting them would defeat the prepared-plan cache.
	replanQError = 4
	// maxReplans bounds re-planning requests per statement fingerprint
	// (until the next invalidation): a statement whose cardinality genuinely
	// varies between executions must not evict its cached plan forever.
	maxReplans = 5
	// overshootFactor is the build-actual/estimate ratio at which a hash
	// join's build overshoot is recorded as a swap preference.
	overshootFactor = 4
	// overshootMinRows ignores overshoots below this build size (swapping a
	// few hundred rows is noise).
	overshootMinRows = 256
)

// OpEstimate is one operator's optimization-time estimate: its stable path
// id in the plan tree, its operator name, its canonical logical digest (the
// correction key), the estimated row count and — for joins whose condition
// resolves to base columns — the plan-shape-independent condition signature
// used to learn join selectivities. Bound marks an operator with a dynamic
// parameter somewhere in its subtree: its row count is a function of the
// values bound at execution, so it is measured and reported but teaches
// nothing (see Harvest).
type OpEstimate struct {
	Path    string
	Op      string
	Key     uint64
	Rows    float64
	JoinSig uint64
	Bound   bool
}

// PlanEstimates is the estimate table of one optimized plan, computed once
// at plan time and kept alongside the plan (plan cache entries carry it so
// cache hits stamp spans without re-planning).
type PlanEstimates struct {
	Fingerprint string
	ByPath      map[string]OpEstimate
	// Tables are the tables the plan scans (what InvalidateTable matches).
	Tables []schema.Table
}

// EstimatePlan walks an optimized physical plan assigning stable path ids
// ("0" for the root, parent+"."+childIndex below) and records each
// operator's estimated row count and correction key.
func EstimatePlan(fingerprint string, root rel.Node, rowCount func(rel.Node) float64) *PlanEstimates {
	pe := &PlanEstimates{Fingerprint: fingerprint, ByPath: map[string]OpEstimate{}, Tables: rel.ScannedTables(root)}
	keys := keyMemo{}
	if root == nil {
		return pe
	}
	rel.WalkPaths(root, func(n, _ rel.Node, path string) {
		e := OpEstimate{Path: path, Op: n.Op(), Rows: rowCount(n)}
		k := keys.of(n, nil, false)
		e.Key, e.Bound = k.key, k.bound
		if j, ok := rel.Unwrap(n).(*rel.Join); ok {
			e.JoinSig = conditionSignature(n, j.Condition)
		}
		pe.ByPath[path] = e
	})
	return pe
}

// PathRows flattens the table to path → estimated rows, the shape the span
// builder stamps onto the trace.
func (pe *PlanEstimates) PathRows() map[string]float64 {
	if pe == nil {
		return nil
	}
	out := make(map[string]float64, len(pe.ByPath))
	for p, e := range pe.ByPath {
		out[p] = e.Rows
	}
	return out
}

// NodeKey returns the canonical logical hash of the subtree rooted at n: each
// node is unwrapped to its logical prototype (rel.Wrapped) and its convention
// prefix stripped, so a logical join explored by the join-order enumeration
// and the enumerable hash join that executed it hash alike. A node's key
// hashes its operator and attributes with its inputs' keys.
func NodeKey(n rel.Node) uint64 {
	return keyMemo{}.of(n, nil, false).key
}

// opKey is a subtree's NodeKey and whether the subtree references a dynamic
// parameter.
type opKey struct {
	key   uint64
	bound bool
}

// keyMemo memoizes NodeKey for one plan walk, or for one planning session in
// the provider NewMetaQuery installs. A node's key hashes its own operator and
// attributes with its inputs' keys, so it costs the node, not its subtree.
type keyMemo map[rel.Node]opKey

// of returns n's key. d, when not nil, is the session's digest memo: it
// renders the attributes of nodes other than joins, and a key over a
// rel.Digests.Volatile subtree is not stored. A join's attributes are
// rendered into a stack buffer, the bytes of its Attrs string. A candidate's
// key (meta.Query.Candidate) is computed, not looked up or stored.
func (m keyMemo) of(n rel.Node, d *rel.Digests, candidate bool) opKey {
	if !candidate {
		if k, ok := m[n]; ok {
			return k
		}
	}
	u := rel.Unwrap(n)
	var buf [128]byte
	a := buf[:0]
	if j, ok := u.(*rel.Join); ok {
		a = rel.AppendJoinAttrs(a, j)
	} else if u == n && d != nil {
		a = append(a, d.Attrs(n)...)
	} else {
		a = append(a, u.Attrs()...)
	}
	h := uint64(fnvOffset)
	hashString(&h, strings.TrimPrefix(strings.TrimPrefix(u.Op(), "Logical"), "Enumerable"))
	hashString(&h, "{")
	hashString(&h, a)
	k := opKey{bound: refersToParam(a)}
	// Children come from the original node: Unwrap preserves inputs, and the
	// wrappers' own input lists are authoritative for the executed tree.
	for _, in := range n.Inputs() {
		ck := m.of(in, d, false)
		hashString(&h, "(")
		hashUint64(&h, ck.key)
		k.bound = k.bound || ck.bound
	}
	k.key = h
	if !candidate && (d == nil || !d.Volatile(n)) {
		m[n] = k
	}
	return k
}

// refersToParam reports whether an operator's attribute text contains a
// dynamic parameter ("?n" outside a quoted literal).
func refersToParam(attrs []byte) bool {
	quoted := false
	for i := 0; i+1 < len(attrs); i++ {
		switch c := attrs[i]; {
		case c == '\'':
			quoted = !quoted
		case c == '?' && !quoted && attrs[i+1] >= '0' && attrs[i+1] <= '9':
			return true
		}
	}
	return false
}

const fnvOffset = 14695981039346656037 // FNV-64a offset basis

// hashString folds s into the FNV-64a hash h.
func hashString[T string | []byte](h *uint64, s T) {
	for i := 0; i < len(s); i++ {
		*h ^= uint64(s[i])
		*h *= 1099511628211
	}
}

// hashUint64 folds v's eight bytes, low first, into h.
func hashUint64(h *uint64, v uint64) {
	for i := 0; i < 64; i += 8 {
		*h = (*h ^ v>>i&0xff) * 1099511628211
	}
}

// columnOrigin hashes "schema.table#ordinal", the base-table column that
// output column col of n originates from (meta.ColumnOrigin), as the name
// would be written, without building it.
func columnOrigin(n rel.Node, col int) (uint64, bool) {
	scan, col, ok := meta.ColumnOrigin(n, col)
	if !ok {
		return 0, false
	}
	h := uint64(fnvOffset)
	for i, part := range scan.QualifiedName {
		if i > 0 {
			hashString(&h, ".")
		}
		hashString(&h, part)
	}
	var digits [20]byte
	hashString(&h, strconv.AppendInt(append(digits[:0], '#'), int64(col), 10))
	return h, true
}

// conditionSignature canonicalizes a join condition into a plan-shape-
// independent hash: every conjunct must be an equality of two column refs
// that both resolve to base-table columns (columnOrigin); each conjunct
// hashes its two sides in order of their hashes, and the signature hashes
// the sorted conjunct hashes. So two conditions share a signature when they
// equate the same multiset of base-column pairs — "sales.fk2 = d2.k2" keeps
// it in every join order, which is what lets a selectivity observed under
// one order price the orders the optimizer has not executed yet. Returns 0
// when any conjunct fails to resolve.
func conditionSignature(n rel.Node, condition rex.Node) uint64 {
	if condition == nil || rex.IsAlwaysTrue(condition) {
		return 0
	}
	var buf [8]uint64
	var terms [4]rex.Node
	parts := buf[:0]
	for _, term := range rex.AppendConjuncts(terms[:0], condition) {
		c, ok := term.(*rex.Call)
		if !ok || c.Op != rex.OpEquals || len(c.Operands) != 2 {
			return 0
		}
		a, aok := c.Operands[0].(*rex.InputRef)
		b, bok := c.Operands[1].(*rex.InputRef)
		if !aok || !bok {
			return 0
		}
		ah, ok := columnOrigin(n, a.Index)
		if !ok {
			return 0
		}
		bh, ok := columnOrigin(n, b.Index)
		if !ok {
			return 0
		}
		if bh < ah {
			ah, bh = bh, ah
		}
		p := uint64(fnvOffset)
		hashUint64(&p, ah)
		hashUint64(&p, bh)
		parts = append(parts, p)
	}
	slices.Sort(parts)
	h := uint64(fnvOffset)
	for _, p := range parts {
		hashUint64(&h, p)
	}
	return h
}

// correction is the smoothed observation history of one operator shape.
type correction struct {
	touched uint64 // store clock at the last harvest that taught it
	op      string
	estRows float64 // optimizer estimate at last harvest (bounding anchor)
	actual  float64 // EWMA of observed row counts
	samples int64
	lastQ   float64
	maxQ    float64
}

// opState is the per-path est/actual/error state of one fingerprint, the
// /debug/plans payload.
type opState struct {
	op      string
	estRows float64
	actual  float64
	lastQ   float64
	samples int64
}

// planState aggregates everything observed about one statement fingerprint.
type planState struct {
	touched       uint64 // store clock at the last harvest or overshoot
	sql           string
	executions    int64
	lastMaxQ      float64
	maxQ          float64
	overshoots    int64
	replans       int64
	pendingReplan bool
	ops           map[string]*opState // by path
	tables        []schema.Table      // scanned by the latest harvested plan
}

// swapState is a recorded build/probe swap preference for one join shape.
type swapState struct {
	estRows    float64
	actualRows float64
	count      int64
}

// selCorrection is the smoothed observed selectivity of one join condition
// signature: actual join output over the product of its input cardinalities.
// Unlike row-count corrections it transfers to join orders that have never
// executed — the condition keeps its signature in every order.
type selCorrection struct {
	sel     float64
	samples int64
}

// Store is the concurrency-safe cardinality-feedback store. One per
// framework; planning sessions read corrections through MetaProvider, the
// execute path writes through Harvest and RecordBuildOvershoot.
type Store struct {
	mu          sync.RWMutex
	corrections map[uint64]*correction    // by NodeKey, at most CorrectionCap
	plans       map[string]*planState     // by fingerprint, at most StatementCap
	swaps       map[uint64]*swapState     // by join NodeKey
	sels        map[uint64]*selCorrection // by join condition signature
	worstQ      float64
	clock       uint64 // advances on every touch of a bounded entry

	// correctionCount mirrors len(corrections) so the planner's hot path can
	// skip digest computation entirely while the store is empty.
	correctionCount atomic.Int64
	swapCount       atomic.Int64
	selCount        atomic.Int64

	harvests      atomic.Int64
	samples       atomic.Int64
	applied       atomic.Int64
	replans       atomic.Int64
	overshoots    atomic.Int64
	swapsApplied  atomic.Int64
	invalidations atomic.Int64

	observeQ atomic.Pointer[func(float64)]
}

// NewStore builds an empty store.
func NewStore() *Store {
	s := &Store{}
	s.reset()
	return s
}

func (s *Store) reset() {
	s.corrections = map[uint64]*correction{}
	s.plans = map[string]*planState{}
	s.swaps = map[uint64]*swapState{}
	s.sels = map[uint64]*selCorrection{}
	s.correctionCount.Store(0)
	s.swapCount.Store(0)
	s.selCount.Store(0)
}

// SetObserver installs the q-error histogram hook (each harvested operator's
// q-error is passed once). Safe to call at any time.
func (s *Store) SetObserver(fn func(float64)) {
	if fn == nil {
		return
	}
	s.observeQ.Store(&fn)
}

// Harvest folds one finished trace into the store: every span carrying a
// path id is matched to the plan's estimate table, its q-error observed and
// its operator's correction updated — unless the operator is bound to
// parameter values (OpEstimate.Bound). Returns true when the statement should
// be re-planned — the worst q-error of an unbound operator reached
// replanQError, or a build overshoot was recorded during this execution.
func (s *Store) Harvest(snap *obs.TraceSnapshot, est *PlanEstimates) bool {
	if snap == nil || est == nil || snap.Spans == nil || snap.Error != "" {
		return false
	}
	s.harvests.Add(1)
	observe := s.observeQ.Load()

	s.mu.Lock()
	ps := s.plan(snap.Fingerprint)
	if ps.sql == "" {
		ps.sql = snap.SQL
	}
	ps.executions++
	ps.tables = est.Tables
	maxQ, driftQ := 0.0, 0.0 // worst q-error of all operators / of the unbound ones
	var walk func(sp *obs.SpanStats)
	walk = func(sp *obs.SpanStats) {
		if sp == nil {
			return
		}
		if e, ok := est.ByPath[sp.Path]; ok && sp.Path != "" && e.Rows > 0 {
			actual := float64(sp.Rows)
			q := obs.QError(e.Rows, actual)
			if q > maxQ {
				maxQ = q
			}
			s.samples.Add(1)
			if observe != nil {
				(*observe)(q)
			}
			os := ps.ops[sp.Path]
			if os == nil {
				os = &opState{}
				ps.ops[sp.Path] = os
			}
			os.op = e.Op
			os.estRows = e.Rows
			os.actual = actual
			os.lastQ = q
			os.samples++

			// What a bound operator returned says how these parameter values
			// select, not how the next ones will, and every statement with
			// the same placeholder text shares its key: folded into a
			// correction it would make each plan depend on which bindings
			// happened to run last. It is measured and teaches nothing.
			if !e.Bound {
				if q > driftQ {
					driftQ = q
				}
				s.learn(e, sp, actual, q)
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(snap.Spans)
	evictLRU(s.corrections, CorrectionCap)
	s.correctionCount.Store(int64(len(s.corrections)))
	ps.lastMaxQ = maxQ
	if maxQ > ps.maxQ {
		ps.maxQ = maxQ
	}
	if maxQ > s.worstQ {
		s.worstQ = maxQ
	}
	replan := (driftQ >= replanQError || ps.pendingReplan) &&
		ps.replans < maxReplans
	ps.pendingReplan = false
	if replan {
		ps.replans++
	}
	s.mu.Unlock()

	if replan {
		s.replans.Add(1)
	}
	return replan
}

// learn folds one operator's observed row count into its correction and, for
// a join, into its condition's selectivity. The caller holds s.mu.
func (s *Store) learn(e OpEstimate, sp *obs.SpanStats, actual, q float64) {
	c := s.corrections[e.Key]
	if c == nil {
		c = &correction{op: e.Op, actual: actual}
		s.corrections[e.Key] = c
	} else {
		c.actual = alpha*actual + (1-alpha)*c.actual
	}
	s.clock++
	c.touched = s.clock
	c.estRows = e.Rows
	c.samples++
	c.lastQ = q
	if q > c.maxQ {
		c.maxQ = q
	}

	// Joins additionally teach their condition's selectivity: the
	// observed output over the product of the observed inputs. The
	// signature survives reordering, so this is the correction that
	// prices join orders the optimizer has never executed.
	if e.JoinSig != 0 && len(sp.Children) == 2 {
		aL := math.Max(float64(sp.Children[0].Rows), 1)
		aR := math.Max(float64(sp.Children[1].Rows), 1)
		implied := math.Min(math.Max(actual, 1)/(aL*aR), 1)
		sc := s.sels[e.JoinSig]
		if sc == nil {
			s.sels[e.JoinSig] = &selCorrection{sel: implied, samples: 1}
			s.selCount.Add(1)
		} else {
			sc.sel = alpha*implied + (1-alpha)*sc.sel
			sc.samples++
		}
	}
}

// CorrectedRowCount returns the feedback-corrected row estimate for n when
// an operator with the same canonical shape has been observed, bounded to
// within maxRatio of the optimizer's own estimate at last harvest.
func (s *Store) CorrectedRowCount(n rel.Node) (float64, bool) {
	return s.correctedRowCount(n, keyMemo{}, nil, false)
}

func (s *Store) correctedRowCount(n rel.Node, keys keyMemo, d *rel.Digests, candidate bool) (float64, bool) {
	if s.correctionCount.Load() == 0 {
		return 0, false
	}
	key := keys.of(n, d, candidate).key
	s.mu.RLock()
	c, ok := s.corrections[key]
	if !ok {
		s.mu.RUnlock()
		return 0, false
	}
	v := c.actual
	if anchor := c.estRows; anchor > 0 {
		v = math.Min(math.Max(v, anchor/maxRatio), anchor*maxRatio)
	}
	s.mu.RUnlock()
	s.applied.Add(1)
	return math.Max(v, 1), true
}

// CorrectedSelectivity returns the observed selectivity for a predicate
// whose condition signature on n matches a harvested join condition.
func (s *Store) CorrectedSelectivity(n rel.Node, predicate rex.Node) (float64, bool) {
	if s.selCount.Load() == 0 {
		return 0, false
	}
	sig := conditionSignature(n, predicate)
	if sig == 0 {
		return 0, false
	}
	s.mu.RLock()
	sc, ok := s.sels[sig]
	if !ok {
		s.mu.RUnlock()
		return 0, false
	}
	v := sc.sel
	s.mu.RUnlock()
	s.applied.Add(1)
	return v, true
}

// MetaProvider adapts the store into the metadata provider chain: RowCount
// answers from observed cardinalities, Selectivity from observed join
// selectivities, everything else falls through. The provider belongs to one
// metadata session and memoizes NodeKey for it.
func (s *Store) MetaProvider() meta.Provider {
	keys := keyMemo{}
	return meta.Provider{
		Name: "feedback",
		RowCount: func(q *meta.Query, n rel.Node) (float64, bool) {
			return s.correctedRowCount(n, keys, q.Digests(), q.Candidate(n))
		},
		Selectivity: func(q *meta.Query, n rel.Node, predicate rex.Node) (float64, bool) {
			return s.CorrectedSelectivity(n, predicate)
		},
	}
}

// RecordBuildOvershoot notes that a hash join's build side produced actual
// rows against an estimate of est. Past the configured factor (and noise
// floor) the join shape gains a swap preference and the statement is marked
// for re-planning at its next harvest.
func (s *Store) RecordBuildOvershoot(fingerprint string, joinKey uint64, est, actual float64) {
	if est <= 0 || actual < overshootMinRows || actual <= est*overshootFactor {
		return
	}
	s.overshoots.Add(1)
	s.mu.Lock()
	sw := s.swaps[joinKey]
	if sw == nil {
		sw = &swapState{}
		s.swaps[joinKey] = sw
		s.swapCount.Add(1)
	}
	sw.estRows, sw.actualRows = est, actual
	sw.count++
	ps := s.plan(fingerprint)
	ps.overshoots++
	ps.pendingReplan = true
	s.mu.Unlock()
}

// PreferSwap reports whether the join shape has a recorded build-overshoot
// swap preference.
func (s *Store) PreferSwap(joinKey uint64) bool {
	if s.swapCount.Load() == 0 {
		return false
	}
	s.mu.RLock()
	_, ok := s.swaps[joinKey]
	s.mu.RUnlock()
	return ok
}

// SwapCount returns the number of join shapes with a swap preference (fast
// emptiness check for the planning post-pass).
func (s *Store) SwapCount() int64 { return s.swapCount.Load() }

// NoteSwapApplied counts one applied build/probe swap.
func (s *Store) NoteSwapApplied() { s.swapsApplied.Add(1) }

// plan returns the record of fingerprint, created if needed, as the most
// recently used one. The caller holds s.mu.
func (s *Store) plan(fingerprint string) *planState {
	s.clock++
	ps := s.plans[fingerprint]
	if ps == nil {
		ps = &planState{touched: s.clock, ops: map[string]*opState{}}
		s.plans[fingerprint] = ps
		evictLRU(s.plans, StatementCap)
	}
	ps.touched = s.clock
	return ps
}

// evictLRU drops m's least recently touched entries down to three quarters of
// max once m holds more than max: eviction runs once per max/4 new entries
// and each run is a sort of max ages.
func evictLRU[K comparable, V interface{ lastTouch() uint64 }](m map[K]V, max int) {
	if len(m) <= max {
		return
	}
	ages := make([]uint64, 0, len(m))
	for _, v := range m {
		ages = append(ages, v.lastTouch())
	}
	slices.Sort(ages)
	cut := ages[len(ages)-max*3/4]
	for k, v := range m {
		if v.lastTouch() < cut {
			delete(m, k)
		}
	}
}

func (c *correction) lastTouch() uint64 { return c.touched }
func (p *planState) lastTouch() uint64  { return p.touched }

// InvalidateTable forgets the statements whose plans scan t — their q-error
// history and spent replan budget — called with the plan cache's EvictTable
// when t gets new statistics. Row-count corrections, join selectivities and
// swap preferences stay: they are smoothed observations of the data, which
// new statistics do not falsify, and they keep following it on their own.
func (s *Store) InvalidateTable(t schema.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for fp, ps := range s.plans {
		if slices.Contains(ps.tables, t) {
			delete(s.plans, fp)
		}
	}
}

// Invalidate drops all corrections, plan records and swap preferences — the
// catalog-wide flush (DDL, registration, planner switches) shared with the
// plan cache.
func (s *Store) Invalidate() {
	s.mu.Lock()
	empty := len(s.corrections) == 0 && len(s.plans) == 0 && len(s.swaps) == 0
	s.reset()
	s.worstQ = 0
	s.mu.Unlock()
	if !empty {
		s.invalidations.Add(1)
	}
}

// Size reports the tracked fingerprint and operator-correction counts.
func (s *Store) Size() (fingerprints, operators int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.plans), len(s.corrections)
}

// WorstQError returns the worst per-operator q-error harvested since the
// last invalidation.
func (s *Store) WorstQError() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.worstQ
}

// Counters is a point-in-time read of the store's cumulative counters.
type Counters struct {
	Harvests        int64
	Samples         int64
	Corrections     int64
	Replans         int64
	BuildOvershoots int64
	SwapsApplied    int64
	Invalidations   int64
}

// Counters returns the cumulative activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Harvests:        s.harvests.Load(),
		Samples:         s.samples.Load(),
		Corrections:     s.applied.Load(),
		Replans:         s.replans.Load(),
		BuildOvershoots: s.overshoots.Load(),
		SwapsApplied:    s.swapsApplied.Load(),
		Invalidations:   s.invalidations.Load(),
	}
}

// OpReport is one operator's est/actual/error row in a plan report.
type OpReport struct {
	Path       string  `json:"path"`
	Op         string  `json:"op"`
	EstRows    float64 `json:"est_rows"`
	ActualRows float64 `json:"actual_rows"`
	QError     float64 `json:"qerror"`
	Samples    int64   `json:"samples"`
}

// PlanReport is the plan-quality summary of one statement fingerprint.
type PlanReport struct {
	Fingerprint     string     `json:"fingerprint"`
	SQL             string     `json:"sql"`
	Executions      int64      `json:"executions"`
	LastMaxQError   float64    `json:"last_max_qerror"`
	MaxQError       float64    `json:"max_qerror"`
	BuildOvershoots int64      `json:"build_overshoots,omitempty"`
	Ops             []OpReport `json:"ops"`
}

// Report returns per-fingerprint plan-quality summaries, worst estimation
// error first — the /debug/plans payload.
func (s *Store) Report() []PlanReport {
	s.mu.RLock()
	out := make([]PlanReport, 0, len(s.plans))
	for fp, ps := range s.plans {
		r := PlanReport{
			Fingerprint:     fp,
			SQL:             ps.sql,
			Executions:      ps.executions,
			LastMaxQError:   ps.lastMaxQ,
			MaxQError:       ps.maxQ,
			BuildOvershoots: ps.overshoots,
			Ops:             make([]OpReport, 0, len(ps.ops)),
		}
		for path, os := range ps.ops {
			r.Ops = append(r.Ops, OpReport{
				Path:       path,
				Op:         os.op,
				EstRows:    os.estRows,
				ActualRows: os.actual,
				QError:     os.lastQ,
				Samples:    os.samples,
			})
		}
		sort.Slice(r.Ops, func(i, j int) bool { return r.Ops[i].Path < r.Ops[j].Path })
		out = append(out, r)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].MaxQError != out[j].MaxQError {
			return out[i].MaxQError > out[j].MaxQError
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
