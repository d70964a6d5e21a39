package exec

// The sort kernel: one columnar external merge sort under ORDER BY and top-N
// (serial at every parallelism, over a gather of the partitions), the
// window's narrow per-group sort and its spilled rows' results.
//
// Input batches are appended to typed column vectors (a column whose kind
// changes between batches demotes to VecAny, as MemTable does) and charged
// what those vectors hold. Sorting orders row ordinals by the collation's key
// vectors with the arrival ordinal as the last key, one key column at a time
// (sortKeys): an int64 or float64 key without NULLs is imaged to int64s that
// order exactly like the column, and long ranges of (image, ordinal) pairs
// are ordered by a stable LSD radix pass, short ones by pdqsort; any other
// key compares rows through compareAt, which has a fast path per vector kind
// and falls back to types.Compare for VecAny and mixed kinds, so NULLs,
// directions and int/float ties order exactly as CompareRows orders boxed
// rows. The order is total: the output is the stable sort of the input
// whatever algorithm runs.
//
// With a row limit (OFFSET+FETCH) only a batch's first limit rows in sort
// order are buffered, the buffer is cut back to the limit through the same
// sort whenever it has doubled, and the limit'th row becomes a cutoff that
// later rows must beat to be buffered at all; the buffer, and so the
// reservation, stays under 3 × limit rows and a top-N does not spill rows it
// will discard. When a grant is denied the sorted buffer is written out as one
// run of typed pages, and Finish merges the runs and the in-memory tail batch
// to batch on the key vectors (mergeCursor; ties go to the lowest source, and
// runs are cut in arrival order, so spilling never changes row order). Output
// batches carry Vecs of the kinds that came in.

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"calcite/internal/memory"
	"calcite/internal/schema"
	"calcite/internal/trait"
	"calcite/internal/types"
)

// spillWriteChunk is how many rows a spill writer encodes per batch.
const spillWriteChunk = 512

// mergeFanIn bounds how many runs one merge pass reads at once: a tiny
// budget can cut thousands of small runs, and opening a reader per run in
// a single k-way merge would exhaust file descriptors. Above the bound,
// runs cascade: groups of mergeFanIn merge into longer runs until one
// final merge fits.
const mergeFanIn = 64

// batchVecs returns the batch's columns with every VecAny one re-built as a
// typed vector where its values are of one core kind — rows lifted from an
// adapter's row cursor arrive VecAny and sort on the typed paths from here on.
// The batch's own Vecs slice may be shared with other consumers and is left
// alone.
func batchVecs(b *schema.Batch) []*schema.Vector {
	vecs, shared := b.Vecs, true
	for c, v := range b.Vecs {
		if v.Kind != schema.VecAny {
			continue
		}
		if typed := schema.BuildVector(v.A); typed.Kind != schema.VecAny {
			if shared {
				vecs, shared = slices.Clone(b.Vecs), false
			}
			vecs[c] = typed
		}
	}
	return vecs
}

// vecsBytes estimates what the rows at sel (all n when nil) of vecs retain.
func vecsBytes(vecs []*schema.Vector, sel []int32, n int) int64 {
	if sel != nil {
		n = len(sel)
	}
	at := func(i int) int {
		if sel != nil {
			return int(sel[i])
		}
		return i
	}
	var sz int64
	for _, v := range vecs {
		if v.Nulls != nil {
			sz += int64(n)
		}
		switch v.Kind {
		case schema.VecInt64, schema.VecFloat64:
			sz += 8 * int64(n)
		case schema.VecBool:
			sz += int64(n)
		case schema.VecString:
			sz += 16 * int64(n)
			for i := 0; i < n; i++ {
				sz += int64(len(v.S[at(i)]))
			}
		default:
			for i := 0; i < n; i++ {
				sz += types.SizeOfValue(v.A[at(i)])
			}
		}
	}
	return sz
}

// settle moves res's charge to n bytes: down always, up as far as the budget
// grants.
func settle(res *memory.Reservation, n int64) {
	if over := res.Held() - n; over > 0 {
		res.Shrink(over)
	} else {
		_ = res.Grow(-over)
	}
}

// compareAt orders row i of a against row j of b, NULLs lowest: a typed fast
// path when both vectors have the same kind, types.Compare on the boxed values
// otherwise (VecAny, and int against float keys).
func compareAt(a *schema.Vector, i int, b *schema.Vector, j int) int {
	if a.Kind != b.Kind || a.Kind == schema.VecAny {
		return types.Compare(a.Get(i), b.Get(j))
	}
	an, bn := a.Nulls != nil && a.Nulls[i], b.Nulls != nil && b.Nulls[j]
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		}
		return 1
	}
	switch a.Kind {
	case schema.VecInt64:
		return cmp.Compare(a.I64[i], b.I64[j])
	case schema.VecFloat64:
		return cmp.Compare(a.F64[i], b.F64[j])
	case schema.VecString:
		return strings.Compare(a.S[i], b.S[j])
	}
	switch x, y := a.B[i], b.B[j]; {
	case x == y:
		return 0
	case y:
		return -1
	}
	return 1
}

// compareKeys orders row i of av against row j of bv under a collation.
func compareKeys(coll trait.Collation, av []*schema.Vector, i int, bv []*schema.Vector, j int) int {
	for _, fc := range coll {
		if c := compareAt(av[fc.Field], i, bv[fc.Field], j); c != 0 {
			if fc.Direction == trait.Descending {
				return -c
			}
			return c
		}
	}
	return 0
}

// ExternalSorter buffers batches column-wise within a memory reservation,
// overflowing to sorted runs on disk. A sort runs one of it at every
// parallelism: a partitioned input is gathered in Seq order first, so the
// stable sort needs no position columns to reproduce the serial order.
type ExternalSorter struct {
	ctx  *Context
	op   string
	res  *memory.Reservation
	coll trait.Collation
	// limit is how many leading rows of the sorted order can ever be emitted
	// (OFFSET+FETCH); negative = all of them.
	limit int64
	// The buffered rows: n in all, those of pending not yet copied behind the
	// others in cols. Batches are held by reference (column storage is
	// immutable once emitted) and concatenated when the buffer is next
	// sorted, into columns sized once.
	cols    []*schema.Vector
	pending []pendingRows
	n       int
	// cutoff is a one-row copy of the limit'th buffered row: limit rows are
	// known to sort before any later row that does not beat it.
	cutoff        []*schema.Vector
	selBuf, dense []int32
	runs          []*memory.Run
}

// pendingRows are the rows at sel (all when nil) of a batch's vectors.
type pendingRows struct {
	vecs []*schema.Vector
	sel  []int32
}

// NewExternalSorter opens a sorter on coll charging the context's allocator
// under the given operator tag.
func NewExternalSorter(ctx *Context, op string, coll trait.Collation, limit int64) *ExternalSorter {
	return &ExternalSorter{ctx: ctx, op: op, res: memory.Reserve(ctx.Alloc, op), coll: coll, limit: limit}
}

// SortCursor drains in through an ExternalSorter on coll and returns the
// sorted rows [offset, limit); in is closed.
func SortCursor(ctx *Context, op string, in schema.BatchCursor, coll trait.Collation,
	limit, offset int64) (schema.BatchCursor, error) {
	defer in.Close()
	sorter := NewExternalSorter(ctx, op, coll, limit)
	for {
		b, err := in.NextBatch()
		if err == schema.Done {
			return sorter.Finish(offset, ctx.batchSize())
		}
		if err != nil {
			sorter.Abandon()
			return nil, err
		}
		if err := sorter.AddBatch(b); err != nil {
			return nil, err
		}
	}
}

// AddBatch buffers the batch's live rows — under a limit, those that beat the
// cutoff.
func (s *ExternalSorter) AddBatch(b *schema.Batch) error {
	vecs, sel := batchVecs(b), b.Sel
	if s.cutoff != nil {
		var live []int32
		live, s.dense = liveSel(b, s.dense)
		s.selBuf = s.selBuf[:0]
		for _, r := range live {
			if compareKeys(s.coll, vecs, int(r), s.cutoff, 0) < 0 {
				s.selBuf = append(s.selBuf, r)
			}
		}
		if sel = s.selBuf; len(sel) == 0 {
			return nil
		}
	}
	if s.limit == 0 {
		return nil
	}
	vecs, sel = s.keepable(vecs, sel, b.Len)
	return s.add(vecs, sel, b.Len)
}

// keepable narrows a batch's live rows to those a top-N can still keep. Of
// more than limit rows only the batch's first limit in sort order can reach
// the output, since each other row has limit rows of the same batch before
// it. Only those are charged and held, so a sorter's reservation stays under
// 3 × limit rows (the buffer is cut back at 2 × limit) rather than limit plus
// a whole batch. The limit'th of them becomes the cutoff for later rows.
func (s *ExternalSorter) keepable(vecs []*schema.Vector, sel []int32, n int) ([]*schema.Vector, []int32) {
	if sel != nil {
		n = len(sel)
	}
	if s.limit <= 0 || int64(n) <= s.limit {
		return vecs, sel
	}
	// A selection ascends, so row indices break ties in arrival order.
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i].ord = int32(i)
		if sel != nil {
			keys[i].ord = sel[i]
		}
	}
	sortKeys(vecs, keys, s.coll, nil)
	top := make([]int32, s.limit)
	for i := range top {
		top[i] = keys[i].ord
	}
	s.cutoff = make([]*schema.Vector, len(vecs))
	for c, v := range vecs {
		s.cutoff[c] = v.Gather(top[len(top)-1:])
	}
	return vecs, top
}

// add appends the rows of vecs at sel (all n when nil), charging what they
// hold. Rows that find no room are halved and each half added on its own; only
// a single row that still finds none (concurrent workers hold the rest of the
// budget) is accepted untracked: the debt is bounded — the next failing grant
// spills it — and starving one worker forever would deadlock progress, not
// save memory.
func (s *ExternalSorter) add(vecs []*schema.Vector, sel []int32, n int) error {
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return nil
	}
	if s.res != nil {
		granted, err := s.grant(vecsBytes(vecs, sel, n) + 4*int64(n))
		if err != nil {
			s.Abandon()
			return err
		}
		if !granted && n > 1 {
			if sel == nil {
				sel = iotaSel(nil, n)
			}
			if err := s.add(vecs, sel[:n/2], 0); err != nil {
				return err
			}
			return s.add(vecs, sel[n/2:], 0)
		}
	}
	switch {
	case sel == nil:
	case 2*n < vecs[0].Len():
		// A sparse selection is copied out now: holding the whole batch for
		// a few of its rows would retain far more than was charged.
		dense := make([]*schema.Vector, len(vecs))
		for c, v := range vecs {
			dense[c] = v.Gather(sel)
		}
		vecs, sel = dense, nil
	default:
		sel = slices.Clone(sel) // the producer and AddBatch recycle theirs
	}
	s.pending = append(s.pending, pendingRows{vecs, sel})
	s.n += n
	if s.limit > 0 && int64(s.n)/2 >= s.limit {
		s.truncate()
	}
	return nil
}

// grant charges sz bytes for rows about to be buffered. A denied grant first
// cuts a top-N buffer back to its limit, then spills the buffer as a sorted
// run; false means there is still no room.
func (s *ExternalSorter) grant(sz int64) (bool, error) {
	err := s.res.Grow(sz)
	if err == nil {
		return true, nil
	}
	if !s.res.SpillAllowed() {
		return false, err
	}
	if s.limit > 0 && int64(s.n) > s.limit {
		s.truncate()
		if s.res.Grow(sz) == nil {
			return true, nil
		}
	}
	if s.n > 0 {
		if err := s.spill(); err != nil {
			return false, err
		}
	}
	return s.res.Grow(sz) == nil, nil
}

// sortKey is a buffered row's ordinal beside an int64 image of one of its
// sort keys.
type sortKey struct {
	k   int64
	ord int32
}

// imageKeys sets each key's k to an int64 that orders, and ties, exactly as
// compareAt orders v's rows in the given direction (NaNs equal and lowest, -0
// equal to +0). Only int64 and float64 columns, over rows without a NULL,
// have such an image; for anything else it reports false.
func imageKeys(keys []sortKey, v *schema.Vector, desc bool) bool {
	if v.Kind != schema.VecInt64 && v.Kind != schema.VecFloat64 {
		return false
	}
	for i := range keys {
		if v.Nulls != nil && v.Nulls[keys[i].ord] {
			return false
		}
		k := int64(math.MinInt64)
		if v.Kind == schema.VecInt64 {
			k = v.I64[keys[i].ord]
		} else if f := v.F64[keys[i].ord]; f == f {
			if k = int64(math.Float64bits(f + 0)); k < 0 {
				k ^= math.MaxInt64
			}
		}
		if desc {
			k = ^k
		}
		keys[i].k = k
	}
	return true
}

// radixMin is the shortest range of (image, ordinal) pairs sortKeys orders
// with a radix pass; on shorter ones pdqsort's comparisons cost less than the
// pass's histograms and scatter. Measured on random keys on a 2-core x86-64
// host: the two tie at 192 pairs, and the radix pass takes 16 µs against
// 18 µs at 256, 50 against 116 µs at 1 024 and 2-3 against 10-12 ms at
// 50 000.
const radixMin = 256

// sortKeys orders keys — ordinals of rows of cols, ascending on entry — by
// coll and then ordinal, one key column at a time: where the leading column
// has an int64 image the range is sorted on (image, ordinal) pairs — by a
// stable radix pass from radixMin pairs up, else by an inlined comparison —
// and each run of equal images by the remaining columns; at any other column
// the range is sorted by comparing rows on everything that remains. buf is the
// radix pass's scratch, handed on to every run (nil: made on first use).
func sortKeys(cols []*schema.Vector, keys []sortKey, coll trait.Collation, buf []sortKey) {
	if len(keys) < 2 || len(coll) == 0 {
		return
	}
	if !imageKeys(keys, cols[coll[0].Field], coll[0].Direction == trait.Descending) {
		slices.SortFunc(keys, func(a, b sortKey) int {
			if c := compareKeys(coll, cols, int(a.ord), cols, int(b.ord)); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
		return
	}
	if len(keys) >= radixMin {
		if len(buf) < len(keys) {
			buf = make([]sortKey, len(keys))
		}
		radixKeys(keys, buf[:len(keys)])
	} else {
		slices.SortFunc(keys, func(a, b sortKey) int {
			if c := cmp.Compare(a.k, b.k); c != 0 {
				return c
			}
			return cmp.Compare(a.ord, b.ord)
		})
	}
	for lo, hi := 0, 0; lo < len(keys); lo = hi {
		for hi = lo + 1; hi < len(keys) && keys[hi].k == keys[lo].k; hi++ {
		}
		sortKeys(cols, keys[lo:hi], coll[1:], buf)
	}
}

// radixKeys orders keys by image with an LSD radix sort over the image's
// bytes with the sign bit flipped (so unsigned byte order is signed order),
// one counting pass per byte that not every key shares, scattering between
// keys and buf. Each pass is stable, so equal images keep ordinal order.
func radixKeys(keys, buf []sortKey) {
	const flip = 1 << 63
	var counts [8][256]int
	for _, x := range keys {
		u := uint64(x.k) ^ flip
		for b := range counts {
			counts[b][byte(u>>(8*b))]++
		}
	}
	src, dst := keys, buf
	for b := range counts {
		shift, c := 8*b, &counts[b]
		if c[byte((uint64(keys[0].k)^flip)>>shift)] == len(keys) {
			continue
		}
		at := 0
		for d, n := range c {
			c[d], at = at, at+n
		}
		for _, x := range src {
			d := byte((uint64(x.k) ^ flip) >> shift)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// sorted concatenates the pending batches behind the buffered columns and
// returns the buffer's row ordinals in output order, cut at the limit.
func (s *ExternalSorter) sorted() []int32 {
	if s.cols == nil && len(s.pending) > 0 {
		s.cols = make([]*schema.Vector, len(s.pending[0].vecs))
		for c, v := range s.pending[0].vecs {
			s.cols[c] = &schema.Vector{Kind: v.Kind}
		}
	}
	for c, col := range s.cols {
		col.Grow(s.n - col.Len())
		for _, p := range s.pending {
			col.Append(p.vecs[c], p.sel)
		}
	}
	s.pending = nil
	keys := make([]sortKey, s.n)
	for i := range keys {
		keys[i].ord = int32(i)
	}
	sortKeys(s.cols, keys, s.coll, nil)
	if s.limit >= 0 && int64(len(keys)) > s.limit {
		keys = keys[:s.limit]
	}
	perm := make([]int32, len(keys))
	for i, k := range keys {
		perm[i] = k.ord
	}
	return perm
}

// truncate compacts a top-N buffer to its first limit rows, in sorted order
// (so later arrivals still sort after equal buffered rows), and takes the last
// of them as the cutoff.
func (s *ExternalSorter) truncate() {
	perm := s.sorted()
	for c, v := range s.cols {
		s.cols[c] = v.Gather(perm)
	}
	s.n = len(perm)
	if int64(s.n) == s.limit {
		last := []int32{int32(s.n - 1)}
		s.cutoff = make([]*schema.Vector, len(s.cols))
		for c, v := range s.cols {
			s.cutoff[c] = v.Gather(last)
		}
	}
	if s.res != nil {
		// Settle the charge on what is left; a batch that was accepted
		// untracked is tracked from here on if the budget now allows.
		settle(s.res, vecsBytes(s.cols, nil, s.n)+4*int64(s.n))
	}
}

// spill sorts the buffer and writes it out as one run, reading the columns
// through the permutation (the page encoder applies a selection vector in the
// order given).
func (s *ExternalSorter) spill() error {
	perm := s.sorted()
	w, err := s.ctx.Alloc.NewRun(s.op)
	if err != nil {
		return err
	}
	for start := 0; start < len(perm); start += spillWriteChunk {
		end := min(start+spillWriteChunk, len(perm))
		if err := w.WriteBatch(&schema.Batch{Len: s.n, Vecs: s.cols, Sel: perm[start:end]}); err != nil {
			w.Abandon()
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.res.NoteSpillEvent()
	s.cols, s.n = nil, 0
	s.res.Shrink(s.res.Held())
	return nil
}

// Abandon releases the reservation and removes any runs (error paths; the
// allocator would also remove the files at query end).
func (s *ExternalSorter) Abandon() {
	for _, r := range s.runs {
		r.Remove()
	}
	s.runs, s.cols, s.pending, s.n = nil, nil, nil, 0
	s.res.Free()
}

// openRuns opens a reader per run as merge sources.
func openRuns(runs []*memory.Run) ([]schema.BatchCursor, error) {
	srcs := make([]schema.BatchCursor, 0, len(runs)+1)
	for _, run := range runs {
		rr, err := run.Open()
		if err != nil {
			for _, r := range srcs {
				r.Close()
			}
			return nil, err
		}
		srcs = append(srcs, rr)
	}
	return srcs, nil
}

// mergeRunsToRun merges a bounded group of sorted runs into one longer
// sorted run on disk (one cascade step). The source runs are removed.
func (s *ExternalSorter) mergeRunsToRun(runs []*memory.Run) (*memory.Run, error) {
	srcs, err := openRuns(runs)
	if err != nil {
		return nil, err
	}
	m := newMergeCursor(srcs, s.coll, 0, s.limit, spillWriteChunk, nil)
	defer m.Close()
	w, err := s.ctx.Alloc.NewRun(s.op)
	if err != nil {
		return nil, err
	}
	for {
		b, err := m.NextBatch()
		if err == schema.Done {
			break
		}
		if err == nil {
			err = w.WriteBatch(b)
		}
		if err != nil {
			w.Abandon()
			return nil, err
		}
	}
	merged, err := w.Finish()
	if err != nil {
		return nil, err
	}
	for _, run := range runs {
		run.Remove()
	}
	return merged, nil
}

// cascadeRuns merges oversized run sets down to at most mergeFanIn runs, so
// the final k-way merge opens a bounded number of files. Merging
// left-to-right in groups keeps run order (and therefore stability).
func (s *ExternalSorter) cascadeRuns() error {
	for len(s.runs) > mergeFanIn {
		next := make([]*memory.Run, 0, (len(s.runs)+mergeFanIn-1)/mergeFanIn)
		for start := 0; start < len(s.runs); start += mergeFanIn {
			end := min(start+mergeFanIn, len(s.runs))
			if end-start == 1 {
				next = append(next, s.runs[start])
				continue
			}
			merged, err := s.mergeRunsToRun(s.runs[start:end])
			if err != nil {
				s.runs = append(next, s.runs[start:]...)
				return err
			}
			next = append(next, merged)
		}
		s.runs = next
	}
	return nil
}

// Finish returns the sorted output from row offset up to the limit. Closing
// the cursor releases the reservation and removes any runs. On error the
// sorter is abandoned.
func (s *ExternalSorter) Finish(offset int64, batchSize int) (schema.BatchCursor, error) {
	perm := s.sorted() // concatenates s.cols first
	tail := &sortedCursor{perm: perm, cols: s.cols, batchSize: batchSize}
	if len(s.runs) == 0 {
		tail.perm = tail.perm[min(offset, int64(len(tail.perm))):]
		return &closingBatchCursor{BatchCursor: tail, close: s.res.Free}, nil
	}
	err := s.cascadeRuns()
	var srcs []schema.BatchCursor
	if err == nil {
		srcs, err = openRuns(s.runs)
	}
	if err != nil {
		s.Abandon()
		return nil, err
	}
	fetch := s.limit
	if fetch >= 0 {
		fetch = max(fetch-offset, 0)
	}
	// The in-memory tail arrived last: it is the highest-numbered source.
	return newMergeCursor(append(srcs, tail), s.coll, offset, fetch, batchSize, s.Abandon), nil
}

// sortedCursor emits buffered columns in permutation order.
type sortedCursor struct {
	cols      []*schema.Vector
	perm      []int32
	batchSize int
	seq       int64
}

func (c *sortedCursor) NextBatch() (*schema.Batch, error) {
	if len(c.perm) == 0 {
		return nil, schema.Done
	}
	sel := c.perm[:min(c.batchSize, len(c.perm))]
	c.perm = c.perm[len(sel):]
	vecs := make([]*schema.Vector, len(c.cols))
	for i, v := range c.cols {
		vecs[i] = v.Gather(sel)
	}
	c.seq++
	return &schema.Batch{Len: len(sel), Vecs: vecs, Seq: c.seq - 1}, nil
}

func (c *sortedCursor) Close() error {
	c.perm, c.cols = nil, nil
	return nil
}

// mergeHead is a merge source's current batch and position in it.
type mergeHead struct {
	vecs   []*schema.Vector
	sel    []int32
	pos, n int
	// ref is the index of vecs among the batches the output under
	// construction gathers from, -1 until a row of it is picked.
	ref int32
}

func (h *mergeHead) row() int {
	if h.sel != nil {
		return int(h.sel[h.pos])
	}
	return h.pos
}

// mergeCursor k-way-merges sorted batch streams on their key vectors, batch
// to batch: a heap of the sources' head rows picks the next output row (ties
// to the lowest source index), and each output column is gathered from the
// source batches' vectors, so typed columns stay typed. ExternalSorter merges
// its spilled runs through it, applying the sort's OFFSET/FETCH.
type mergeCursor struct {
	srcs  []schema.BatchCursor
	coll  trait.Collation
	heads []mergeHead
	heap  []int32 // live source indices, least head row first
	picks []schema.Pick

	offset, fetch int64 // fetch < 0 = unlimited
	skipped       int64
	emitted       int64
	batchSize     int
	seq           int64
	primed, done  bool
	onClose       func()
}

// newMergeCursor merges srcs, each sorted on coll, skipping offset rows and
// emitting at most fetch (negative = all). Close closes every source and then
// runs onClose.
func newMergeCursor(srcs []schema.BatchCursor, coll trait.Collation, offset, fetch int64,
	batchSize int, onClose func()) *mergeCursor {
	if batchSize <= 0 {
		batchSize = schema.DefaultBatchSize
	}
	return &mergeCursor{srcs: srcs, coll: coll, heads: make([]mergeHead, len(srcs)),
		picks: make([]schema.Pick, 0, batchSize), offset: offset, fetch: fetch, batchSize: batchSize, onClose: onClose}
}

// load makes source i's head its next row, pulling batches as needed; false
// means the source has ended.
func (m *mergeCursor) load(i int32) (bool, error) {
	h := &m.heads[i]
	for h.pos >= h.n {
		b, err := m.srcs[i].NextBatch()
		if err == schema.Done {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		*h = mergeHead{vecs: batchVecs(b), sel: b.Sel, n: b.NumRows(), ref: -1}
	}
	return true, nil
}

func (m *mergeCursor) less(a, b int32) bool {
	ha, hb := &m.heads[a], &m.heads[b]
	c := compareKeys(m.coll, ha.vecs, ha.row(), hb.vecs, hb.row())
	return c < 0 || c == 0 && a < b
}

func (m *mergeCursor) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(m.heap) {
			return
		}
		if l+1 < len(m.heap) && m.less(m.heap[l+1], m.heap[l]) {
			l++
		}
		if !m.less(m.heap[l], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[l] = m.heap[l], m.heap[i]
		i = l
	}
}

func (m *mergeCursor) NextBatch() (*schema.Batch, error) {
	if m.done {
		return nil, schema.Done
	}
	b, err := m.next()
	if err != nil {
		m.Close()
	}
	return b, err
}

func (m *mergeCursor) next() (*schema.Batch, error) {
	if !m.primed {
		m.primed = true
		for i := range m.srcs {
			ok, err := m.load(int32(i))
			if err != nil {
				return nil, err
			}
			if ok {
				m.heap = append(m.heap, int32(i))
			}
		}
		for i := len(m.heap)/2 - 1; i >= 0; i-- {
			m.siftDown(i)
		}
	}
	var refs [][]*schema.Vector
	m.picks = m.picks[:0]
	for len(m.picks) < m.batchSize && len(m.heap) > 0 && (m.fetch < 0 || m.emitted < m.fetch) {
		src := m.heap[0]
		h := &m.heads[src]
		if m.skipped < m.offset {
			m.skipped++
		} else {
			if h.ref < 0 {
				h.ref = int32(len(refs))
				refs = append(refs, h.vecs)
			}
			m.picks = append(m.picks, schema.Pick{Src: h.ref, Row: int32(h.row())})
			m.emitted++
		}
		h.pos++
		ok, err := m.load(src)
		if err != nil {
			return nil, err
		}
		if !ok {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.siftDown(0)
	}
	if len(m.picks) == 0 {
		return nil, schema.Done
	}
	for i := range m.heads {
		m.heads[i].ref = -1
	}
	vecs := make([]*schema.Vector, len(refs[0]))
	col := make([]*schema.Vector, len(refs))
	for c := range vecs {
		for i, r := range refs {
			col[i] = r[c]
		}
		vecs[c] = schema.GatherPicks(col, m.picks)
	}
	m.seq++
	return &schema.Batch{Len: len(m.picks), Vecs: vecs, Seq: m.seq - 1}, nil
}

func (m *mergeCursor) Close() error {
	if m.done {
		return nil
	}
	m.done = true
	for _, s := range m.srcs {
		s.Close()
	}
	if m.onClose != nil {
		m.onClose()
	}
	return nil
}

// closingBatchCursor runs a hook when the cursor closes (reservation
// release).
type closingBatchCursor struct {
	schema.BatchCursor
	close func()
}

func (c *closingBatchCursor) Close() error {
	err := c.BatchCursor.Close()
	if c.close != nil {
		c.close()
		c.close = nil
	}
	return err
}
