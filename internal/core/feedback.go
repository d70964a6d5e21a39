package core

// Plan-quality feedback wiring: the Framework owns one feedback.Store. At
// plan time the store's corrections enter the metadata provider chain
// (NewMetaQuery) and recorded build overshoots swap hash-join build/probe
// sides (applyAdaptiveTactics); at plan time the final physical tree's
// estimates are tabulated by stable operator path (planEstimates); after
// every traced execution the finished snapshot is harvested against that
// table, and a statement whose estimates drifted past the replan threshold
// has its cached plan evicted so the next execution re-plans with the
// corrected cardinalities.

import (
	"calcite/internal/exec"
	"calcite/internal/feedback"
	"calcite/internal/meta"
	"calcite/internal/obs"
	"calcite/internal/rel"
	"calcite/internal/rex"
)

// Feedback returns the framework's cardinality-feedback store, creating it
// on first use. The store exists (and serves empty reports) even when
// feedback is disabled, so observability endpoints never nil-check.
func (f *Framework) Feedback() *feedback.Store {
	f.fbMu.Lock()
	defer f.fbMu.Unlock()
	if f.fbStore == nil {
		f.fbStore = feedback.NewStore()
	}
	return f.fbStore
}

// feedbackIfEnabled returns the store, or nil when feedback is disabled.
func (f *Framework) feedbackIfEnabled() *feedback.Store {
	if f.DisableFeedback {
		return nil
	}
	return f.Feedback()
}

// planEstimates tabulates the optimized plan's per-operator row estimates by
// stable path id — the table spans are stamped from and harvests match
// against. Returns nil when feedback is disabled (nothing stamps, nothing
// harvests).
func (f *Framework) planEstimates(fingerprint string, physical rel.Node, mq *meta.Query) *feedback.PlanEstimates {
	if f.feedbackIfEnabled() == nil || physical == nil {
		return nil
	}
	return feedback.EstimatePlan(fingerprint, physical, mq.RowCount)
}

// harvestFeedback folds a finished execution into the feedback store and,
// when the store requests it (estimation error past the replan threshold or
// a recorded build overshoot), evicts the statement's cached plan so the
// next execution re-plans with corrected estimates.
func (f *Framework) harvestFeedback(snap *obs.TraceSnapshot, est *feedback.PlanEstimates) {
	fb := f.feedbackIfEnabled()
	if fb == nil || snap == nil || est == nil {
		return
	}
	if fb.Harvest(snap, est) {
		f.PlanCache().EvictFingerprint(snap.Fingerprint)
	}
}

// applyAdaptiveTactics is the post-optimization adaptive pass: inner hash
// joins whose shape has a recorded build-side overshoot get their build and
// probe sides swapped (with a projection restoring the output order), but
// only while the session's estimates — corrections included — still rank the
// build side larger, so an already-corrected plan is left alone. This is the
// 2-way-join counterpart of the correction loop: the join-order enumeration
// keeps two-table joins in written order, so corrected cardinalities alone
// never fix a backwards build side.
func (f *Framework) applyAdaptiveTactics(physical rel.Node, mq *meta.Query) rel.Node {
	fb := f.feedbackIfEnabled()
	if fb == nil || fb.SwapCount() == 0 || physical == nil {
		return physical
	}
	return rel.TransformUp(physical, func(n rel.Node) rel.Node {
		j, ok := n.(*exec.HashJoin)
		if !ok || j.Kind != rel.InnerJoin {
			return n
		}
		if !fb.PreferSwap(feedback.NodeKey(j)) {
			return n
		}
		if mq.RowCount(j.Right()) <= mq.RowCount(j.Left()) {
			return n
		}
		nLeft := rel.FieldCount(j.Left())
		nRight := rel.FieldCount(j.Right())
		mapping := make(map[int]int, nLeft+nRight)
		for i := 0; i < nLeft; i++ {
			mapping[i] = nRight + i
		}
		for k := 0; k < nRight; k++ {
			mapping[nLeft+k] = k
		}
		swapped := exec.NewHashJoin(rel.InnerJoin, j.Right(), j.Left(),
			rex.Remap(j.Condition, mapping))
		fields := j.RowType().Fields
		exprs := make([]rex.Node, len(fields))
		names := make([]string, len(fields))
		for i := 0; i < nLeft; i++ {
			exprs[i] = rex.NewInputRef(nRight+i, fields[i].Type)
			names[i] = fields[i].Name
		}
		for k := 0; k < nRight; k++ {
			exprs[nLeft+k] = rex.NewInputRef(k, fields[nLeft+k].Type)
			names[nLeft+k] = fields[nLeft+k].Name
		}
		fb.NoteSwapApplied()
		return exec.NewProject(swapped, exprs, names)
	})
}
