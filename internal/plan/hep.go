package plan

import (
	"calcite/internal/meta"
	"calcite/internal/rel"
	"calcite/internal/trait"
)

// HepPlanner is the exhaustive planner engine of §6: it "triggers rules
// exhaustively until it generates an expression that is no longer modified
// by any rules", without tracking cost. It is useful for cheap, always-good
// rewrites (e.g. constant reduction, filter pushdown) and as a phase in
// multi-stage optimization programs.
type HepPlanner struct {
	// Meta is the metadata session offered to rules; a default session is
	// created if nil.
	Meta *meta.Query
	// MaxPasses bounds full passes over the tree per rule collection
	// (safety net against non-converging rule sets). Default 100.
	MaxPasses int

	rules []Rule
	// Stats
	Fired int
}

// NewHepPlanner creates a Hep planner with the given rules.
func NewHepPlanner(rules ...Rule) *HepPlanner {
	return &HepPlanner{rules: rules}
}

// hepSink collects the first transformation of a rule firing. The Hep
// planner performs destructive substitution: only the first equivalent
// expression is kept.
type hepSink struct {
	result rel.Node
}

func (s *hepSink) transform(c *Call, n rel.Node) {
	if s.result == nil {
		s.result = n
	}
}

func (s *hepSink) convert(input rel.Node, conv trait.Convention) rel.Node {
	// No equivalence sets: conversion placeholders degrade to the input.
	return input
}

// Optimize applies the planner's rules to root until fix point.
func (p *HepPlanner) Optimize(root rel.Node) rel.Node {
	if p.Meta == nil {
		p.Meta = meta.NewQuery()
	}
	maxPasses := p.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 100
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		root = p.applyOnce(root, &changed)
		if !changed {
			break
		}
		p.Meta.InvalidateCache()
	}
	return root
}

// applyOnce walks the tree bottom-up applying the first matching rule at
// each node, repeatedly until the node stabilizes.
func (p *HepPlanner) applyOnce(n rel.Node, changed *bool) rel.Node {
	// Rewrite children first.
	inputs := n.Inputs()
	if len(inputs) > 0 {
		newInputs := make([]rel.Node, len(inputs))
		childChanged := false
		for i, in := range inputs {
			newInputs[i] = p.applyOnce(in, changed)
			if newInputs[i] != in {
				childChanged = true
			}
		}
		if childChanged {
			n = n.WithNewInputs(newInputs)
		}
	}
	// Then this node, to fix point (bounded).
	for tries := 0; tries < 25; tries++ {
		next := p.applyRulesAt(n)
		if next == nil {
			break
		}
		*changed = true
		// The replacement subtree may expose new matches below; recurse.
		n = p.applyOnce(next, changed)
	}
	return n
}

func (p *HepPlanner) applyRulesAt(n rel.Node) rel.Node {
	for _, r := range p.rules {
		binding := matchConcrete(r.Operand(), n)
		if binding == nil {
			continue
		}
		sink := &hepSink{}
		call := &Call{Rels: binding, Meta: p.Meta, planner: sink}
		r.OnMatch(call)
		if sink.result != nil && p.Meta.Digests().ID(sink.result) != p.Meta.Digests().ID(n) {
			p.Fired++
			return sink.result
		}
	}
	return nil
}

// Program is a multi-stage optimization program (§6: "users may choose to
// generate multi-stage optimization logic, in which different sets of rules
// are applied in consecutive phases"). Each phase runs its own planner
// engine to fix point before the next phase starts. §9 lists "planner
// programs (collections of rules organized into planning phases)" as the
// direction Calcite's planner is evolving toward.
type Program struct {
	Phases []Phase
}

// Phase is one stage of a Program.
type Phase struct {
	// Name identifies the phase in traces.
	Name string
	// Rules applied during this phase.
	Rules []Rule
	// CostBased selects the Volcano engine for this phase; otherwise Hep.
	CostBased bool
	// Target is the required convention of the phase output (cost-based
	// phases only).
	Target trait.Convention
}

// Run executes the program.
func (pr *Program) Run(root rel.Node, mq *meta.Query) (rel.Node, error) {
	var err error
	for _, ph := range pr.Phases {
		if ph.CostBased {
			vp := NewVolcanoPlanner(ph.Rules...)
			vp.Meta = mq
			root, err = vp.Optimize(root, ph.Target)
			if err != nil {
				return nil, err
			}
		} else {
			hp := NewHepPlanner(ph.Rules...)
			hp.Meta = mq
			root = hp.Optimize(root)
		}
		if mq != nil {
			mq.InvalidateCache()
		}
	}
	return root, nil
}
