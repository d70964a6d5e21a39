package main

// The benchmark's own tracing: spans recorded around its calls into each
// layer, kept in memory and written out when the run ends. Nothing here runs
// in the untraced pass.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Spans of one operation share Stmt; Parent is the ID
// of the span that caused this one (0 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Rows    int64  `json:"rows,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, stmt int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: stmt, Name: name,
		StartNs: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.EndNs = int64(time.Since(t.t0))
	return s.EndNs - s.StartNs
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel calls) and are clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// maxTraceStatements bounds the trace file: metrics use every span, the file
// keeps the spans of the first statements so a committed baseline stays small.
const maxTraceStatements = 100

// traceFile is what a traced run writes to DIR/trace-<workload>.json.
type traceFile struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Statements int               `json:"statements"`
	Truncated  bool              `json:"truncated"`
	SelfNs     map[string]int64  `json:"self_ns_by_name"`
	Env        map[string]string `json:"env"`
	Spans      []span            `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, statements int) error {
	self := selfTimes(t.spans)
	byName := map[string]int64{}
	for _, s := range t.spans {
		byName[s.Name] += self[s.ID]
	}
	f := traceFile{Workload: workload, Seed: seed, Statements: statements, SelfNs: byName, Env: environment()}
	for _, s := range t.spans {
		if s.Stmt > maxTraceStatements {
			f.Truncated = true
			break
		}
		f.Spans = append(f.Spans, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
