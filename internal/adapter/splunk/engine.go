// Package splunk simulates the Splunk backend of Figure 2 of the paper: a
// log/event store queried through an SPL-like search pipeline language, with
// an ODBC-style lookup facility into an external SQL database. It is the
// backend that demonstrates the paper's headline cross-system optimization:
// a filter pushed into the splunk convention by an adapter rule, and a join
// pushed through the splunk-to-enumerable converter so it runs inside the
// Splunk engine via lookups.
//
// The search language (a faithful miniature of SPL):
//
//	search index=orders units>25 product_id=3 region="north east"
//	    | fields product_id, units
//	    | lookup products id=product_id output name
//	    | head 10
//
// A string value is double-quoted, with Go's escapes, so it may hold blanks,
// pipes and comparison signs.
package splunk

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"calcite/internal/types"
)

// LookupFunc resolves an external lookup: given the remote table, key column
// and key value, it returns matching remote rows and their column names —
// "Splunk can perform lookups into MySQL via ODBC" (§4).
type LookupFunc func(table, keyColumn string, value any) (cols []string, rows [][]any, err error)

// Index is one event index (a table of events).
type Index struct {
	Name   string
	Fields []types.Field
	Events [][]any
}

// Engine is the Splunk-like server. All access goes through Search.
type Engine struct {
	// Network simulates the wire to this backend (per request + per result
	// row); zero by default.
	Network NetworkCost

	mu      sync.Mutex
	indexes map[string]*Index
	lookup  LookupFunc
	// Queries records every SPL string received.
	Queries []string
}

// NetworkCost models the wire between the framework and the engine.
type NetworkCost struct {
	PerRequest time.Duration
	PerRow     time.Duration
}

// Charge sleeps for the simulated transfer of n result rows.
func (c NetworkCost) Charge(rows int) {
	d := c.PerRequest + time.Duration(rows)*c.PerRow
	if d > 0 {
		time.Sleep(d)
	}
}

// NewEngine creates an empty engine.
func NewEngine() *Engine { return &Engine{indexes: map[string]*Index{}} }

// AddIndex registers an event index, holding its events normalized
// (types.Normalize) in a copy of idx.
func (e *Engine) AddIndex(idx *Index) {
	events := make([][]any, len(idx.Events))
	for i, ev := range idx.Events {
		events[i] = types.NormalizeRow(ev)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.indexes[strings.ToLower(idx.Name)] = &Index{Name: idx.Name, Fields: idx.Fields, Events: events}
}

// SetLookup wires the external lookup facility (the ODBC connection of
// Figure 2).
func (e *Engine) SetLookup(f LookupFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lookup = f
}

// IndexNames lists indexes.
func (e *Engine) IndexNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var names []string
	for _, idx := range e.indexes {
		names = append(names, idx.Name)
	}
	return names
}

// LastQuery returns the most recent SPL text received.
func (e *Engine) LastQuery() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.Queries) == 0 {
		return ""
	}
	return e.Queries[len(e.Queries)-1]
}

// Search executes an SPL pipeline and returns column names plus rows.
func (e *Engine) Search(spl string) ([]string, [][]any, error) {
	e.mu.Lock()
	e.Queries = append(e.Queries, spl)
	lookup := e.lookup
	e.mu.Unlock()

	stages := splitUnquoted(spl, func(c byte) bool { return c == '|' })
	if len(stages) == 0 || !strings.HasPrefix(strings.TrimSpace(stages[0]), "search ") {
		return nil, nil, fmt.Errorf("splunk: query must start with 'search': %q", spl)
	}
	cols, rows, err := e.runSearch(strings.TrimSpace(stages[0])[len("search "):])
	if err != nil {
		return nil, nil, err
	}
	defer func() { e.Network.Charge(len(rows)) }()
	for _, stage := range stages[1:] {
		stage = strings.TrimSpace(stage)
		switch {
		case strings.HasPrefix(stage, "fields "):
			cols, rows, err = applyFields(strings.TrimSpace(stage[len("fields "):]), cols, rows)
		case strings.HasPrefix(stage, "lookup "):
			if lookup == nil {
				return nil, nil, fmt.Errorf("splunk: no lookup connection configured")
			}
			cols, rows, err = applyLookup(strings.TrimSpace(stage[len("lookup "):]), cols, rows, lookup)
		case strings.HasPrefix(stage, "head "):
			n, perr := strconv.Atoi(strings.TrimSpace(stage[len("head "):]))
			if perr != nil {
				return nil, nil, fmt.Errorf("splunk: bad head count in %q", stage)
			}
			if n < len(rows) {
				rows = rows[:n]
			}
		default:
			return nil, nil, fmt.Errorf("splunk: unknown pipeline stage %q", stage)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return cols, rows, nil
}

// runSearch evaluates "index=NAME [cond ...]".
func (e *Engine) runSearch(clause string) ([]string, [][]any, error) {
	terms := splitUnquoted(clause, func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' })
	if len(terms) == 0 || !strings.HasPrefix(terms[0], "index=") {
		return nil, nil, fmt.Errorf("splunk: search must name an index, got %q", clause)
	}
	name := strings.TrimPrefix(terms[0], "index=")
	e.mu.Lock()
	idx, ok := e.indexes[strings.ToLower(name)]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("splunk: unknown index %q", name)
	}
	cols := make([]string, len(idx.Fields))
	colPos := map[string]int{}
	for i, f := range idx.Fields {
		cols[i] = f.Name
		colPos[strings.ToLower(f.Name)] = i
	}
	type cond struct {
		col int
		op  string
		val any
	}
	var conds []cond
	for _, term := range terms[1:] {
		c, op, v, err := splitCond(term)
		if err != nil {
			return nil, nil, err
		}
		pos, ok := colPos[strings.ToLower(c)]
		if !ok {
			return nil, nil, fmt.Errorf("splunk: unknown field %q in index %q", c, name)
		}
		conds = append(conds, cond{col: pos, op: op, val: v})
	}
	var out [][]any
	for _, ev := range idx.Events {
		keep := true
		for _, c := range conds {
			cmp := types.Compare(ev[c.col], c.val)
			switch c.op {
			case "=":
				keep = ev[c.col] != nil && cmp == 0
			case "!=":
				keep = ev[c.col] != nil && cmp != 0
			case ">":
				keep = ev[c.col] != nil && cmp > 0
			case ">=":
				keep = ev[c.col] != nil && cmp >= 0
			case "<":
				keep = ev[c.col] != nil && cmp < 0
			case "<=":
				keep = ev[c.col] != nil && cmp <= 0
			}
			if !keep {
				break
			}
		}
		if keep {
			out = append(out, ev)
		}
	}
	return cols, out, nil
}

// splitUnquoted splits s at each byte sep accepts outside a double-quoted
// string, dropping empty parts.
func splitUnquoted(s string, sep func(byte) bool) []string {
	var parts []string
	start, quoted := 0, false
	for i := 0; i <= len(s); i++ {
		switch {
		case i == len(s) || !quoted && sep(s[i]):
			if strings.TrimSpace(s[start:i]) != "" {
				parts = append(parts, s[start:i])
			}
			start = i + 1
		case s[i] == '"':
			quoted = !quoted
		case quoted && s[i] == '\\':
			i++ // the escaped byte
		}
	}
	return parts
}

// splitCond splits "field>=value" into parts: the operator is the first
// comparison sign, since a field name holds none.
func splitCond(term string) (string, string, any, error) {
	i := strings.IndexAny(term, "<>!=")
	if i > 0 {
		op := term[i : i+1]
		if i+1 < len(term) && term[i+1] == '=' && op != "=" {
			op += "="
		}
		if op != "!" {
			return term[:i], op, parseSPLValue(term[i+len(op):]), nil
		}
	}
	return "", "", nil, fmt.Errorf("splunk: cannot parse condition %q", term)
}

func parseSPLValue(raw string) any {
	if s, err := strconv.Unquote(raw); err == nil && strings.HasPrefix(raw, `"`) {
		return s
	}
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return f
	}
	return raw
}

func applyFields(spec string, cols []string, rows [][]any) ([]string, [][]any, error) {
	var keep []int
	var outCols []string
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		found := -1
		for i, c := range cols {
			if strings.EqualFold(c, f) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, fmt.Errorf("splunk: fields: unknown field %q", f)
		}
		keep = append(keep, found)
		outCols = append(outCols, cols[found])
	}
	out := make([][]any, len(rows))
	for ri, row := range rows {
		nr := make([]any, len(keep))
		for i, k := range keep {
			nr[i] = row[k]
		}
		out[ri] = nr
	}
	return outCols, out, nil
}

// applyLookup evaluates "table remoteKey=localField output col1,col2":
// for each row, look the local field's value up in the external table and
// append the requested remote columns (inner semantics: rows without a
// match are dropped, implementing the pushed-down join of Figure 2).
func applyLookup(spec string, cols []string, rows [][]any, lookup LookupFunc) ([]string, [][]any, error) {
	parts := strings.Fields(spec)
	if len(parts) < 4 || !strings.EqualFold(parts[2], "output") {
		return nil, nil, fmt.Errorf("splunk: lookup syntax: 'lookup <table> <remoteKey>=<localField> output <cols>', got %q", spec)
	}
	table := parts[0]
	kv := strings.SplitN(parts[1], "=", 2)
	if len(kv) != 2 {
		return nil, nil, fmt.Errorf("splunk: lookup key spec %q", parts[1])
	}
	remoteKey, localField := kv[0], kv[1]
	localPos := -1
	for i, c := range cols {
		if strings.EqualFold(c, localField) {
			localPos = i
			break
		}
	}
	if localPos < 0 {
		return nil, nil, fmt.Errorf("splunk: lookup local field %q not found", localField)
	}
	wanted := strings.Split(strings.Join(parts[3:], ""), ",")

	var out [][]any
	outCols := append(append([]string{}, cols...), wanted...)
	// Real Splunk caches lookup tables; cache per distinct key here so a
	// repeated key costs one external call.
	type cached struct {
		cols []string
		rows [][]any
	}
	lookupCache := map[string]cached{}
	for _, row := range rows {
		ck := fmt.Sprint(row[localPos])
		hit, ok := lookupCache[ck]
		if !ok {
			rcols2, rrows2, err := lookup(table, remoteKey, row[localPos])
			if err != nil {
				return nil, nil, err
			}
			hit = cached{cols: rcols2, rows: rrows2}
			lookupCache[ck] = hit
		}
		rcols, rrows := hit.cols, hit.rows
		for _, rrow := range rrows {
			merged := append(append([]any{}, row...), make([]any, len(wanted))...)
			for wi, w := range wanted {
				for ci, rc := range rcols {
					if strings.EqualFold(rc, strings.TrimSpace(w)) {
						merged[len(cols)+wi] = rrow[ci]
						break
					}
				}
			}
			out = append(out, merged)
		}
	}
	return outCols, out, nil
}
