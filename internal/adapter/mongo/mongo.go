// Package mongo simulates a MongoDB-like document store for the
// semi-structured data support of §7.1: collections of JSON-like documents
// are exposed to the framework as tables with a single column named _MAP (a
// map from field names to values). Typed relational views are defined over
// the raw collections with CAST(_MAP['field'] AS type) projections — the
// paper's zips example. Pushed-down filters reach the store as JSON query
// documents (Table 2: "MongoDB → Java/JSON").
package mongo

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"calcite/internal/types"
)

// Store is the document database; filters arrive as JSON find documents.
type Store struct {
	mu          sync.Mutex
	collections map[string][]map[string]any
	// Queries records every find document received, as
	// "db.<collection>.find(<json>)".
	Queries []string
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{collections: map[string][]map[string]any{}} }

// AddCollection loads documents into a collection.
func (s *Store) AddCollection(name string, docs []map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collections[strings.ToLower(name)] = docs
}

// CollectionNames lists collections.
func (s *Store) CollectionNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LastQuery returns the most recent find document received.
func (s *Store) LastQuery() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.Queries) == 0 {
		return ""
	}
	return s.Queries[len(s.Queries)-1]
}

// Find executes a JSON filter document against a collection. Supported
// operators per field: direct value (equality), {"$eq": v}, {"$gt": v},
// {"$gte": v}, {"$lt": v}, {"$lte": v}, {"$ne": v}.
func (s *Store) Find(collection, filterJSON string) ([]map[string]any, error) {
	s.mu.Lock()
	docs, ok := s.collections[strings.ToLower(collection)]
	s.Queries = append(s.Queries, fmt.Sprintf("db.%s.find(%s)", collection, filterJSON))
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mongo: unknown collection %q", collection)
	}
	var filter map[string]any
	if strings.TrimSpace(filterJSON) == "" {
		filter = map[string]any{}
	} else if err := json.Unmarshal([]byte(filterJSON), &filter); err != nil {
		return nil, fmt.Errorf("mongo: bad filter %q: %v", filterJSON, err)
	}
	var out []map[string]any
	for _, doc := range docs {
		match, err := matches(doc, filter)
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, doc)
		}
	}
	return out, nil
}

func matches(doc map[string]any, filter map[string]any) (bool, error) {
	for field, cond := range filter {
		val, present := doc[field]
		ops, isOps := cond.(map[string]any)
		if !isOps {
			if !present || types.Compare(types.Normalize(val), types.Normalize(cond)) != 0 {
				return false, nil
			}
			continue
		}
		for op, want := range ops {
			if !present {
				return false, nil
			}
			cmp := types.Compare(types.Normalize(val), types.Normalize(want))
			okCmp := false
			switch op {
			case "$eq":
				okCmp = cmp == 0
			case "$ne":
				okCmp = cmp != 0
			case "$gt":
				okCmp = cmp > 0
			case "$gte":
				okCmp = cmp >= 0
			case "$lt":
				okCmp = cmp < 0
			case "$lte":
				okCmp = cmp <= 0
			default:
				return false, fmt.Errorf("mongo: unsupported operator %q", op)
			}
			if !okCmp {
				return false, nil
			}
		}
	}
	return true, nil
}
