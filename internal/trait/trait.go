// Package trait implements the physical-property ("trait") framework of §4
// of the paper. A trait describes a physical property of the data produced by
// a relational expression without changing its logical semantics. Three
// traits are implemented: the calling convention (which engine executes the
// expression), collation (sort order) — both as in Calcite — and
// distribution (whether rows flow through one stream or spread over the
// partitions of a parallel plan).
//
// The planner reasons about traits to remove redundant work and to place
// operators correctly: a Sort whose input already satisfies its collation is
// removed, an adapter absorbs operators by converting conventions (Figure 2
// of the paper), and the parallel rewriter inserts a gather exactly where a
// serial operator would read a partitioned input.
package trait

import (
	"fmt"
	"strings"
)

// Convention identifies the data processing system an expression executes
// on. It is the key mechanism behind cross-system optimization: an adapter
// contributes a Convention plus converter rules, and the planner treats the
// convention like any other physical property.
type Convention interface {
	// ConventionName returns a short unique name, e.g. "logical",
	// "enumerable", "splunk".
	ConventionName() string
}

type namedConvention string

func (c namedConvention) ConventionName() string { return string(c) }

// NewConvention returns a convention with the given name. Conventions with
// the same name compare equal via Name comparison; adapters usually create
// one per schema instance.
func NewConvention(name string) Convention { return namedConvention(name) }

// Logical is the convention of purely logical expressions: no implementation
// has been chosen yet (the "logical convention" of Figure 2).
var Logical = NewConvention("logical")

// Enumerable is the built-in client-side convention: operators that iterate
// over tuples via the cursor interface (§5 of the paper).
var Enumerable = NewConvention("enumerable")

// SameConvention reports whether two conventions are the same.
func SameConvention(a, b Convention) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.ConventionName() == b.ConventionName()
}

// Direction is a sort direction.
type Direction int

const (
	Ascending Direction = iota
	Descending
)

func (d Direction) String() string {
	if d == Descending {
		return "DESC"
	}
	return "ASC"
}

// FieldCollation is one column of a collation: the ordinal of the sorted
// field and its direction.
type FieldCollation struct {
	Field     int
	Direction Direction
}

func (f FieldCollation) String() string {
	return fmt.Sprintf("$%d %s", f.Field, f.Direction)
}

// Collation is an ordered list of field collations describing the sort order
// of the rows produced by an expression. An empty collation means "no
// ordering guaranteed".
type Collation []FieldCollation

func (c Collation) String() string {
	if len(c) == 0 {
		return "any"
	}
	parts := make([]string, len(c))
	for i, f := range c {
		parts[i] = f.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Equal reports whether two collations are identical.
func (c Collation) Equal(o Collation) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Satisfies reports whether data ordered by c is also ordered by required —
// i.e. required is a prefix of c. This is the check behind sort elimination
// and behind the Cassandra sort-pushdown precondition (§6: "the sorting of
// partitions … has some common prefix with the required sort").
func (c Collation) Satisfies(required Collation) bool {
	if len(required) > len(c) {
		return false
	}
	for i := range required {
		if c[i] != required[i] {
			return false
		}
	}
	return true
}

// DistributionKind classifies how the rows of an expression are spread
// across parallel workers.
type DistributionKind int

const (
	// DistAny is the zero value: the distribution is unknown or
	// unconstrained.
	DistAny DistributionKind = iota
	// DistSingleton means all rows flow through a single stream.
	DistSingleton
	// DistRandom means rows are partitioned with no placement guarantee
	// (morsel-driven scans and the operators above them).
	DistRandom
)

// Distribution is the physical trait describing data placement across the
// partitions of a parallel plan. It plays the same role for exchange
// placement that Collation plays for sort elimination: a serial operator
// over a partitioned input needs a gather in between.
type Distribution struct {
	Kind DistributionKind
}

// AnyDist is the unconstrained distribution (the zero value).
var AnyDist = Distribution{}

// Singleton returns the single-stream distribution.
func Singleton() Distribution { return Distribution{Kind: DistSingleton} }

// RandomDist returns the arbitrary (morsel) distribution.
func RandomDist() Distribution { return Distribution{Kind: DistRandom} }

// Partitioned reports whether rows are spread over more than one stream.
func (d Distribution) Partitioned() bool { return d.Kind == DistRandom }

func (d Distribution) String() string {
	switch d.Kind {
	case DistSingleton:
		return "singleton"
	case DistRandom:
		return "random"
	}
	return "any"
}

// Set is the trait set attached to every relational expression.
type Set struct {
	Convention   Convention
	Collation    Collation
	Distribution Distribution
}

// NewSet returns a trait set with the given convention and no collation.
func NewSet(c Convention) Set { return Set{Convention: c} }

// WithCollation returns a copy of s with the collation replaced.
func (s Set) WithCollation(c Collation) Set {
	s.Collation = c
	return s
}

// WithConvention returns a copy of s with the convention replaced.
func (s Set) WithConvention(c Convention) Set {
	s.Convention = c
	return s
}

// WithDistribution returns a copy of s with the distribution replaced.
func (s Set) WithDistribution(d Distribution) Set {
	s.Distribution = d
	return s
}

func (s Set) String() string {
	name := "none"
	if s.Convention != nil {
		name = s.Convention.ConventionName()
	}
	if len(s.Collation) > 0 {
		name += "." + s.Collation.String()
	}
	if s.Distribution.Kind != DistAny {
		name += "." + s.Distribution.String()
	}
	return name
}
