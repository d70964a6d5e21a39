package rex

import (
	"fmt"
	"strings"

	"calcite/internal/types"
)

// AggFuncKind enumerates the built-in aggregate functions.
type AggFuncKind int

const (
	AggCount AggFuncKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggCollect     // gathers values into a MULTISET
	AggSingleValue // asserts exactly one input value (scalar subqueries)

	// Window-only (ranking/navigation) functions. They are positional over
	// an ordered partition rather than folds over a frame, so they resolve
	// through LookupWindowFunc only — a GROUP BY aggregate can never name
	// them.
	AggRowNumber
	AggRank
	AggDenseRank
	AggLag
	AggLead
)

var aggNames = map[AggFuncKind]string{
	AggCount:       "COUNT",
	AggSum:         "SUM",
	AggMin:         "MIN",
	AggMax:         "MAX",
	AggAvg:         "AVG",
	AggCollect:     "COLLECT",
	AggSingleValue: "SINGLE_VALUE",
}

// winOnlyNames are the functions valid only under an OVER clause.
var winOnlyNames = map[AggFuncKind]string{
	AggRowNumber: "ROW_NUMBER",
	AggRank:      "RANK",
	AggDenseRank: "DENSE_RANK",
	AggLag:       "LAG",
	AggLead:      "LEAD",
}

func (k AggFuncKind) String() string {
	if n, ok := aggNames[k]; ok {
		return n
	}
	return winOnlyNames[k]
}

// WindowOnly reports whether k is a ranking/navigation function that is only
// meaningful under an OVER clause.
func (k AggFuncKind) WindowOnly() bool {
	_, ok := winOnlyNames[k]
	return ok
}

// LookupAggFunc resolves an aggregate function name.
func LookupAggFunc(name string) (AggFuncKind, bool) {
	for k, n := range aggNames {
		if strings.EqualFold(n, name) {
			return k, true
		}
	}
	return 0, false
}

// LookupWindowFunc resolves a function name usable under an OVER clause:
// every aggregate plus the ranking/navigation functions.
func LookupWindowFunc(name string) (AggFuncKind, bool) {
	if k, ok := LookupAggFunc(name); ok {
		return k, true
	}
	for k, n := range winOnlyNames {
		if strings.EqualFold(n, name) {
			return k, true
		}
	}
	return 0, false
}

// AggCall describes one aggregate computation of an Aggregate operator:
// the function, its argument ordinals into the input row (empty for
// COUNT(*)), DISTINCT-ness, and the output field name.
type AggCall struct {
	Func     AggFuncKind
	Args     []int
	Distinct bool
	Name     string
	// FilterArg, when >= 0, is the ordinal of a boolean input column gating
	// which rows the aggregate sees (FILTER clause). -1 means no filter.
	FilterArg int
}

// NewAggCall returns an AggCall with no filter.
func NewAggCall(f AggFuncKind, args []int, distinct bool, name string) AggCall {
	return AggCall{Func: f, Args: args, Distinct: distinct, Name: name, FilterArg: -1}
}

// ResultType computes the aggregate's result type from its input field types.
func (a AggCall) ResultType(inputFields []types.Field) *types.Type {
	switch a.Func {
	case AggCount:
		return types.BigInt
	case AggAvg:
		return types.Double.WithNullable(true)
	case AggSum, AggMin, AggMax, AggSingleValue:
		if len(a.Args) > 0 && a.Args[0] < len(inputFields) {
			return inputFields[a.Args[0]].Type.WithNullable(true)
		}
		return types.Any
	case AggCollect:
		elem := types.Any
		if len(a.Args) > 0 && a.Args[0] < len(inputFields) {
			elem = inputFields[a.Args[0]].Type
		}
		return types.Multiset(elem)
	case AggRowNumber, AggRank, AggDenseRank:
		return types.BigInt
	case AggLag, AggLead:
		if len(a.Args) > 0 && a.Args[0] < len(inputFields) {
			return inputFields[a.Args[0]].Type.WithNullable(true)
		}
		return types.Any
	}
	return types.Any
}

// String renders the call for digests, e.g. "SUM(DISTINCT $2)".
func (a AggCall) String() string {
	var b strings.Builder
	b.WriteString(a.Func.String())
	b.WriteByte('(')
	if a.Distinct {
		b.WriteString("DISTINCT ")
	}
	if len(a.Args) == 0 {
		if a.Func == AggCount {
			b.WriteByte('*')
		}
	} else {
		for i, arg := range a.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "$%d", arg)
		}
	}
	b.WriteByte(')')
	if a.FilterArg >= 0 {
		fmt.Fprintf(&b, " FILTER $%d", a.FilterArg)
	}
	return b.String()
}

// Accumulator is the running state of one aggregate over one group.
type Accumulator interface {
	// Add feeds one input row.
	Add(row []any) error
	// Result returns the aggregate value for the group.
	Result() any
}

// Retractable is an accumulator that can remove a previously Added row —
// the incremental-frame hook of the window operator: a sliding frame
// evaluates in O(n) per partition by adding entering rows and retracting
// departing ones instead of recomputing every frame from scratch (the
// FO+MOD-style maintenance-under-updates of Berkholz et al.).
type Retractable interface {
	Accumulator
	// Retract removes one row previously fed to Add. Retracting a row that
	// was never added is undefined.
	Retract(row []any) error
}

// CanRetract reports whether the call's accumulator supports retraction
// (SUM/COUNT/AVG without DISTINCT). MIN/MAX slide via a monotonic deque in
// the window operator; everything else falls back to per-frame recompute.
func CanRetract(a AggCall) bool {
	if a.Distinct {
		return false
	}
	switch a.Func {
	case AggSum, AggCount, AggAvg:
		return true
	}
	return false
}

// HeldValues returns the argument values a value-retaining accumulator
// (COLLECT, SINGLE_VALUE, any DISTINCT call) holds, in the order it took
// them: its whole state, which adding them again rebuilds. Other
// accumulators hold none.
func HeldValues(a Accumulator) []any {
	switch s := a.(type) {
	case *aggState:
		return s.values
	case *distinctState:
		return s.vals
	}
	return nil
}

// NewAccumulator creates the accumulator for an aggregate call.
func NewAccumulator(a AggCall) Accumulator {
	base := &aggState{call: a}
	if a.Distinct {
		return &distinctState{inner: base, seen: map[string]bool{}}
	}
	return base
}

type aggState struct {
	call  AggCall
	count int64
	sumF  float64
	sumI  int64
	// floats counts the non-integer values currently contributing to the
	// sums. Integer values always feed both sums, so when every float has
	// been retracted from a sliding frame (floats back to 0) the exact
	// integer sum is still on hand — SUM's result type follows the live
	// frame contents, matching a from-scratch recompute.
	floats  int64
	started bool
	minV    any
	maxV    any
	values  []any
}

func (s *aggState) Add(row []any) error {
	if s.call.FilterArg >= 0 {
		keep, _ := row[s.call.FilterArg].(bool)
		if !keep {
			return nil
		}
	}
	if len(s.call.Args) == 0 { // COUNT(*)
		s.count++
		return nil
	}
	v := row[s.call.Args[0]]
	if v == nil {
		return nil // aggregates ignore NULLs
	}
	if !s.started {
		s.started = true
		s.minV, s.maxV = v, v
	}
	s.count++
	switch s.call.Func {
	case AggSum, AggAvg:
		if i, ok := v.(int64); ok {
			s.sumI += i
			s.sumF += float64(i)
		} else {
			f, ok := types.AsFloat(v)
			if !ok {
				return fmt.Errorf("rex: %s over non-numeric %T", s.call.Func, v)
			}
			s.floats++
			s.sumF += f
		}
	case AggMin:
		if types.Compare(v, s.minV) < 0 {
			s.minV = v
		}
	case AggMax:
		if types.Compare(v, s.maxV) > 0 {
			s.maxV = v
		}
	case AggCollect:
		s.values = append(s.values, v)
	case AggSingleValue:
		s.values = append(s.values, v)
		if len(s.values) > 1 {
			return fmt.Errorf("rex: subquery returned more than one value")
		}
	}
	return nil
}

func (s *aggState) Result() any {
	switch s.call.Func {
	case AggCount:
		return s.count
	case AggSum:
		if !s.started {
			return nil
		}
		if s.floats == 0 {
			return s.sumI
		}
		return s.sumF
	case AggAvg:
		if s.count == 0 {
			return nil
		}
		return s.sumF / float64(s.count)
	case AggMin:
		return s.minV
	case AggMax:
		return s.maxV
	case AggCollect:
		return append([]any(nil), s.values...)
	case AggSingleValue:
		if len(s.values) == 0 {
			return nil
		}
		return s.values[0]
	}
	return nil
}

// Retract removes one previously Added row (SUM/COUNT/AVG only). When the
// last row leaves, the state resets to pristine so SUM over an empty frame
// is NULL again and integer sums recover exactness for later frames.
func (s *aggState) Retract(row []any) error {
	if s.call.FilterArg >= 0 {
		keep, _ := row[s.call.FilterArg].(bool)
		if !keep {
			return nil
		}
	}
	if len(s.call.Args) == 0 { // COUNT(*)
		if s.call.Func != AggCount {
			return fmt.Errorf("rex: %s does not support retraction", s.call.Func)
		}
		s.count--
		return nil
	}
	v := row[s.call.Args[0]]
	if v == nil {
		return nil // NULLs were never added
	}
	switch s.call.Func {
	case AggSum, AggAvg:
		// Mirror Add exactly, so every retraction undoes precisely what the
		// matching Add contributed.
		if i, ok := v.(int64); ok {
			s.sumI -= i
			s.sumF -= float64(i)
		} else {
			f, ok := types.AsFloat(v)
			if !ok {
				return fmt.Errorf("rex: %s over non-numeric %T", s.call.Func, v)
			}
			s.floats--
			s.sumF -= f
		}
	case AggCount:
	default:
		return fmt.Errorf("rex: %s does not support retraction", s.call.Func)
	}
	s.count--
	if s.count == 0 {
		s.started = false
		s.sumI, s.sumF = 0, 0
		s.floats = 0
	}
	return nil
}

type distinctState struct {
	inner Accumulator
	seen  map[string]bool
	// vals retains the distinct values in first-seen order: the state that
	// leaves the engine (HeldValues) and, added again, deduplicates the
	// values other workers or flushes saw too.
	vals []any
}

func (d *distinctState) Add(row []any) error {
	s := d.inner.(*aggState)
	if s.call.FilterArg >= 0 {
		// Filter before dedup: a filtered-out row must not mark its value
		// seen (it never reached the aggregate), or a later passing row
		// with the same value would be dropped.
		if keep, _ := row[s.call.FilterArg].(bool); !keep {
			return nil
		}
	}
	if len(s.call.Args) > 0 {
		v := row[s.call.Args[0]]
		if v == nil {
			return nil
		}
		k := types.HashKey(v)
		if d.seen[k] {
			return nil
		}
		d.seen[k] = true
		d.vals = append(d.vals, v)
	}
	return d.inner.Add(row)
}

func (d *distinctState) Result() any { return d.inner.Result() }
