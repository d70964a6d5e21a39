package types

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Runtime value representation
//
// Rows flowing through the engine are []any. Scalar values use a small,
// closed set of Go types, enforced where values enter the engine (Normalize):
//
//	BOOLEAN            bool
//	TINYINT..BIGINT    int64
//	FLOAT, DOUBLE      float64
//	DECIMAL            float64 (see DESIGN.md substitution notes)
//	VARCHAR, CHAR      string
//	TIMESTAMP/DATE/... int64 (epoch millis / days / millis-of-day / millis)
//	ARRAY, MULTISET    []any
//	MAP                map[string]any
//	ROW                []any
//	GEOMETRY           geo.Geometry (opaque here; implements fmt.Stringer)
//	NULL               nil
//
// Everything past the entry points — operators, vectors, the spill codec,
// hashing and comparison — handles only this set.

// Normalize maps a Go value arriving from outside the engine (a table's rows,
// a backend's results, a statement parameter, a builder literal) into the
// runtime value set: Go's other signed and unsigned integer kinds become
// int64 (an unsigned value above math.MaxInt64 becomes float64, keeping its
// magnitude), float32 becomes float64, and time.Time becomes epoch-millis
// int64, the TIMESTAMP/DATE representation. Arrays and maps are walked
// copy-on-write: a container none of whose elements changes is returned as
// is, and one that does is copied, never modified, since it may belong to the
// caller or a backend. Every other value passes through unchanged.
func Normalize(v any) any {
	switch v.(type) {
	case nil, int64, float64, string:
		// Most values: answered inline, without normalize's full switch.
		return v
	}
	n, _ := normalize(v)
	return n
}

// NormalizeRow is Normalize over a row without boxing the slice: row itself
// when no value changes, else a normalized copy.
func NormalizeRow(row []any) []any {
	out, _ := normalizeSlice(row)
	return out
}

// normalize is Normalize, also reporting whether the value changed.
func normalize(v any) (any, bool) {
	switch x := v.(type) {
	case nil, bool, int64, float64, string:
		return v, false
	case int:
		return int64(x), true
	case int8:
		return int64(x), true
	case int16:
		return int64(x), true
	case int32:
		return int64(x), true
	case uint:
		return normalizeUint(uint64(x)), true
	case uint8:
		return int64(x), true
	case uint16:
		return int64(x), true
	case uint32:
		return int64(x), true
	case uint64:
		return normalizeUint(x), true
	case float32:
		return float64(x), true
	case time.Time:
		return x.UnixMilli(), true
	case []any:
		if out, changed := normalizeSlice(x); changed {
			return out, true
		}
		return v, false
	case map[string]any:
		var out map[string]any
		for k, e := range x {
			if n, changed := normalize(e); changed {
				if out == nil {
					out = maps.Clone(x)
				}
				out[k] = n
			}
		}
		if out == nil {
			return v, false
		}
		return out, true
	}
	return v, false
}

// normalizeSlice normalizes the elements of s copy-on-write.
func normalizeSlice(s []any) ([]any, bool) {
	var out []any
	for i, e := range s {
		n, changed := normalize(e)
		if changed && out == nil {
			out = slices.Clone(s)
		}
		if out != nil {
			out[i] = n
		}
	}
	if out == nil {
		return s, false
	}
	return out, true
}

func normalizeUint(x uint64) any {
	if x > math.MaxInt64 {
		return float64(x)
	}
	return int64(x)
}

// AsFloat coerces a numeric runtime value to float64.
func AsFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsInt coerces a numeric runtime value to int64.
func AsInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	}
	return 0, false
}

// Compare orders two runtime values. NULL sorts before everything (SQL's
// NULLS FIRST default for ascending order in this engine). Values of
// mismatched numeric Go types are compared numerically. The result is
// -1, 0 or +1. Comparison of incomparable dynamic types falls back to the
// string forms so that sorting is always total (needed by sort stability and
// digest determinism), but operators should have coerced operands already.
func Compare(a, b any) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		// Integer against integer only: a float operand compares in float64
		// below (AsInt would truncate it, making 2 < 2.5 false here while
		// Compare(2.5, 2) and the typed vector kernels say otherwise).
		if _, isFloat := b.(float64); !isFloat {
			if y, ok := AsInt(b); ok {
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		}
		if y, ok := AsFloat(b); ok {
			return compareFloat(float64(x), y)
		}
	case float64:
		if y, ok := AsFloat(b); ok {
			return compareFloat(x, y)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case !x && y:
				return -1
			case x && !y:
				return 1
			}
			return 0
		}
	case []any:
		if y, ok := b.([]any); ok {
			for i := 0; i < len(x) && i < len(y); i++ {
				if c := Compare(x[i], y[i]); c != 0 {
					return c
				}
			}
			return len(x) - len(y)
		}
	}
	return strings.Compare(FormatValue(a), FormatValue(b))
}

func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case math.IsNaN(x) && !math.IsNaN(y):
		return -1
	case !math.IsNaN(x) && math.IsNaN(y):
		return 1
	}
	return 0
}

// ValuesEqual reports SQL equality of two runtime values (NULL equals
// nothing; use Compare for ordering, which treats NULLs as comparable).
func ValuesEqual(a, b any) bool {
	if a == nil || b == nil {
		return false
	}
	return Compare(a, b) == 0
}

// HashKey produces a deterministic string key for grouping/joining on a
// runtime value. Numeric values hash to the same key regardless of int/float
// representation when integral.
func HashKey(v any) string {
	switch x := v.(type) {
	case nil:
		return "\x00N"
	case bool:
		if x {
			return "\x00T"
		}
		return "\x00F"
	case int64:
		return "\x00i" + strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
			return "\x00i" + strconv.FormatInt(int64(x), 10)
		}
		return "\x00f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "\x00s" + x
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = HashKey(e)
		}
		return "\x00a[" + strings.Join(parts, ",") + "]"
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + HashKey(x[k])
		}
		return "\x00m{" + strings.Join(parts, ",") + "}"
	default:
		return "\x00?" + FormatValue(v)
	}
}

// HashRowKey produces a grouping key over selected columns of a row.
func HashRowKey(row []any, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		b.WriteString(HashKey(row[c]))
		b.WriteByte('|')
	}
	return b.String()
}

// FormatValue renders a runtime value for display (EXPLAIN output, the SQL
// shell, and literal digests).
func FormatValue(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatValue(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s: %s", k, FormatValue(x[k]))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatTimestampMillis renders an epoch-milliseconds timestamp.
func FormatTimestampMillis(ms int64) string {
	return time.UnixMilli(ms).UTC().Format("2006-01-02 15:04:05.000")
}

// ParseTimestampMillis parses "YYYY-MM-DD HH:MM:SS[.mmm]" (or a date) into
// epoch milliseconds.
func ParseTimestampMillis(s string) (int64, error) {
	for _, layout := range []string{
		"2006-01-02 15:04:05.000",
		"2006-01-02 15:04:05",
		"2006-01-02T15:04:05Z",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMilli(), nil
		}
	}
	return 0, fmt.Errorf("types: cannot parse timestamp %q", s)
}

// CoerceTo converts a runtime value to type t, implementing CAST semantics.
// A nil input stays nil. Returns an error for impossible conversions.
func CoerceTo(v any, t *Type) (any, error) {
	if v == nil {
		return nil, nil
	}
	switch t.Kind {
	case BooleanKind:
		switch x := v.(type) {
		case bool:
			return x, nil
		case string:
			b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(x)))
			if err != nil {
				return nil, fmt.Errorf("types: cannot cast %q to BOOLEAN", x)
			}
			return b, nil
		}
	case TinyIntKind, IntegerKind, BigIntKind:
		if i, ok := AsInt(v); ok {
			return i, nil
		}
		if s, ok := v.(string); ok {
			i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				f, ferr := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if ferr != nil {
					return nil, fmt.Errorf("types: cannot cast %q to %s", s, t.Kind)
				}
				return int64(f), nil
			}
			return i, nil
		}
	case FloatKind, DoubleKind, DecimalKind:
		if f, ok := AsFloat(v); ok {
			return f, nil
		}
		if s, ok := v.(string); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("types: cannot cast %q to %s", s, t.Kind)
			}
			return f, nil
		}
	case VarcharKind, CharKind:
		s := FormatValue(v)
		if t.Precision > 0 && len(s) > t.Precision {
			s = s[:t.Precision]
		}
		return s, nil
	case TimestampKind, DateKind, TimeKind, IntervalKind:
		if i, ok := AsInt(v); ok {
			return i, nil
		}
		if s, ok := v.(string); ok {
			return ParseTimestampMillis(s)
		}
	case ArrayKind, MultisetKind:
		if a, ok := v.([]any); ok {
			return a, nil
		}
	case MapKind:
		if m, ok := v.(map[string]any); ok {
			return m, nil
		}
	case AnyKind, UnknownKind, RowKind, GeometryKind:
		return v, nil
	}
	return nil, fmt.Errorf("types: cannot cast %T value to %s", v, t)
}
