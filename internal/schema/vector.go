package schema

// Typed columnar vectors: the monomorphic storage backing the batch
// convention. The paper decouples the optimizer from data representation so
// engines can process data "in columnar and compressed form"; boxed []any
// columns pay an interface header per value, a type assertion per use and an
// allocation per produced value. A Vector stores one column of one of the
// engine's core runtime types (int64, float64, bool, string) in a flat Go
// slice plus a null mask, so kernels compile to tight loops over machine
// types; temporal values are epoch-millis int64, normalized where they enter
// the engine (types.Normalize). Everything outside the core set rides the
// VecAny fallback, a plain []any with identical semantics.
//
// Null representation: in memory the mask is one bool per row (Nulls), which
// slices zero-copy at any offset and reads in one byte load; the spill codec
// packs it to one bit per row on disk (see internal/memory). A nil mask means
// the column has no NULLs, letting kernels hoist the null branch out of the
// loop entirely.

import (
	"math"
	"slices"
	"strconv"

	"calcite/internal/types"
)

// VecKind enumerates the monomorphic storage classes of a Vector.
type VecKind uint8

const (
	// VecAny is the boxed fallback: values of any runtime type, NULL as nil.
	VecAny VecKind = iota
	VecInt64
	VecFloat64
	VecBool
	VecString
)

var vecKindNames = [...]string{"any", "int64", "float64", "bool", "string"}

func (k VecKind) String() string {
	if int(k) < len(vecKindNames) {
		return vecKindNames[k]
	}
	return "invalid"
}

// VecKindForType maps a declared SQL type to the vector kind holding its
// native runtime representation (temporal kinds are epoch-millis int64).
func VecKindForType(t *types.Type) VecKind {
	if t == nil {
		return VecAny
	}
	switch t.Kind {
	case types.TinyIntKind, types.IntegerKind, types.BigIntKind,
		types.TimestampKind, types.DateKind, types.TimeKind, types.IntervalKind:
		return VecInt64
	case types.FloatKind, types.DoubleKind, types.DecimalKind:
		return VecFloat64
	case types.BooleanKind:
		return VecBool
	case types.VarcharKind, types.CharKind:
		return VecString
	}
	return VecAny
}

// Vector is one column of values in monomorphic storage. Exactly one of the
// payload slices (chosen by Kind) is non-nil and holds Len() entries; rows
// whose Nulls entry is true are NULL and their payload slot is the zero
// value. VecAny vectors represent NULL as a nil element and may leave Nulls
// nil.
type Vector struct {
	Kind VecKind
	// Nulls is the null mask: Nulls[r] reports row r NULL. nil = no NULLs.
	Nulls []bool

	I64 []int64
	F64 []float64
	B   []bool
	S   []string
	A   []any
}

// Len returns the number of rows.
func (v *Vector) Len() int {
	switch v.Kind {
	case VecInt64:
		return len(v.I64)
	case VecFloat64:
		return len(v.F64)
	case VecBool:
		return len(v.B)
	case VecString:
		return len(v.S)
	}
	return len(v.A)
}

// IsNull reports whether row r is NULL.
func (v *Vector) IsNull(r int) bool {
	if v.Nulls != nil {
		return v.Nulls[r]
	}
	if v.Kind == VecAny {
		return v.A[r] == nil
	}
	return false
}

// Get boxes the value of row r (nil for NULL). It is the row-at-a-time
// compatibility accessor; kernels read the payload slices directly.
func (v *Vector) Get(r int) any {
	if v.Nulls != nil && v.Nulls[r] {
		return nil
	}
	switch v.Kind {
	case VecInt64:
		return v.I64[r]
	case VecFloat64:
		return v.F64[r]
	case VecBool:
		return v.B[r]
	case VecString:
		return v.S[r]
	}
	return v.A[r]
}

// Slice returns the zero-copy window [lo, hi) of the vector.
func (v *Vector) Slice(lo, hi int) *Vector {
	out := &Vector{Kind: v.Kind}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi]
	}
	switch v.Kind {
	case VecInt64:
		out.I64 = v.I64[lo:hi]
	case VecFloat64:
		out.F64 = v.F64[lo:hi]
	case VecBool:
		out.B = v.B[lo:hi]
	case VecString:
		out.S = v.S[lo:hi]
	default:
		out.A = v.A[lo:hi]
	}
	return out
}

// Gather returns a dense copy of the selected rows, in selection order.
func (v *Vector) Gather(sel []int32) *Vector {
	n := len(sel)
	out := &Vector{Kind: v.Kind}
	if v.Nulls != nil {
		nulls := make([]bool, n)
		any := false
		for i, r := range sel {
			if v.Nulls[r] {
				nulls[i] = true
				any = true
			}
		}
		if any {
			out.Nulls = nulls
		}
	}
	switch v.Kind {
	case VecInt64:
		d := make([]int64, n)
		for i, r := range sel {
			d[i] = v.I64[r]
		}
		out.I64 = d
	case VecFloat64:
		d := make([]float64, n)
		for i, r := range sel {
			d[i] = v.F64[r]
		}
		out.F64 = d
	case VecBool:
		d := make([]bool, n)
		for i, r := range sel {
			d[i] = v.B[r]
		}
		out.B = d
	case VecString:
		d := make([]string, n)
		for i, r := range sel {
			d[i] = v.S[r]
		}
		out.S = d
	default:
		d := make([]any, n)
		for i, r := range sel {
			d[i] = v.A[r]
		}
		out.A = d
	}
	return out
}

// GatherOrd is Gather with NULL injection: a negative ordinal produces a
// NULL output slot. Joins use it to materialize the build side of outer
// joins, where unmatched probe rows pad the build columns with NULLs.
func (v *Vector) GatherOrd(ords []int32) *Vector {
	n := len(ords)
	out := &Vector{Kind: v.Kind}
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[i] = true
	}
	for i, r := range ords {
		if r < 0 || (v.Nulls != nil && v.Nulls[r]) {
			setNull(i)
		}
	}
	switch v.Kind {
	case VecInt64:
		d := make([]int64, n)
		for i, r := range ords {
			if r >= 0 {
				d[i] = v.I64[r]
			}
		}
		out.I64 = d
	case VecFloat64:
		d := make([]float64, n)
		for i, r := range ords {
			if r >= 0 {
				d[i] = v.F64[r]
			}
		}
		out.F64 = d
	case VecBool:
		d := make([]bool, n)
		for i, r := range ords {
			if r >= 0 {
				d[i] = v.B[r]
			}
		}
		out.B = d
	case VecString:
		d := make([]string, n)
		for i, r := range ords {
			if r >= 0 {
				d[i] = v.S[r]
			}
		}
		out.S = d
	default:
		d := make([]any, n)
		for i, r := range ords {
			if r >= 0 {
				d[i] = v.A[r]
			}
		}
		out.A = d
	}
	out.Nulls = nulls
	return out
}

// boxInto boxes n rows — those at sel, or the first n when sel is nil — into
// dst[0], dst[stride], dst[2*stride], …: one Kind dispatch per column, then a
// monomorphic loop. It is how rows leave the batch convention.
func (v *Vector) boxInto(dst []any, stride int, sel []int32, n int) {
	at := func(i int) int {
		if sel != nil {
			return int(sel[i])
		}
		return i
	}
	switch v.Kind {
	case VecInt64:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.I64[at(i)]
		}
	case VecFloat64:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.F64[at(i)]
		}
	case VecBool:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.B[at(i)]
		}
	case VecString:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.S[at(i)]
		}
	default:
		for i := 0; i < n; i++ {
			dst[i*stride] = v.A[at(i)]
		}
	}
	if v.Nulls != nil {
		for i := 0; i < n; i++ {
			if v.Nulls[at(i)] {
				dst[i*stride] = nil
			}
		}
	}
}

// Boxed materializes the whole vector as a boxed column. VecAny vectors
// return their payload slice directly (zero-copy).
func (v *Vector) Boxed() []any {
	if v.Kind == VecAny && v.Nulls == nil {
		return v.A
	}
	out := make([]any, v.Len())
	v.boxInto(out, 1, nil, len(out))
	return out
}

// AppendKey appends the canonical grouping key of row r to dst: byte for byte
// types.HashKey of the boxed value, without boxing a core-kind value. Hash
// join and aggregate tables, spill partitioning and exchange routing all key
// rows on this one encoding, so a value lands in the same group whichever
// kind of vector carries it.
func (v *Vector) AppendKey(dst []byte, r int) []byte {
	if v.Nulls != nil && v.Nulls[r] {
		return append(dst, "\x00N"...)
	}
	switch v.Kind {
	case VecInt64:
		return strconv.AppendInt(append(dst, "\x00i"...), v.I64[r], 10)
	case VecFloat64:
		x := v.F64[r]
		if x == math.Trunc(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
			return strconv.AppendInt(append(dst, "\x00i"...), int64(x), 10)
		}
		return strconv.AppendFloat(append(dst, "\x00f"...), x, 'g', -1, 64)
	case VecString:
		return append(append(dst, "\x00s"...), v.S[r]...)
	}
	return append(dst, types.HashKey(v.Get(r))...)
}

// RowKey appends the composite key of row r over the given columns of vecs —
// types.HashRowKey of the materialized row, byte for byte.
func RowKey(dst []byte, vecs []*Vector, r int, cols []int) []byte {
	for _, c := range cols {
		dst = append(vecs[c].AppendKey(dst, r), '|')
	}
	return dst
}

// DetectVecKind returns the uniform monomorphic kind of the non-NULL values
// at sel (all of vals when sel is nil), or VecAny when they mix dynamic types
// or use a type outside the core set.
func DetectVecKind(vals []any, sel []int32) VecKind {
	kind := VecAny
	n := len(vals)
	if sel != nil {
		n = len(sel)
	}
	for i := 0; i < n; i++ {
		x := vals[i]
		if sel != nil {
			x = vals[sel[i]]
		}
		var k VecKind
		switch x.(type) {
		case nil:
			continue
		case int64:
			k = VecInt64
		case float64:
			k = VecFloat64
		case bool:
			k = VecBool
		case string:
			k = VecString
		default:
			return VecAny
		}
		if kind == VecAny {
			kind = k
		} else if kind != k {
			return VecAny
		}
	}
	return kind
}

// VectorsFromRows transposes row-major rows from outside the engine into one
// vector per field, normalizing each value (types.Normalize). A column whose
// values are all of its declared type's runtime kind (or NULL) is stored
// directly in that kind; any other column — no typed kind declared, a value
// of another kind — is transposed boxed and left to BuildVector's detection.
func VectorsFromRows(rows [][]any, fields []types.Field) []*Vector {
	vecs := make([]*Vector, len(fields))
	for c, f := range fields {
		if kind := VecKindForType(f.Type); kind != VecAny {
			v := &Vector{Kind: kind}
			v.Grow(len(rows))
			conforms := true
			for _, row := range rows {
				if conforms = v.AppendValue(types.Normalize(row[c])); !conforms {
					break
				}
			}
			if conforms {
				vecs[c] = v
				continue
			}
		}
		col := make([]any, len(rows))
		for r, row := range rows {
			col[r] = types.Normalize(row[c])
		}
		vecs[c] = BuildVector(col)
	}
	return vecs
}

// BuildVector converts a boxed column into a typed vector of the uniform kind
// of its non-NULL values; columns with mixed or non-core runtime types fall
// back to VecAny, sharing the input slice.
func BuildVector(vals []any) *Vector {
	kind := DetectVecKind(vals, nil)
	if kind == VecAny {
		return &Vector{Kind: VecAny, A: vals}
	}
	n := len(vals)
	v := &Vector{Kind: kind}
	var nulls []bool
	setNull := func(r int) {
		if nulls == nil {
			nulls = make([]bool, n)
		}
		nulls[r] = true
	}
	switch kind {
	case VecInt64:
		d := make([]int64, n)
		for r, x := range vals {
			if x == nil {
				setNull(r)
				continue
			}
			d[r] = x.(int64)
		}
		v.I64 = d
	case VecFloat64:
		d := make([]float64, n)
		for r, x := range vals {
			if x == nil {
				setNull(r)
				continue
			}
			d[r] = x.(float64)
		}
		v.F64 = d
	case VecBool:
		d := make([]bool, n)
		for r, x := range vals {
			if x == nil {
				setNull(r)
				continue
			}
			d[r] = x.(bool)
		}
		v.B = d
	case VecString:
		d := make([]string, n)
		for r, x := range vals {
			if x == nil {
				setNull(r)
				continue
			}
			d[r] = x.(string)
		}
		v.S = d
	}
	v.Nulls = nulls
	return v
}

// AppendValue appends x (nil for NULL), allocating the null mask at the first
// NULL. It reports false, leaving the vector as it was, when x is not of the
// vector's kind; a VecAny vector takes any value.
func (v *Vector) AppendValue(x any) bool {
	n := v.Len()
	switch v.Kind {
	case VecInt64:
		d, ok := x.(int64)
		if !ok && x != nil {
			return false
		}
		v.I64 = append(v.I64, d)
	case VecFloat64:
		d, ok := x.(float64)
		if !ok && x != nil {
			return false
		}
		v.F64 = append(v.F64, d)
	case VecBool:
		d, ok := x.(bool)
		if !ok && x != nil {
			return false
		}
		v.B = append(v.B, d)
	case VecString:
		d, ok := x.(string)
		if !ok && x != nil {
			return false
		}
		v.S = append(v.S, d)
	default:
		v.A = append(v.A, x)
		return true
	}
	if x == nil && v.Nulls == nil {
		v.Nulls = make([]bool, n, n+1)
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, x == nil)
	}
	return true
}

// MakeVector returns a vector of n zero-valued rows of the given kind, to be
// filled by Set.
func MakeVector(kind VecKind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case VecInt64:
		v.I64 = make([]int64, n)
	case VecFloat64:
		v.F64 = make([]float64, n)
	case VecBool:
		v.B = make([]bool, n)
	case VecString:
		v.S = make([]string, n)
	default:
		v.A = make([]any, n)
	}
	return v
}

// Set stores x (nil for NULL) at row r, allocating the null mask at the first
// NULL; a value not of the vector's kind demotes it to VecAny first.
func (v *Vector) Set(r int, x any) {
	if x == nil && v.Kind != VecAny {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		v.Nulls[r] = true
		return
	}
	ok := false
	switch v.Kind {
	case VecInt64:
		v.I64[r], ok = x.(int64)
	case VecFloat64:
		v.F64[r], ok = x.(float64)
	case VecBool:
		v.B[r], ok = x.(bool)
	case VecString:
		v.S[r], ok = x.(string)
	}
	if !ok {
		v.Demote()
		v.A[r] = x
	} else if v.Nulls != nil {
		v.Nulls[r] = false
	}
}

// Demote re-kinds the vector to VecAny in place, boxing the values it holds:
// what a column does when a value of another kind arrives (MemTable.Insert,
// Append).
func (v *Vector) Demote() {
	if v.Kind != VecAny {
		*v = Vector{Kind: VecAny, A: v.Boxed()}
	}
}

// appendSel appends src's rows at sel (all of src when sel is nil) to dst.
func appendSel[T any](dst, src []T, sel []int32) []T {
	if sel == nil {
		return append(dst, src...)
	}
	for _, r := range sel {
		dst = append(dst, src[r])
	}
	return dst
}

// Grow reserves room for n more rows, so a known number of Appends copies
// each value once.
func (v *Vector) Grow(n int) {
	switch v.Kind {
	case VecInt64:
		v.I64 = slices.Grow(v.I64, n)
	case VecFloat64:
		v.F64 = slices.Grow(v.F64, n)
	case VecBool:
		v.B = slices.Grow(v.B, n)
	case VecString:
		v.S = slices.Grow(v.S, n)
	default:
		v.A = slices.Grow(v.A, n)
	}
}

// Append appends the rows of src selected by sel (every row when sel is nil),
// the concatenation step of a columnar buffer. An empty v adopts src's kind;
// a src of another kind demotes v to VecAny first, as MemTable.Insert does.
func (v *Vector) Append(src *Vector, sel []int32) {
	n, m := v.Len(), len(sel)
	if sel == nil {
		m = src.Len()
	}
	if n == 0 && v.Kind != src.Kind {
		*v = Vector{Kind: src.Kind}
	}
	if v.Kind != src.Kind {
		v.Demote()
	}
	if v.Kind != VecAny && (v.Nulls != nil || src.Nulls != nil) {
		if v.Nulls == nil {
			v.Nulls = make([]bool, n, n+m)
		}
		if src.Nulls == nil {
			v.Nulls = append(v.Nulls, make([]bool, m)...)
		} else {
			v.Nulls = appendSel(v.Nulls, src.Nulls, sel)
		}
	}
	switch v.Kind {
	case VecInt64:
		v.I64 = appendSel(v.I64, src.I64, sel)
	case VecFloat64:
		v.F64 = appendSel(v.F64, src.F64, sel)
	case VecBool:
		v.B = appendSel(v.B, src.B, sel)
	case VecString:
		v.S = appendSel(v.S, src.S, sel)
	default:
		if src.Kind == VecAny {
			v.A = appendSel(v.A, src.A, sel)
		} else if sel == nil {
			v.A = append(v.A, src.Boxed()...)
		} else {
			for _, r := range sel {
				v.A = append(v.A, src.Get(int(r)))
			}
		}
	}
}

// Pick addresses one row of one of several source vectors.
type Pick struct{ Src, Row int32 }

// pickFrom gathers picks out of the per-source payload slices col extracts.
func pickFrom[T any](srcs []*Vector, picks []Pick, col func(*Vector) []T) []T {
	cols := make([][]T, len(srcs))
	for i, s := range srcs {
		cols[i] = col(s)
	}
	out := make([]T, len(picks))
	for i, p := range picks {
		if c := cols[p.Src]; c != nil {
			out[i] = c[p.Row]
		}
	}
	return out
}

// GatherPicks is Gather across several source vectors of one column — the
// output step of a k-way merge: the result holds srcs[p.Src] row p.Row for
// each pick, typed when every source has the same kind and VecAny otherwise.
func GatherPicks(srcs []*Vector, picks []Pick) *Vector {
	out := &Vector{Kind: srcs[0].Kind}
	nulls := false
	for _, s := range srcs {
		if s.Kind != out.Kind {
			out.Kind = VecAny
		}
		nulls = nulls || s.Nulls != nil
	}
	if out.Kind != VecAny && nulls {
		out.Nulls = pickFrom(srcs, picks, func(v *Vector) []bool { return v.Nulls })
	}
	switch out.Kind {
	case VecInt64:
		out.I64 = pickFrom(srcs, picks, func(v *Vector) []int64 { return v.I64 })
	case VecFloat64:
		out.F64 = pickFrom(srcs, picks, func(v *Vector) []float64 { return v.F64 })
	case VecBool:
		out.B = pickFrom(srcs, picks, func(v *Vector) []bool { return v.B })
	case VecString:
		out.S = pickFrom(srcs, picks, func(v *Vector) []string { return v.S })
	default:
		out.A = make([]any, len(picks))
		for i, p := range picks {
			out.A[i] = srcs[p.Src].Get(int(p.Row))
		}
	}
	return out
}
