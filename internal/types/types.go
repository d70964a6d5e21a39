// Package types implements the SQL type system at the core of the relational
// algebra: scalar types, the semi-structured complex types of §7.1 of the
// paper (ARRAY, MAP, MULTISET), row types, and the GEOMETRY type of §7.3.
//
// Types are immutable once constructed. Row values at runtime are represented
// as []any (see package rex for evaluation); the functions in this package
// define comparison, hashing and coercion semantics over those runtime
// values so that every operator in the engine agrees on them.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the built-in type constructors.
type Kind int

const (
	UnknownKind Kind = iota
	BooleanKind
	TinyIntKind
	IntegerKind
	BigIntKind
	FloatKind
	DoubleKind
	DecimalKind
	VarcharKind
	CharKind
	TimestampKind // milliseconds since epoch, stored as int64
	DateKind      // days since epoch, stored as int64
	TimeKind      // milliseconds since midnight, stored as int64
	IntervalKind  // milliseconds, stored as int64
	ArrayKind
	MapKind
	MultisetKind
	RowKind
	GeometryKind
	AnyKind
	NullKind // the type of the NULL literal before inference
)

var kindNames = map[Kind]string{
	UnknownKind:   "UNKNOWN",
	BooleanKind:   "BOOLEAN",
	TinyIntKind:   "TINYINT",
	IntegerKind:   "INTEGER",
	BigIntKind:    "BIGINT",
	FloatKind:     "FLOAT",
	DoubleKind:    "DOUBLE",
	DecimalKind:   "DECIMAL",
	VarcharKind:   "VARCHAR",
	CharKind:      "CHAR",
	TimestampKind: "TIMESTAMP",
	DateKind:      "DATE",
	TimeKind:      "TIME",
	IntervalKind:  "INTERVAL",
	ArrayKind:     "ARRAY",
	MapKind:       "MAP",
	MultisetKind:  "MULTISET",
	RowKind:       "ROW",
	GeometryKind:  "GEOMETRY",
	AnyKind:       "ANY",
	NullKind:      "NULL",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsNumeric reports whether values of this kind support arithmetic.
func (k Kind) IsNumeric() bool {
	switch k {
	case TinyIntKind, IntegerKind, BigIntKind, FloatKind, DoubleKind, DecimalKind:
		return true
	}
	return false
}

// IsExactNumeric reports whether the kind is integer-valued.
func (k Kind) IsExactNumeric() bool {
	switch k {
	case TinyIntKind, IntegerKind, BigIntKind:
		return true
	}
	return false
}

// IsCharacter reports whether the kind is a character string kind.
func (k Kind) IsCharacter() bool { return k == VarcharKind || k == CharKind }

// IsDatetime reports whether the kind is a date/time kind.
func (k Kind) IsDatetime() bool {
	return k == TimestampKind || k == DateKind || k == TimeKind
}

// Field is a named component of a row type.
type Field struct {
	Name string
	Type *Type
}

// Type describes a SQL type. The zero value is not meaningful; use the
// constructors below.
type Type struct {
	Kind      Kind
	Nullable  bool
	Precision int     // VARCHAR length, DECIMAL precision; 0 = unspecified
	Scale     int     // DECIMAL scale
	Elem      *Type   // element type for ARRAY and MULTISET, value type for MAP
	Key       *Type   // key type for MAP
	Fields    []Field // components for ROW
}

// Convenient shared scalar types. They are treated as immutable.
var (
	Unknown         = &Type{Kind: UnknownKind}
	Boolean         = &Type{Kind: BooleanKind}
	NullableBoolean = &Type{Kind: BooleanKind, Nullable: true}
	Integer         = &Type{Kind: IntegerKind}
	BigInt          = &Type{Kind: BigIntKind}
	Double          = &Type{Kind: DoubleKind}
	Varchar         = &Type{Kind: VarcharKind}
	Timestamp       = &Type{Kind: TimestampKind}
	Date            = &Type{Kind: DateKind}
	Interval        = &Type{Kind: IntervalKind}
	Geometry        = &Type{Kind: GeometryKind}
	Any             = &Type{Kind: AnyKind, Nullable: true}
	Null            = &Type{Kind: NullKind, Nullable: true}
)

// Scalar returns the shared scalar type for kind k (non-nullable).
func Scalar(k Kind) *Type {
	switch k {
	case BooleanKind:
		return Boolean
	case IntegerKind:
		return Integer
	case BigIntKind:
		return BigInt
	case DoubleKind:
		return Double
	case VarcharKind:
		return Varchar
	case TimestampKind:
		return Timestamp
	case DateKind:
		return Date
	case IntervalKind:
		return Interval
	case GeometryKind:
		return Geometry
	case AnyKind:
		return Any
	case NullKind:
		return Null
	}
	return &Type{Kind: k}
}

// Array returns an ARRAY type with the given element type.
func Array(elem *Type) *Type { return &Type{Kind: ArrayKind, Elem: elem} }

// Multiset returns a MULTISET type with the given element type.
func Multiset(elem *Type) *Type { return &Type{Kind: MultisetKind, Elem: elem} }

// Map returns a MAP type with the given key and value types.
func Map(key, value *Type) *Type { return &Type{Kind: MapKind, Key: key, Elem: value} }

// Row returns a ROW type with the given fields.
func Row(fields ...Field) *Type { return &Type{Kind: RowKind, Fields: fields} }

// VarcharN returns a VARCHAR(n) type.
func VarcharN(n int) *Type { return &Type{Kind: VarcharKind, Precision: n} }

// WithNullable returns a copy of t with the given nullability (or t itself
// if the nullability already matches).
func (t *Type) WithNullable(nullable bool) *Type {
	if t == nil || t.Nullable == nullable {
		return t
	}
	c := *t
	c.Nullable = nullable
	return &c
}

// String renders the type in SQL-ish syntax, e.g. "VARCHAR(20)" or
// "MAP<VARCHAR, ANY>".
func (t *Type) String() string {
	if t == nil {
		return "NIL"
	}
	var b strings.Builder
	switch t.Kind {
	case ArrayKind:
		fmt.Fprintf(&b, "%s ARRAY", t.Elem)
	case MultisetKind:
		fmt.Fprintf(&b, "%s MULTISET", t.Elem)
	case MapKind:
		fmt.Fprintf(&b, "MAP<%s, %s>", t.Key, t.Elem)
	case RowKind:
		b.WriteString("ROW(")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
		}
		b.WriteString(")")
	default:
		b.WriteString(t.Kind.String())
		if t.Precision > 0 {
			if t.Scale > 0 {
				fmt.Fprintf(&b, "(%d, %d)", t.Precision, t.Scale)
			} else {
				fmt.Fprintf(&b, "(%d)", t.Precision)
			}
		}
	}
	if t.Nullable {
		b.WriteString("?")
	}
	return b.String()
}

// Equal reports whether two types are structurally identical, including
// nullability.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil {
		return false
	}
	if t.Kind != o.Kind || t.Nullable != o.Nullable ||
		t.Precision != o.Precision || t.Scale != o.Scale {
		return false
	}
	if !typeEqualPtr(t.Elem, o.Elem) || !typeEqualPtr(t.Key, o.Key) {
		return false
	}
	if len(t.Fields) != len(o.Fields) {
		return false
	}
	for i := range t.Fields {
		if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
			return false
		}
	}
	return true
}

func typeEqualPtr(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(b)
}

// FieldIndex returns the index of the named field of a ROW type, or -1.
// Matching is case-insensitive, per SQL identifier semantics.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// FieldNames returns the names of a ROW type's fields.
func (t *Type) FieldNames() []string {
	names := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		names[i] = f.Name
	}
	return names
}

// numericRank orders numeric kinds for implicit widening.
func numericRank(k Kind) int {
	switch k {
	case TinyIntKind:
		return 1
	case IntegerKind:
		return 2
	case BigIntKind:
		return 3
	case DecimalKind:
		return 4
	case FloatKind:
		return 5
	case DoubleKind:
		return 6
	}
	return 0
}

// LeastRestrictive computes the least restrictive common type of a and b, the
// type to which both can be implicitly coerced (e.g. INTEGER + DOUBLE ->
// DOUBLE). Returns nil when the types are incompatible.
func LeastRestrictive(a, b *Type) *Type {
	if a == nil || b == nil {
		return nil
	}
	nullable := a.Nullable || b.Nullable
	switch {
	case a.Kind == NullKind:
		return b.WithNullable(true)
	case b.Kind == NullKind:
		return a.WithNullable(true)
	case a.Kind == AnyKind || b.Kind == AnyKind:
		return Any
	case a.Kind == b.Kind:
		out := *a
		if b.Precision > out.Precision {
			out.Precision = b.Precision
		}
		if a.Kind == RowKind {
			if len(a.Fields) != len(b.Fields) {
				return nil
			}
			fields := make([]Field, len(a.Fields))
			for i := range a.Fields {
				ft := LeastRestrictive(a.Fields[i].Type, b.Fields[i].Type)
				if ft == nil {
					return nil
				}
				fields[i] = Field{Name: a.Fields[i].Name, Type: ft}
			}
			out.Fields = fields
		}
		out.Nullable = nullable
		return &out
	case a.Kind.IsNumeric() && b.Kind.IsNumeric():
		ra, rb := numericRank(a.Kind), numericRank(b.Kind)
		wide := a.Kind
		if rb > ra {
			wide = b.Kind
		}
		return Scalar(wide).WithNullable(nullable)
	case a.Kind.IsCharacter() && b.Kind.IsCharacter():
		return Varchar.WithNullable(nullable)
	case a.Kind.IsDatetime() && b.Kind.IsDatetime():
		return Timestamp.WithNullable(nullable)
	}
	return nil
}

// ConcatFields returns a new slice of fields combining left and right,
// renaming duplicates with a numeric suffix (mirroring join output naming):
// the n-th repeat of a name, compared case-insensitively, gets suffix n.
// Join rows are narrow, so the pairwise scan beats building a map.
func ConcatFields(left, right []Field) []Field {
	out := append(append(make([]Field, 0, len(left)+len(right)), left...), right...)
	lower := make([]string, len(out))
	for i, f := range out {
		lower[i] = strings.ToLower(f.Name)
		n := 0
		for _, l := range lower[:i] {
			if l == lower[i] {
				n++
			}
		}
		if n > 0 {
			out[i].Name += strconv.Itoa(n)
		}
	}
	return out
}
