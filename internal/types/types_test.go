package types

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindPredicates(t *testing.T) {
	if !BigIntKind.IsNumeric() || !BigIntKind.IsExactNumeric() {
		t.Error("BIGINT should be exact numeric")
	}
	if !DoubleKind.IsNumeric() || DoubleKind.IsExactNumeric() {
		t.Error("DOUBLE should be approximate numeric")
	}
	if !VarcharKind.IsCharacter() || VarcharKind.IsNumeric() {
		t.Error("VARCHAR should be character only")
	}
	if !TimestampKind.IsDatetime() {
		t.Error("TIMESTAMP should be datetime")
	}
}

func TestTypeString(t *testing.T) {
	cases := map[string]*Type{
		"BIGINT":             BigInt,
		"VARCHAR(20)":        VarcharN(20),
		"MAP<VARCHAR, ANY?>": Map(Varchar, Any),
		"BIGINT ARRAY":       Array(BigInt),
		"DOUBLE?":            Double.WithNullable(true),
		"ROW(a BIGINT)":      Row(Field{Name: "a", Type: BigInt}),
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !Row(Field{"a", BigInt}).Equal(Row(Field{"a", BigInt})) {
		t.Error("identical row types should be equal")
	}
	if Row(Field{"a", BigInt}).Equal(Row(Field{"b", BigInt})) {
		t.Error("differently named fields should differ")
	}
	if BigInt.Equal(BigInt.WithNullable(true)) {
		t.Error("nullability should matter")
	}
}

func TestLeastRestrictive(t *testing.T) {
	cases := []struct {
		a, b *Type
		want Kind
	}{
		{Integer, Double, DoubleKind},
		{BigInt, Integer, BigIntKind},
		{Varchar, VarcharN(5), VarcharKind},
		{Null, BigInt, BigIntKind},
		{Date, Timestamp, TimestampKind},
	}
	for _, c := range cases {
		got := LeastRestrictive(c.a, c.b)
		if got == nil || got.Kind != c.want {
			t.Errorf("LeastRestrictive(%s, %s) = %v, want kind %s", c.a, c.b, got, c.want)
		}
	}
	if LeastRestrictive(Boolean, BigInt) != nil {
		t.Error("BOOLEAN and BIGINT should be incompatible")
	}
}

// Property: LeastRestrictive is commutative over scalar kinds.
func TestLeastRestrictiveCommutative(t *testing.T) {
	kinds := []*Type{Boolean, Integer, BigInt, Double, Varchar, Timestamp, Date, Null}
	f := func(i, j uint8) bool {
		a := kinds[int(i)%len(kinds)]
		b := kinds[int(j)%len(kinds)]
		x := LeastRestrictive(a, b)
		y := LeastRestrictive(b, a)
		if x == nil || y == nil {
			return (x == nil) == (y == nil)
		}
		return x.Kind == y.Kind
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LeastRestrictive is idempotent: LR(a, a).Kind == a.Kind.
func TestLeastRestrictiveIdempotent(t *testing.T) {
	for _, a := range []*Type{Boolean, Integer, BigInt, Double, Varchar, Timestamp} {
		got := LeastRestrictive(a, a)
		if got == nil || got.Kind != a.Kind {
			t.Errorf("LR(%s,%s) = %v", a, a, got)
		}
	}
}

// Property: Compare is a total order consistent with equality on int64s.
func TestCompareTotalOrderInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		// antisymmetry
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// transitivity spot check
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HashKey equality matches Compare==0 for mixed numerics.
func TestHashKeyConsistentWithCompare(t *testing.T) {
	f := func(a int32) bool {
		// Restricted to the range where float64 is exact.
		v := int64(a)
		return HashKey(v) == HashKey(float64(v)) && Compare(v, float64(v)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An integer against a non-integral float compares numerically from either
// side (the integer side used to truncate the float first).
func TestCompareIntFloatAntisymmetric(t *testing.T) {
	for _, c := range []struct {
		i    int64
		f    float64
		want int
	}{{2, 2.5, -1}, {3, 2.5, 1}, {-2, -2.5, 1}, {2, 2.0, 0}} {
		if got := Compare(c.i, c.f); got != c.want {
			t.Errorf("Compare(%d, %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		if got := Compare(c.f, c.i); got != -c.want {
			t.Errorf("Compare(%v, %d) = %d, want %d", c.f, c.i, got, -c.want)
		}
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(nil, int64(1)) != -1 || Compare(int64(1), nil) != 1 || Compare(nil, nil) != 0 {
		t.Error("NULL should sort first")
	}
	if ValuesEqual(nil, nil) {
		t.Error("NULL must not equal NULL")
	}
}

func TestCoerceTo(t *testing.T) {
	cases := []struct {
		in   any
		t    *Type
		want any
	}{
		{"42", BigInt, int64(42)},
		{int64(3), Double, float64(3)},
		{3.9, BigInt, int64(3)},
		{"true", Boolean, true},
		{int64(7), Varchar, "7"},
		{"abcdef", VarcharN(3), "abc"},
		{nil, BigInt, nil},
	}
	for _, c := range cases {
		got, err := CoerceTo(c.in, c.t)
		if err != nil {
			t.Errorf("CoerceTo(%v, %s): %v", c.in, c.t, err)
			continue
		}
		if Compare(got, c.want) != 0 && !(got == nil && c.want == nil) {
			t.Errorf("CoerceTo(%v, %s) = %v, want %v", c.in, c.t, got, c.want)
		}
	}
	if _, err := CoerceTo("notanumber", BigInt); err == nil {
		t.Error("expected cast error")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	ms, err := ParseTimestampMillis("2018-06-10 12:30:00")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTimestampMillis(ms); got != "2018-06-10 12:30:00.000" {
		t.Errorf("round trip = %q", got)
	}
}

func TestConcatFieldsRenamesDuplicates(t *testing.T) {
	out := ConcatFields(
		[]Field{{"id", BigInt}, {"name", Varchar}},
		[]Field{{"id", BigInt}, {"x", Double}},
	)
	if out[2].Name == "id" {
		t.Errorf("duplicate not renamed: %v", out)
	}
	if out[0].Name != "id" || out[3].Name != "x" {
		t.Errorf("unexpected names: %v", out)
	}
}

func TestStatisticsLikeFieldIndex(t *testing.T) {
	rt := Row(Field{"Alpha", BigInt}, Field{"beta", Varchar})
	if rt.FieldIndex("ALPHA") != 0 || rt.FieldIndex("Beta") != 1 || rt.FieldIndex("x") != -1 {
		t.Error("FieldIndex should be case-insensitive")
	}
}

func TestNormalize(t *testing.T) {
	at := time.Date(2018, 6, 10, 12, 0, 0, 0, time.UTC)
	cases := []struct{ in, want any }{
		{nil, nil},
		{true, true},
		{int64(-3), int64(-3)},
		{2.5, 2.5},
		{"s", "s"},
		{int(9), int64(9)},
		{int8(-8), int64(-8)},
		{int16(16), int64(16)},
		{int32(-32), int64(-32)},
		{uint(7), int64(7)},
		{uint8(8), int64(8)},
		{uint16(16), int64(16)},
		{uint32(32), int64(32)},
		{uint64(64), int64(64)},
		{uint64(math.MaxUint64), float64(math.MaxUint64)},
		{float32(0.5), 0.5},
		{at, at.UnixMilli()},
		{[]any{int(1), "a", []any{at}}, []any{int64(1), "a", []any{at.UnixMilli()}}},
		{map[string]any{"n": int(2), "s": "x"}, map[string]any{"n": int64(2), "s": "x"}},
	}
	for _, tc := range cases {
		if got := Normalize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Normalize(%#v) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
	// A normalized instant orders and hashes as the epoch-millis value it
	// became, which is what RANGE frames and equi-joins over it rely on.
	if ms := at.UnixMilli(); Compare(Normalize(at), ms) != 0 || HashKey(Normalize(at)) != HashKey(ms) {
		t.Error("a normalized time.Time must equal its epoch millis")
	}
}

// TestNormalizeCopyOnWrite: containers that need no change come back as is,
// and ones that do are copied, leaving the caller's untouched.
func TestNormalizeCopyOnWrite(t *testing.T) {
	arr := []any{int64(1), "a"}
	if got := NormalizeRow(arr); &got[0] != &arr[0] {
		t.Error("a row already in the value set was copied")
	}
	m := map[string]any{"k": int64(1)}
	Normalize(m).(map[string]any)["k"] = "x"
	if m["k"] != "x" {
		t.Error("a map already in the value set was copied")
	}
	arr = []any{"a", int(1)}
	if got := Normalize(arr).([]any); got[1] != int64(1) || arr[1] != int(1) {
		t.Errorf("array: got %#v, input now %#v", got, arr)
	}
	m = map[string]any{"k": int(1), "nested": []any{int(2)}}
	got := Normalize(m).(map[string]any)
	if got["k"] != int64(1) || m["k"] != int(1) || m["nested"].([]any)[0] != int(2) {
		t.Errorf("map: got %#v, input now %#v", got, m)
	}
}
