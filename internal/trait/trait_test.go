package trait

import "testing"

func TestConventionIdentity(t *testing.T) {
	a := NewConvention("splunk")
	b := NewConvention("splunk")
	if !SameConvention(a, b) {
		t.Error("same-named conventions must match")
	}
	if SameConvention(a, Enumerable) {
		t.Error("different conventions must differ")
	}
	if SameConvention(nil, Enumerable) {
		t.Error("nil is not a convention")
	}
	if !SameConvention(nil, nil) {
		t.Error("nil equals nil")
	}
}

func TestCollationSatisfies(t *testing.T) {
	full := Collation{{0, Ascending}, {1, Descending}, {2, Ascending}}
	cases := []struct {
		req  Collation
		want bool
	}{
		{nil, true},
		{Collation{{0, Ascending}}, true},
		{Collation{{0, Ascending}, {1, Descending}}, true},
		{full, true},
		{Collation{{1, Descending}}, false}, // not a prefix
		{Collation{{0, Descending}}, false}, // wrong direction
		{append(append(Collation{}, full...), FieldCollation{3, Ascending}), false}, // longer
	}
	for i, c := range cases {
		if got := full.Satisfies(c.req); got != c.want {
			t.Errorf("case %d: Satisfies(%s) = %v, want %v", i, c.req, got, c.want)
		}
	}
}

func TestCollationEqualAndString(t *testing.T) {
	a := Collation{{0, Ascending}}
	if !a.Equal(Collation{{0, Ascending}}) || a.Equal(Collation{{0, Descending}}) {
		t.Error("Equal broken")
	}
	if a.String() != "[$0 ASC]" {
		t.Errorf("String: %s", a.String())
	}
	if Collation(nil).String() != "any" {
		t.Error("empty collation prints 'any'")
	}
}

func TestDistributionStringAndPartitioned(t *testing.T) {
	if Singleton().String() != "singleton" || RandomDist().String() != "random" || AnyDist.String() != "any" {
		t.Error("distribution String broken")
	}
	if Singleton().Partitioned() || AnyDist.Partitioned() || !RandomDist().Partitioned() {
		t.Error("Partitioned classification broken")
	}
}

func TestSetWithDistribution(t *testing.T) {
	s := NewSet(Enumerable)
	s2 := s.WithDistribution(RandomDist())
	if s2.Distribution != RandomDist() {
		t.Errorf("distribution not set: %s", s2)
	}
	if s.Distribution != AnyDist {
		t.Errorf("original mutated: %s", s)
	}
	if s2.String() != "enumerable.random" {
		t.Errorf("String: %s", s2.String())
	}
	full := s2.WithCollation(Collation{{0, Ascending}})
	if full.String() != "enumerable.[$0 ASC].random" {
		t.Errorf("String: %s", full.String())
	}
}

func TestSetModifiers(t *testing.T) {
	s := NewSet(Logical)
	s2 := s.WithConvention(Enumerable).WithCollation(Collation{{0, Ascending}})
	if !SameConvention(s2.Convention, Enumerable) || len(s2.Collation) != 1 {
		t.Errorf("set: %s", s2)
	}
	// Original unchanged (value semantics).
	if !SameConvention(s.Convention, Logical) || len(s.Collation) != 0 {
		t.Errorf("original mutated: %s", s)
	}
	if s2.String() != "enumerable.[$0 ASC]" {
		t.Errorf("String: %s", s2.String())
	}
}
