package match

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pier/internal/profile"
)

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.944444},
		{"dixon", "dicksonx", 0.766667},
		{"jellyfish", "smellyfish", 0.896296},
		{"", "", 1},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abc", "abc", 1},
		{"abc", "xyz", 0},
	}
	for _, tc := range cases {
		if got := Jaro(tc.a, tc.b); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("Jaro(%q, %q) = %.6f, want %.6f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"martha", "marhta", 0.961111},
		{"dwayne", "duane", 0.840000},
		{"dixon", "dicksonx", 0.813333},
	}
	for _, tc := range cases {
		if got := JaroWinkler(tc.a, tc.b); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("JaroWinkler(%q, %q) = %.6f, want %.6f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroProperties(t *testing.T) {
	f := func(a, b string) bool {
		s := Jaro(a, b)
		if s != Jaro(b, a) {
			return false // symmetry
		}
		if s < 0 || s > 1 {
			return false
		}
		jw := JaroWinkler(a, b)
		return jw >= s-1e-12 && jw <= 1 // Winkler boost never decreases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// tokenProfile is a profile whose token set is exactly tokens.
func tokenProfile(id int, tokens []string) *profile.Profile {
	return profile.New(id, profile.SourceA, "", "v", strings.Join(tokens, " "))
}

func TestOverlapAndCosine(t *testing.T) {
	cos, ovl := NewMatcher(COS), NewMatcher(OVL)
	a := tokenProfile(1, []string{"aa", "bb", "cc"})
	b := tokenProfile(2, []string{"bb", "cc", "dd", "ee"})
	if got := ovl.Similarity(a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("OVL = %v, want 2/3", got)
	}
	if got := cos.Similarity(a, b); math.Abs(got-2.0/math.Sqrt(12)) > 1e-12 {
		t.Errorf("COS = %v", got)
	}
	empty1, empty2 := tokenProfile(3, nil), tokenProfile(4, nil)
	if ovl.Similarity(empty1, empty2) != 1 || cos.Similarity(empty1, empty2) != 1 {
		t.Error("empty-empty must be 1")
	}
	if ovl.Similarity(a, empty1) != 0 || cos.Similarity(empty1, b) != 0 {
		t.Error("empty-vs-nonempty must be 0")
	}
}

func TestTokenMeasuresBoundsAndOrder(t *testing.T) {
	// For any sets: Jaccard <= Cosine <= Overlap (standard inequality).
	js, cos, ovl := NewMatcher(JS), NewMatcher(COS), NewMatcher(OVL)
	f := func(a, b []string) bool {
		pa, pb := tokenProfile(1, a), tokenProfile(2, b)
		j, c, o := js.Similarity(pa, pb), cos.Similarity(pa, pb), ovl.Similarity(pa, pb)
		return j <= c+1e-12 && c <= o+1e-12 && o <= 1 && j >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMongeElkan(t *testing.T) {
	a := []string{"jon", "smith"}
	b := []string{"john", "smith"}
	got := MongeElkan(a, b)
	if got < 0.9 {
		t.Errorf("MongeElkan(%v, %v) = %v, want high", a, b, got)
	}
	if s := MongeElkan(a, a); s != 1 {
		t.Errorf("self similarity = %v", s)
	}
	if MongeElkan(nil, nil) != 1 || MongeElkan(a, nil) != 0 {
		t.Error("empty handling wrong")
	}
	if math.Abs(MongeElkan(a, b)-MongeElkan(b, a)) > 1e-12 {
		t.Error("symmetrized Monge-Elkan not symmetric")
	}
}

func TestAllKindsDispatch(t *testing.T) {
	p1 := profile.New(1, profile.SourceA, "", "name", "jon smith berlin")
	p2 := profile.New(2, profile.SourceB, "", "name", "john smith berlin")
	p3 := profile.New(3, profile.SourceB, "", "name", "completely different tokens")
	for _, kind := range []Kind{JS, ED, JW, COS, OVL, ME} {
		m := NewMatcher(kind)
		sDup := m.Similarity(p1, p2)
		sOther := m.Similarity(p1, p3)
		if sDup < 0 || sDup > 1 {
			t.Errorf("%v similarity out of range: %v", kind, sDup)
		}
		if sDup <= sOther {
			t.Errorf("%v: duplicate similarity %v <= non-duplicate %v", kind, sDup, sOther)
		}
		if m.Similarity(p1, p1) < 0.999 {
			t.Errorf("%v: self similarity %v", kind, m.Similarity(p1, p1))
		}
	}
}

func TestKindStringsAll(t *testing.T) {
	want := map[Kind]string{JS: "JS", ED: "ED", JW: "JW", COS: "COS", OVL: "OVL", ME: "ME"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestCostModelAllKindsPositive(t *testing.T) {
	costs := DefaultCosts()
	p1 := profile.New(1, profile.SourceA, "", "name", "alpha beta gamma")
	p2 := profile.New(2, profile.SourceB, "", "name", "alpha delta")
	for _, kind := range []Kind{JS, ED, JW, COS, OVL, ME} {
		if c := costs.Compare(kind, p1, p2); c <= 0 {
			t.Errorf("%v cost = %v", kind, c)
		}
	}
	// ED must remain the most expensive string measure.
	if costs.Compare(JW, p1, p2) >= costs.Compare(ED, p1, p2) {
		t.Error("JW modeled cost must be below ED")
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		JaroWinkler("jonathan smithson", "johnathan smithsen")
	}
}

func BenchmarkMongeElkan(b *testing.B) {
	a := []string{"jonathan", "smithson", "berlin", "mitte"}
	c := []string{"johnathan", "smithsen", "berlin", "mite"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MongeElkan(a, c)
	}
}
