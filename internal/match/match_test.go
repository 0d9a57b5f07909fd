package match

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pier/internal/profile"
)

func TestJaccardBasic(t *testing.T) {
	js := NewMatcher(JS)
	tests := []struct {
		a, b []string
		want float64
	}{
		{[]string{"aa", "bb"}, []string{"aa", "bb"}, 1},
		{[]string{"aa", "bb"}, []string{"cc", "dd"}, 0},
		{[]string{"aa", "bb", "cc"}, []string{"bb", "cc", "dd"}, 0.5},
		{nil, nil, 1},
		{[]string{"aa"}, nil, 0},
		{nil, []string{"aa"}, 0},
	}
	for _, tc := range tests {
		if got := js.Similarity(tokenProfile(1, tc.a), tokenProfile(2, tc.b)); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaccardSymmetricAndBounded(t *testing.T) {
	js := NewMatcher(JS)
	f := func(a, b []string) bool {
		pa, pb := tokenProfile(1, a), tokenProfile(2, b)
		s1, s2 := js.Similarity(pa, pb), js.Similarity(pb, pa)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinBasic(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2},
		{"saturday", "sunday", 3},
	}
	for _, tc := range tests {
		if got := Levenshtein(tc.a, tc.b); got != tc.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	f := func(a, b string) bool {
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false // symmetry
		}
		la, lb := len([]rune(a)), len([]rune(b))
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		max := la
		if lb > max {
			max = lb
		}
		return d >= diff && d <= max // standard bounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	words := []string{"", "go", "gopher", "golfer", "gophers", "phong"}
	for _, a := range words {
		for _, b := range words {
			for _, c := range words {
				if Levenshtein(a, c) > Levenshtein(a, b)+Levenshtein(b, c) {
					t.Fatalf("triangle inequality violated for %q %q %q", a, b, c)
				}
			}
		}
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("", ""); got != 1 {
		t.Errorf("EditSimilarity of empties = %v, want 1", got)
	}
	if got := EditSimilarity("abcd", "abcd"); got != 1 {
		t.Errorf("identical strings similarity = %v, want 1", got)
	}
	if got := EditSimilarity("abcd", "wxyz"); got != 0 {
		t.Errorf("disjoint strings similarity = %v, want 0", got)
	}
	got := EditSimilarity("abcd", "abcx") // distance 1, max len 4
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("EditSimilarity = %v, want 0.75", got)
	}
}

func TestMatcherMatch(t *testing.T) {
	dup1 := profile.New(1, profile.SourceA, "e1", "title", "The Matrix 1999")
	dup2 := profile.New(2, profile.SourceB, "e1", "name", "Matrix, The (1999)")
	other := profile.New(3, profile.SourceB, "e2", "name", "Completely Different Film About Dogs")

	js := NewMatcher(JS)
	if !js.Match(dup1, dup2) {
		t.Errorf("JS matcher: duplicates did not match (sim=%v)", js.Similarity(dup1, dup2))
	}
	if js.Match(dup1, other) {
		t.Errorf("JS matcher: non-duplicates matched (sim=%v)", js.Similarity(dup1, other))
	}

	ed := NewMatcher(ED)
	if ed.Similarity(dup1, dup1) != 1 {
		t.Error("ED self-similarity != 1")
	}
	if s := ed.Similarity(dup1, other); s >= ed.Similarity(dup1, dup2) {
		t.Errorf("ED: non-dup sim %v >= dup sim %v", s, ed.Similarity(dup1, dup2))
	}
}

// TestPrepareLeavesSimilarityUnchanged: for every Kind, a pair whose
// profiles were prepared scores exactly what a fresh, unprepared copy of the
// pair scores.
func TestPrepareLeavesSimilarityUnchanged(t *testing.T) {
	pair := func() (*profile.Profile, *profile.Profile) {
		return profile.New(1, profile.SourceA, "e1", "title", "The Matrix 1999 Wachowski"),
			profile.New(2, profile.SourceB, "e1", "name", "Matrix, The (1999) dir. Wachowski")
	}
	for _, kind := range []Kind{JS, ED, JW} {
		m := NewMatcher(kind)
		a, b := pair()
		m.Prepare(a)
		m.Prepare(b)
		fa, fb := pair()
		if got, want := m.Similarity(a, b), m.Similarity(fa, fb); got != want {
			t.Errorf("%v: prepared pair scores %v, unprepared %v", kind, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if JS.String() != "JS" || ED.String() != "ED" {
		t.Error("Kind.String wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown Kind should embed the number")
	}
}

func TestCostModelRegimes(t *testing.T) {
	costs := DefaultCosts()
	long1 := profile.New(1, profile.SourceA, "", "d", strings.Repeat("lorem ipsum dolor ", 20))
	long2 := profile.New(2, profile.SourceB, "", "d", strings.Repeat("ipsum lorem dolor ", 20))

	js := costs.Compare(JS, long1, long2)
	ed := costs.Compare(ED, long1, long2)
	if ed < 10*js {
		t.Errorf("ED cost %v not at least 10x JS cost %v on long profiles", ed, js)
	}
	if costs.Generate(100) <= 0 || costs.Block(50) <= 0 || costs.Graph(10) <= 0 || costs.Sort(10) <= 0 {
		t.Error("cost model returned non-positive durations")
	}
}

func BenchmarkJaccard(b *testing.B) {
	p1 := profile.New(1, profile.SourceA, "", "d", strings.Repeat("alpha beta gamma delta ", 5))
	p2 := profile.New(2, profile.SourceB, "", "d", strings.Repeat("beta gamma epsilon zeta ", 5))
	js := NewMatcher(JS)
	t1, t2 := js.tokenSyms(p1), js.tokenSyms(p2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jaccardSyms(t1, t2)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	s1 := strings.Repeat("lorem ipsum dolor sit amet ", 4)
	s2 := strings.Repeat("ipsum lorem dolor sit amat ", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Levenshtein(s1, s2)
	}
}
