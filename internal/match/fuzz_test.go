package match

import (
	"math"
	"testing"
	"unicode/utf8"

	"pier/internal/profile"
)

// FuzzLevenshtein verifies metric properties on arbitrary string pairs.
// Distance is defined over decoded runes, so the identity property is only
// asserted for valid UTF-8 (invalid bytes collapse to U+FFFD).
func FuzzLevenshtein(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Add("", "")
	f.Add("日本語", "日本")
	f.Add("ÿ", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			t.Fatalf("asymmetric: d(%q,%q)=%d", a, b, d)
		}
		if utf8.ValidString(a) && utf8.ValidString(b) && (d == 0) != (a == b) {
			t.Fatalf("identity of indiscernibles violated for %q vs %q (d=%d)", a, b, d)
		}
		if s := EditSimilarity(a, b); s < 0 || s > 1 {
			t.Fatalf("EditSimilarity out of range: %v", s)
		}
		if s := JaroWinkler(a, b); s < 0 || s > 1.0000001 {
			t.Fatalf("JaroWinkler out of range: %v", s)
		}
	})
}

// FuzzMatcherTables scores the same profiles with two matchers whose tables
// number their tokens in different orders, interleaving the matchers so that
// each profile's cached form is filled by one table and read back by the
// other. Similarity and the probe form must equal a string-set Jaccard bit
// for bit: the numbering, and which table cached first, change nothing.
func FuzzMatcherTables(f *testing.F) {
	f.Add("the matrix 1999", "matrix the 1999 wachowski", "blade runner 1982")
	f.Add("", "alpha beta", "")
	f.Add("ab ab cd", "CD Ef gh", "日本 語 ab")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		ps := []*profile.Profile{
			profile.New(0, profile.SourceA, "", "v", a),
			profile.New(1, profile.SourceA, "", "v", b),
			profile.New(2, profile.SourceB, "", "v", c),
		}
		m1, m2 := NewMatcher(JS), NewMatcher(JS)
		m2.Prepare(ps[2]) // m2 numbers the last profile's tokens first
		check := func(what string, got float64, x, y *profile.Profile) {
			t.Helper()
			if want := stringJaccard(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%q, %q) = %v, string Jaccard %v", what, x.Attributes[0].Value, y.Attributes[0].Value, got, want)
			}
		}
		for round := 0; round < 2; round++ {
			for i, x := range ps {
				y := ps[(i+1)%len(ps)]
				for _, m := range []Matcher{m1, m2} {
					check("Similarity", m.Similarity(x, y), x, y)
					m.Prepare(y)
					check("Probe", m.Probe(fresh(x)).Similarity(y), x, y)
				}
			}
		}
	})
}
