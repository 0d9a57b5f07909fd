package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pier/internal/match"
	"pier/internal/profile"
)

func TestDACardinalities(t *testing.T) {
	d := DA(1, 42)
	a, b := d.SourceCounts()
	if a != 2620 || b != 2290 {
		t.Errorf("DA sources = %d - %d, want 2620 - 2290", a, b)
	}
	if d.NumMatches() != 2220 {
		t.Errorf("DA matches = %d, want 2220", d.NumMatches())
	}
	if !d.CleanClean {
		t.Error("DA must be Clean-Clean")
	}
}

func TestMoviesCardinalitiesScaled(t *testing.T) {
	d := Movies(0.1, 7)
	a, b := d.SourceCounts()
	if a != 2760 || b != 2310 {
		t.Errorf("Movies(0.1) sources = %d - %d, want 2760 - 2310", a, b)
	}
	if d.NumMatches() != 2280 {
		t.Errorf("Movies(0.1) matches = %d, want 2280", d.NumMatches())
	}
}

func TestCensusDirtyClusterStats(t *testing.T) {
	d := Census(0.005, 11) // ~10k profiles
	if d.CleanClean {
		t.Error("Census must be Dirty")
	}
	n := d.NumProfiles()
	if n < 9000 || n > 11000 {
		t.Errorf("Census(0.005) profiles = %d, want ~10000", n)
	}
	// Matches/profiles ratio should approximate the paper's 1.7M/2M = 0.85.
	ratio := float64(d.NumMatches()) / float64(n)
	if ratio < 0.6 || ratio > 1.2 {
		t.Errorf("Census match ratio = %.2f, want ~0.85", ratio)
	}
}

func TestWebDataHeterogeneousAndLong(t *testing.T) {
	d := WebData(0.002, 13)
	a, b := d.SourceCounts()
	if a == 0 || b == 0 || b < a {
		t.Errorf("WebData sources = %d - %d, want B > A > 0", a, b)
	}
	// Long values: mean joined length far above census-style records.
	total := 0
	for _, p := range d.Profiles {
		total += p.ValueLen()
	}
	mean := float64(total) / float64(len(d.Profiles))
	if mean < 80 {
		t.Errorf("WebData mean value length = %.1f, want long (>= 80)", mean)
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	for _, d := range []*Dataset{DA(0.2, 3), Movies(0.02, 3), Census(0.001, 3), WebData(0.0005, 3)} {
		t.Run(d.Name, func(t *testing.T) {
			byID := map[int]*profile.Profile{}
			for _, p := range d.Profiles {
				if byID[p.ID] != nil {
					t.Fatalf("duplicate profile ID %d", p.ID)
				}
				byID[p.ID] = p
			}
			for key := range d.GroundTruth {
				x, y := profile.SplitPairKey(key)
				px, py := byID[x], byID[y]
				if px == nil || py == nil {
					t.Fatalf("ground-truth pair (%d,%d) references missing profile", x, y)
				}
				if px.EntityKey == "" || px.EntityKey != py.EntityKey {
					t.Errorf("pair (%d,%d) entity keys %q vs %q", x, y, px.EntityKey, py.EntityKey)
				}
				if d.CleanClean && px.Source == py.Source {
					t.Errorf("clean-clean pair (%d,%d) within one source", x, y)
				}
			}
		})
	}
}

func TestDuplicatesActuallySimilar(t *testing.T) {
	// Sanity: ground-truth duplicates should be far more similar than random
	// pairs, otherwise blocking could never find them.
	d := DA(0.1, 5)
	byID := map[int]*profile.Profile{}
	for _, p := range d.Profiles {
		byID[p.ID] = p
	}
	m := match.NewMatcher(match.JS)
	var dupSum float64
	var n int
	for key := range d.GroundTruth {
		x, y := profile.SplitPairKey(key)
		dupSum += m.Similarity(byID[x], byID[y])
		n++
		if n >= 200 {
			break
		}
	}
	dupMean := dupSum / float64(n)
	var rndSum float64
	cnt := 0
	for i := 0; i+7 < len(d.Profiles) && cnt < 200; i += 7 {
		p, q := d.Profiles[i], d.Profiles[i+7]
		if p.EntityKey == q.EntityKey {
			continue
		}
		rndSum += m.Similarity(p, q)
		cnt++
	}
	rndMean := rndSum / float64(cnt)
	if dupMean < 0.35 {
		t.Errorf("duplicate mean similarity = %.3f, too low for ER", dupMean)
	}
	if dupMean < 3*rndMean {
		t.Errorf("duplicate similarity %.3f not well separated from random %.3f", dupMean, rndMean)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	d1 := DA(0.05, 99)
	d2 := DA(0.05, 99)
	if d1.NumProfiles() != d2.NumProfiles() || d1.NumMatches() != d2.NumMatches() {
		t.Fatal("same seed produced different datasets")
	}
	for i := range d1.Profiles {
		p1, p2 := d1.Profiles[i], d2.Profiles[i]
		if p1.EntityKey != p2.EntityKey || p1.JoinedValues() != p2.JoinedValues() {
			t.Fatalf("profile %d differs across identical seeds", i)
		}
	}
	d3 := DA(0.05, 100)
	same := true
	for i := range d1.Profiles {
		if d1.Profiles[i].JoinedValues() != d3.Profiles[i].JoinedValues() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestIncrementsPartition(t *testing.T) {
	d := DA(0.1, 1)
	for _, n := range []int{1, 7, 100, d.NumProfiles(), d.NumProfiles() * 2} {
		incs := d.Increments(n)
		total := 0
		for _, inc := range incs {
			total += len(inc)
			if len(inc) == 0 {
				t.Errorf("n=%d: empty increment", n)
			}
		}
		if total != d.NumProfiles() {
			t.Errorf("n=%d: increments cover %d profiles, want %d", n, total, d.NumProfiles())
		}
	}
	if got := d.Increments(0); len(got) != 1 {
		t.Errorf("Increments(0) = %d increments, want 1", len(got))
	}
}

func TestStringSummaries(t *testing.T) {
	d := DA(0.05, 2)
	s := d.String()
	if !strings.Contains(s, "dblp-acm") || !strings.Contains(s, "Clean-Clean") {
		t.Errorf("String() = %q", s)
	}
	c := Census(0.0005, 2)
	if !strings.Contains(c.String(), "Dirty") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := DA(0.02, 8)
	var pbuf, gbuf bytes.Buffer
	if err := WriteCSV(&pbuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteGroundTruthCSV(&gbuf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(pbuf.Bytes()), d.Name, d.CleanClean)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadGroundTruthCSV(bytes.NewReader(gbuf.Bytes()), got); err != nil {
		t.Fatal(err)
	}
	if got.NumProfiles() != d.NumProfiles() {
		t.Fatalf("round trip profiles = %d, want %d", got.NumProfiles(), d.NumProfiles())
	}
	if got.NumMatches() != d.NumMatches() {
		t.Fatalf("round trip matches = %d, want %d", got.NumMatches(), d.NumMatches())
	}
	for i, p := range got.Profiles {
		orig := d.Profiles[i]
		if p.ID != orig.ID || p.Source != orig.Source || p.EntityKey != orig.EntityKey {
			t.Fatalf("profile %d header mismatch", i)
		}
		if p.JoinedValues() != orig.JoinedValues() {
			t.Fatalf("profile %d values mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"1,A\n",          // too few fields
		"1,A,key,name\n", // dangling name without value
		"x,A,key\n",      // bad id
		"1,Q,key\n",      // bad source
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "bad", true); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", in)
		}
	}
}

func TestVocabZipfSkew(t *testing.T) {
	b := newBuilder(123)
	v := newVocab(b.rng, 1000, 1.3)
	counts := map[string]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[v.sample()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipfian: the most frequent word should dominate (far above uniform
	// expectation of 20), and many words should be rare or unseen.
	if max < 200 {
		t.Errorf("max word frequency %d; distribution not skewed", max)
	}
	if len(counts) > 950 {
		t.Errorf("%d distinct words drawn; expected a long unseen tail", len(counts))
	}
}

func TestCorruptionOperators(t *testing.T) {
	b := newBuilder(5)
	for i := 0; i < 100; i++ {
		w := "wachowski"
		tw := typo(b.rng, w)
		if d := match.Levenshtein(w, tw); d > 2 {
			t.Fatalf("typo distance %d for %q -> %q", d, w, tw)
		}
	}
	if got := abbreviate("wachowski"); got != "w." {
		t.Errorf("abbreviate = %q", got)
	}
	if got := abbreviate(""); got != "" {
		t.Errorf("abbreviate(empty) = %q", got)
	}
	for i := 0; i < 50; i++ {
		s := digits(b.rng, 4)
		if len(s) != 4 {
			t.Fatalf("digits len = %d", len(s))
		}
		d := digitTypo(b.rng, s)
		if len(d) != 4 {
			t.Fatalf("digitTypo len = %d", len(d))
		}
	}
	if digitTypo(b.rng, "") != "" {
		t.Error("digitTypo(empty) changed the string")
	}
	if typo(b.rng, "") != "" {
		t.Error("typo(empty) changed the string")
	}
}

func TestPerturbPhraseNeverEmpty(t *testing.T) {
	b := newBuilder(17)
	for i := 0; i < 200; i++ {
		out := perturbPhrase(b.rng, "alpha beta gamma", 0.5, 0.9)
		if strings.TrimSpace(out) == "" {
			t.Fatal("perturbPhrase produced empty value")
		}
	}
	if out := perturbPhrase(b.rng, "single", 0, 1); out != "single" {
		t.Errorf("single word must never be dropped, got %q", out)
	}
}

func TestScaled(t *testing.T) {
	if scaled(100, 0.5) != 50 || scaled(100, 0) != 100 || scaled(3, 0.001) != 1 {
		t.Error("scaled helper wrong")
	}
	if math.Abs(float64(scaled(1000, 0.25))-250) > 0 {
		t.Error("scaled(1000, .25) != 250")
	}
}

func TestSplitHelpers(t *testing.T) {
	got := splitComma("a b, c d,  e")
	want := []string{"a b", "c d", "e"}
	if len(got) != len(want) {
		t.Fatalf("splitComma = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitComma = %v, want %v", got, want)
		}
	}
	if got := truncateList("a, b, c, d"); got != "a, b" {
		t.Errorf("truncateList = %q", got)
	}
	if got := truncateList("a"); got != "a" {
		t.Errorf("truncateList single = %q", got)
	}
}
