package metablocking

import (
	"math"
	"math/rand"
	"testing"

	"pier/internal/blocking"
	"pier/internal/profile"
)

func mk(id int, src profile.Source, val string) *profile.Profile {
	return profile.New(id, src, "", "attr", val)
}

// smallWorld builds a tiny clean-clean collection:
//
//	p1(A): "matrix sequel film"      p2(B): "matrix sequel movie"
//	p3(B): "matrix"                  p4(B): "unrelated words"
func smallWorld(t *testing.T) (*blocking.Collection, []*profile.Profile) {
	t.Helper()
	c := blocking.NewCollection(true, 0)
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "matrix sequel film"),
		mk(2, profile.SourceB, "matrix sequel movie"),
		mk(3, profile.SourceB, "matrix"),
		mk(4, profile.SourceB, "unrelated words"),
	}
	for _, p := range ps {
		c.Add(p)
	}
	return c, ps
}

func findCmp(cs []Comparison, x, y int) (Comparison, bool) {
	key := profile.PairKey(x, y)
	for _, c := range cs {
		if c.Key() == key {
			return c, true
		}
	}
	return Comparison{}, false
}

func TestCandidatesCBS(t *testing.T) {
	c := blocking.NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "matrix sequel film"))
	p2 := mk(2, profile.SourceB, "matrix sequel movie")
	c.Add(p2)

	cs := Candidates(c, p2, c.BlocksOf(2), CBS)
	if len(cs) != 1 {
		t.Fatalf("got %d candidates, want 1: %v", len(cs), cs)
	}
	if cs[0].Weight != 2 { // shares blocks "matrix" and "sequel"
		t.Errorf("CBS weight = %v, want 2", cs[0].Weight)
	}
	if cs[0].X != 2 || cs[0].Y != 1 {
		t.Errorf("candidate = %v, want anchor 2 partner 1", cs[0])
	}
}

func TestCandidatesOnlySmallerIDs(t *testing.T) {
	c, ps := smallWorld(t)
	// Candidates for p1 (ID 1, smallest): no earlier partners exist.
	cs := Candidates(c, ps[0], c.BlocksOf(1), CBS)
	if len(cs) != 0 {
		t.Errorf("p1 candidates = %v, want none (no smaller IDs)", cs)
	}
	// p3 shares "matrix" with p1 only (cross-source).
	cs = Candidates(c, ps[2], c.BlocksOf(3), CBS)
	if len(cs) != 1 || cs[0].Y != 1 {
		t.Errorf("p3 candidates = %v, want exactly (3,1)", cs)
	}
}

func TestCandidatesCleanCleanCrossSourceOnly(t *testing.T) {
	c, ps := smallWorld(t)
	// p4 (source B) shares no token with p1 (A); p2, p3 are same-source.
	cs := Candidates(c, ps[3], c.BlocksOf(4), CBS)
	if len(cs) != 0 {
		t.Errorf("p4 candidates = %v, want none", cs)
	}
}

func TestCandidatesDirtyAllPairs(t *testing.T) {
	c := blocking.NewCollection(false, 0)
	c.Add(mk(1, profile.SourceA, "shared token"))
	c.Add(mk(2, profile.SourceA, "shared other"))
	p3 := mk(3, profile.SourceA, "shared token")
	c.Add(p3)
	cs := Candidates(c, p3, c.BlocksOf(3), CBS)
	if len(cs) != 2 {
		t.Fatalf("dirty candidates = %v, want 2", cs)
	}
	c31, ok := findCmp(cs, 3, 1)
	if !ok || c31.Weight != 2 {
		t.Errorf("c(3,1) = %v,%v want weight 2", c31, ok)
	}
	c32, ok := findCmp(cs, 3, 2)
	if !ok || c32.Weight != 1 {
		t.Errorf("c(3,2) = %v,%v want weight 1", c32, ok)
	}
}

func TestCandidatesBSizeIsSmallestSharedBlock(t *testing.T) {
	c := blocking.NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "rare common"))
	c.Add(mk(2, profile.SourceA, "common"))
	c.Add(mk(3, profile.SourceA, "common"))
	p4 := mk(4, profile.SourceB, "rare common")
	c.Add(p4)
	cs := Candidates(c, p4, c.BlocksOf(4), CBS)
	c41, ok := findCmp(cs, 4, 1)
	if !ok {
		t.Fatalf("missing c(4,1) in %v", cs)
	}
	// Shared blocks: "rare" (size 2) and "common" (size 4); BSize = 2.
	if c41.BSize != 2 {
		t.Errorf("BSize = %d, want 2", c41.BSize)
	}
}

func TestJSSchemeWeight(t *testing.T) {
	c := blocking.NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "aa bb cc"))
	p2 := mk(2, profile.SourceB, "aa bb dd")
	c.Add(p2)
	cs := Candidates(c, p2, c.BlocksOf(2), JSScheme)
	if len(cs) != 1 {
		t.Fatalf("candidates = %v", cs)
	}
	// |B(1)|=3, |B(2)|=3, common=2 -> 2/(3+3-2) = 0.5
	if math.Abs(cs[0].Weight-0.5) > 1e-12 {
		t.Errorf("JS weight = %v, want 0.5", cs[0].Weight)
	}
}

func TestARCSSchemeWeight(t *testing.T) {
	c := blocking.NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "aa bb"))
	c.Add(mk(2, profile.SourceA, "bb"))
	p3 := mk(3, profile.SourceB, "aa bb")
	c.Add(p3)
	cs := Candidates(c, p3, c.BlocksOf(3), ARCS)
	c31, ok := findCmp(cs, 3, 1)
	if !ok {
		t.Fatalf("missing c(3,1): %v", cs)
	}
	// Block "aa": A=[1], B=[3] -> ||b||=1 -> 1/1. Block "bb": A=[1,2], B=[3] -> ||b||=2 -> 1/2.
	if math.Abs(c31.Weight-1.5) > 1e-12 {
		t.Errorf("ARCS weight = %v, want 1.5", c31.Weight)
	}
}

func TestECBS(t *testing.T) {
	c := blocking.NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "aa bb cc"))
	p2 := mk(2, profile.SourceB, "aa bb")
	c.Add(p2)
	cs := Candidates(c, p2, c.BlocksOf(2), ECBS)
	if len(cs) != 1 {
		t.Fatalf("candidates = %v", cs)
	}
	// common=2, |B|=3, |B(1)|=3, |B(2)|=2:
	// ECBS = 2 * ln(3/3) * ln(3/2) = 0 because profile 1 is in every block.
	if got := cs[0].Weight; math.Abs(got-0) > 1e-12 {
		t.Errorf("ECBS weight = %v, want 0", got)
	}

	// Add a block that profile 1 does not occupy so both log factors are > 0.
	c.Add(mk(3, profile.SourceA, "zz"))
	p4 := mk(4, profile.SourceB, "aa bb")
	c.Add(p4)
	cs = Candidates(c, p4, c.BlocksOf(4), ECBS)
	c41, ok := findCmp(cs, 4, 1)
	if !ok {
		t.Fatalf("missing c(4,1): %v", cs)
	}
	// common=2, |B|=4, |B(1)|=3, |B(4)|=2 -> 2*ln(4/3)*ln(2).
	want := 2 * math.Log(4.0/3.0) * math.Log(2)
	if math.Abs(c41.Weight-want) > 1e-12 {
		t.Errorf("ECBS weight = %v, want %v", c41.Weight, want)
	}
}

func TestCandidatesDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vocab := []string{"qq", "ww", "ee", "rr", "tt", "yy", "uu"}
	c := blocking.NewCollection(false, 0)
	var last *profile.Profile
	for i := 0; i < 40; i++ {
		val := ""
		for j := 0; j < 1+rng.Intn(4); j++ {
			val += vocab[rng.Intn(len(vocab))] + " "
		}
		last = mk(i, profile.SourceA, val)
		c.Add(last)
	}
	a := Candidates(c, last, c.BlocksOf(last.ID), CBS)
	b := Candidates(c, last, c.BlocksOf(last.ID), CBS)
	if len(a) != len(b) {
		t.Fatal("non-deterministic candidate count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if Less(a[i-1], a[i]) {
			t.Fatalf("candidates not sorted descending at %d: %v then %v", i, a[i-1], a[i])
		}
	}
}

func TestIWNP(t *testing.T) {
	cs := []Comparison{
		{X: 9, Y: 1, Weight: 1},
		{X: 9, Y: 2, Weight: 2},
		{X: 9, Y: 3, Weight: 3},
		{X: 9, Y: 4, Weight: 10},
	}
	// mean = 4; survivors: weight 10 only.
	out := IWNP(cs)
	if len(out) != 1 || out[0].Y != 4 {
		t.Errorf("IWNP = %v, want only the weight-10 comparison", out)
	}
}

func TestIWNPAllEqualKeepsAll(t *testing.T) {
	cs := []Comparison{{Weight: 2}, {Weight: 2}, {Weight: 2}}
	if out := IWNP(cs); len(out) != 3 {
		t.Errorf("IWNP kept %d of equal-weight comparisons, want 3", len(out))
	}
}

func TestIWNPEmpty(t *testing.T) {
	if out := IWNP(nil); len(out) != 0 {
		t.Errorf("IWNP(nil) = %v", out)
	}
}

func TestIWNPInvariantAboveMean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		cs := make([]Comparison, n)
		sum := 0.0
		for i := range cs {
			cs[i] = Comparison{X: 100, Y: i, Weight: float64(rng.Intn(20))}
			sum += cs[i].Weight
		}
		mean := sum / float64(n)
		out := IWNP(cs)
		if len(out) == 0 {
			t.Fatalf("trial %d: IWNP dropped everything", trial)
		}
		for _, c := range out {
			if c.Weight < mean {
				t.Fatalf("trial %d: survivor weight %v below mean %v", trial, c.Weight, mean)
			}
		}
	}
}

func TestLessOrderings(t *testing.T) {
	a := Comparison{X: 1, Y: 2, Weight: 1, BSize: 5}
	b := Comparison{X: 1, Y: 3, Weight: 2, BSize: 9}
	if !Less(a, b) || Less(b, a) {
		t.Error("Less must order by weight")
	}
	// Block-centric: smaller BSize is better even with lower weight.
	if CompareBlockCentric(b, a) >= 0 {
		t.Error("CompareBlockCentric must prefer smaller BSize")
	}
	sameB1 := Comparison{X: 1, Y: 2, Weight: 1, BSize: 5}
	sameB2 := Comparison{X: 1, Y: 3, Weight: 2, BSize: 5}
	if CompareBlockCentric(sameB1, sameB2) >= 0 {
		t.Error("CompareBlockCentric must fall back to weight within a block size")
	}
}

func TestCBSSymmetry(t *testing.T) {
	// CBS must be symmetric: weight of (x,y) equals |B(x) ∩ B(y)| computed
	// from either side. We verify against a direct intersection count.
	rng := rand.New(rand.NewSource(77))
	vocab := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}
	c := blocking.NewCollection(false, 0)
	var ps []*profile.Profile
	for i := 0; i < 30; i++ {
		val := ""
		for j := 0; j < 1+rng.Intn(5); j++ {
			val += vocab[rng.Intn(len(vocab))] + " "
		}
		p := mk(i, profile.SourceA, val)
		ps = append(ps, p)
		c.Add(p)
	}
	intersect := func(x, y int) int {
		bx := map[string]bool{}
		for _, b := range c.BlocksOf(x) {
			bx[b.Key] = true
		}
		n := 0
		for _, b := range c.BlocksOf(y) {
			if bx[b.Key] {
				n++
			}
		}
		return n
	}
	for _, p := range ps[1:] {
		for _, cand := range Candidates(c, p, c.BlocksOf(p.ID), CBS) {
			if want := intersect(cand.X, cand.Y); int(cand.Weight) != want {
				t.Fatalf("CBS(%d,%d) = %v, want %d", cand.X, cand.Y, cand.Weight, want)
			}
		}
	}
}

func TestEdgesCoversAllSharingPairs(t *testing.T) {
	c, ps := smallWorld(t)
	ids := make([]int, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	edges := Edges(c, ids, CBS)
	// Cross-source sharing pairs: (1,2) share 2 blocks, (1,3) share 1.
	if len(edges) != 2 {
		t.Fatalf("Edges = %v, want 2 edges", edges)
	}
	e12, ok := findCmp(edges, 1, 2)
	if !ok || e12.Weight != 2 {
		t.Errorf("edge(1,2) = %v,%v", e12, ok)
	}
	if _, ok := findCmp(edges, 1, 3); !ok {
		t.Error("edge(1,3) missing")
	}
	// Sorted descending.
	if edges[0].Weight < edges[1].Weight {
		t.Error("Edges not sorted by descending weight")
	}
}

func TestProfileLikelihoods(t *testing.T) {
	edges := []Comparison{
		{X: 1, Y: 2, Weight: 3},
		{X: 1, Y: 3, Weight: 1},
	}
	order, like := ProfileLikelihoods(edges)
	if like[1] != 4 || like[2] != 3 || like[3] != 1 {
		t.Errorf("likelihoods = %v", like)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{CBS: "CBS", JSScheme: "JS", ECBS: "ECBS", ARCS: "ARCS"} {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
