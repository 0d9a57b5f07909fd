package match

import (
	"fmt"
	"math"
	"testing"

	"pier/internal/profile"
)

// probeRuns numbers the calls of unseen, so that every run of a test in one
// process (-count=2, -cpu 1,2) draws tokens simTab has not seen yet.
var probeRuns int

// unseen returns toks, each suffixed with this call's number: tokens no
// earlier call, and so no earlier run of the same test, has interned.
func unseen(toks ...string) []string {
	probeRuns++
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = fmt.Sprintf("%sr%d", t, probeRuns)
	}
	return out
}

// fresh returns an unprepared copy of p, whose first Similarity encodes (and
// interns) its tokens anew.
func fresh(p *profile.Profile) *profile.Profile {
	return &profile.Profile{ID: p.ID, Source: p.Source, Attributes: append([]profile.Attribute(nil), p.Attributes...)}
}

// TestProbeDoesNotIntern: weighing a probe whose tokens the matcher has never
// seen leaves simTab's length unchanged, for every Kind. Matcher.Similarity
// on the same pair, the form queries used before, interns them for good.
func TestProbeDoesNotIntern(t *testing.T) {
	toks := unseen("probeknown", "probeshared", "probeother", "probeneverseena", "probeneverseenb")
	y := tokenProfile(1, toks[:3])
	probe := tokenProfile(-1, []string{toks[1], toks[3], toks[4]})
	for _, kind := range []Kind{JS, ED, JW} {
		m := NewMatcher(kind)
		m.Prepare(y)
		n0 := simTab.Len()
		m.Probe(probe).Similarity(y)
		if n := simTab.Len(); n != n0 {
			t.Errorf("%v: the probe form grew simTab from %d to %d symbols", kind, n0, n)
		}
	}
	n0 := simTab.Len()
	NewMatcher(JS).Similarity(fresh(probe), y)
	if simTab.Len() != n0+2 {
		t.Errorf("Matcher.Similarity interned %d of the probe's 2 unseen tokens", simTab.Len()-n0)
	}
}

// TestProbeSimilarityBitIdentical: the probe form's similarity equals
// Matcher.Similarity's float bits on known, unknown, mixed and empty token
// sets, for every Kind. Each case draws tokens of its own, so the candidate's
// Prepare, just before the form is built, is what interns the tokens it
// shares with the probe (as for a candidate restored from a checkpoint), and
// the probe's other tokens are still unknown when the form looks them up.
func TestProbeSimilarityBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		probe, y []int // indices into the case's unseen tokens
	}{
		{"known", []int{0, 1, 2}, []int{0, 1, 2, 3, 4}},
		{"unknown", []int{0, 1}, []int{2, 3}},
		{"mixed", []int{0, 1, 2, 3}, []int{0, 2, 4}},
		{"identical", []int{0, 1}, []int{0, 1}},
		{"empty probe", nil, []int{0, 1}},
		{"empty candidate", []int{0, 1}, nil},
		{"both empty", nil, nil},
	}
	pick := func(toks []string, idx []int) []string {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = toks[j]
		}
		return out
	}
	for _, kind := range []Kind{JS, ED, JW} {
		m := NewMatcher(kind)
		for _, c := range cases {
			toks := unseen("bita", "bitb", "bitc", "bitd", "bite")
			probe := tokenProfile(-1, pick(toks, c.probe))
			y := tokenProfile(1, pick(toks, c.y))
			NewMatcher(JS).Prepare(y)
			got := m.Probe(probe).Similarity(y)
			want := m.Similarity(fresh(probe), fresh(y))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v %s: probe form %v, Matcher.Similarity %v", kind, c.name, got, want)
			}
		}
	}
}
