package match

import (
	"math"
	"testing"

	"pier/internal/profile"
)

// fresh returns an unprepared copy of p, whose first Similarity encodes (and
// interns) its tokens anew.
func fresh(p *profile.Profile) *profile.Profile {
	return &profile.Profile{ID: p.ID, Source: p.Source, Attributes: append([]profile.Attribute(nil), p.Attributes...)}
}

// stringJaccard is the reference the symbol measure must equal bit for bit:
// Jaccard over the two profiles' token strings, no symbol table involved.
func stringJaccard(a, b *profile.Profile) float64 {
	ta, tb := a.Tokens(), b.Tokens()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	in := make(map[string]bool, len(ta))
	for _, t := range ta {
		in[t] = true
	}
	inter := 0
	for _, t := range tb {
		if in[t] {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// TestProbeDoesNotIntern: weighing a probe whose tokens the matcher has never
// seen leaves the matcher's table length unchanged, for every Kind.
// Matcher.Similarity on the same pair interns them.
func TestProbeDoesNotIntern(t *testing.T) {
	y := tokenProfile(1, []string{"probeknown", "probeshared", "probeother"})
	probe := tokenProfile(-1, []string{"probeshared", "probeneverseena", "probeneverseenb"})
	for _, kind := range []Kind{JS, ED, JW} {
		m := NewMatcher(kind)
		m.Prepare(y)
		n0 := m.tab.Len()
		m.Probe(probe).Similarity(y)
		if n := m.tab.Len(); n != n0 {
			t.Errorf("%v: the probe form grew the table from %d to %d symbols", kind, n0, n)
		}
	}
	m := NewMatcher(JS)
	m.Prepare(y)
	n0 := m.tab.Len()
	m.Similarity(fresh(probe), y)
	if m.tab.Len() != n0+2 {
		t.Errorf("Matcher.Similarity interned %d of the probe's 2 unseen tokens", m.tab.Len()-n0)
	}
}

// TestProbeSimilarityBitIdentical: the probe form's similarity equals
// Matcher.Similarity's float bits on known, unknown, mixed and empty token
// sets, for every Kind. Each case has a matcher of its own, so the
// candidate's Prepare, just before the form is built, is what interns the
// tokens it shares with the probe (as for a candidate restored from a
// checkpoint), and the probe's other tokens are still unknown when the form
// looks them up.
func TestProbeSimilarityBitIdentical(t *testing.T) {
	cases := []struct {
		name     string
		probe, y []int // indices into toks
	}{
		{"known", []int{0, 1, 2}, []int{0, 1, 2, 3, 4}},
		{"unknown", []int{0, 1}, []int{2, 3}},
		{"mixed", []int{0, 1, 2, 3}, []int{0, 2, 4}},
		{"identical", []int{0, 1}, []int{0, 1}},
		{"empty probe", nil, []int{0, 1}},
		{"empty candidate", []int{0, 1}, nil},
		{"both empty", nil, nil},
	}
	toks := []string{"bita", "bitb", "bitc", "bitd", "bite"}
	pick := func(idx []int) []string {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = toks[j]
		}
		return out
	}
	for _, kind := range []Kind{JS, ED, JW} {
		for _, c := range cases {
			m := NewMatcher(kind)
			probe := tokenProfile(-1, pick(c.probe))
			y := tokenProfile(1, pick(c.y))
			m.Prepare(y)
			got := m.Probe(probe).Similarity(y)
			want := m.Similarity(fresh(probe), fresh(y))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v %s: probe form %v, Matcher.Similarity %v", kind, c.name, got, want)
			}
		}
	}
}
