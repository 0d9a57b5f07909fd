package stream

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// TestQueryLeavesMatcherSymbolsUnchanged: under token blocking the matcher
// numbers tokens in the collection's table. An ingested profile's matcher
// form is its PrepareBatch symbols, sorted, cached at ingest (the encoder
// below never runs), so ingest interns each token once. Preparing an
// unprepared copy of a candidate, as a query does for a restored one, and
// repeated queries whose probes carry tokens the pipeline never saw, beside
// tokens that reach candidates, leave the table as long as it was.
func TestQueryLeavesMatcherSymbolsUnchanged(t *testing.T) {
	d := dataset.DA(0.05, 29)
	incs := d.Increments(2)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean: true,
		Matcher:    match.NewMatcher(match.JS),
		TickEvery:  time.Millisecond,
	})
	for _, inc := range incs {
		l.Push(inc)
	}
	l.Stop()

	col := l.st.col
	tab := col.Table()
	n0 := tab.Len()
	for _, id := range col.ProfileIDs() {
		p := col.Profile(id)
		var want []uint32
		for _, sym := range col.PrepareBatch([]*profile.Profile{p})[0] {
			want = append(want, uint32(sym))
		}
		slices.Sort(want)
		got := p.TokenSyms(tab, func([]string) []uint32 {
			t.Fatalf("profile %d has no matcher form in the collection's table", id)
			return nil
		})
		if !slices.Equal(got, want) {
			t.Fatalf("profile %d: matcher form %v, sorted PrepareBatch symbols %v", id, got, want)
		}
		l.cfg.Matcher.Prepare(probeOf(p))
	}
	matched := 0
	for round := 0; round < 2; round++ {
		for i, p := range incs[0][:20] {
			probe := probeOf(p)
			probe.Attributes = append(probe.Attributes, profile.Attribute{
				Name: "junk", Value: fmt.Sprintf("unseenqa%d unseenqb%d", i, i),
			})
			ans, err := l.Query(context.Background(), probe, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			matched += len(ans.Candidates)
		}
	}
	if matched == 0 {
		t.Fatal("no query reached the matcher")
	}
	if n := tab.Len(); n != n0 {
		t.Errorf("preparing candidates and querying grew the pipeline's symbol table from %d to %d symbols", n0, n)
	}
}

// TestQueryPreparesCandidatesBeforeProbeForm: a restored pipeline's profiles
// are not prepared. Under a q-gram keyer the matcher's table is the
// pipeline's own and no checkpoint saves it, so the restored candidates'
// tokens are in no table until the query prepares them; under token blocking
// they are in the restored collection's table already. Either way the query
// prepares its candidates before it builds the probe's lookup-only form, and
// the restored answer (IDs, weights, similarity bits) equals the checkpointed
// pipeline's and Matcher.Similarity's.
func TestQueryPreparesCandidatesBeforeProbeForm(t *testing.T) {
	var inc []*profile.Profile
	for i := 0; i < 12; i++ {
		inc = append(inc, profile.New(i, profile.SourceA, "", "title",
			fmt.Sprintf("restqg%d restqh%d restqx%d", i%3, i%2, i)))
	}
	for _, keyer := range []blocking.Keyer{nil, profile.QGramKeys} {
		cfg := LiveConfig{
			Keyer:     keyer,
			Matcher:   match.NewMatcher(match.JS),
			TickEvery: time.Millisecond,
		}
		l := LiveRun(core.NewIPCS(core.DefaultConfig()), cfg)
		l.Push(inc)
		l.Stop()
		before, err := l.Query(context.Background(), probeOf(inc[0]), QueryOptions{TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := l.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		l2, err := RestoreLive(&buf, core.NewIPCS(core.DefaultConfig()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := l2.Query(context.Background(), probeOf(inc[0]), QueryOptions{TopK: -1})
		l2.Stop()
		if err != nil {
			t.Fatal(err)
		}
		name := "token blocking"
		if keyer != nil {
			name = "q-grams"
		}
		if len(ans.Candidates) == 0 || len(ans.Candidates) != len(before.Candidates) {
			t.Fatalf("%s: the restored query found %d candidates, the checkpointed one %d", name, len(ans.Candidates), len(before.Candidates))
		}
		js := match.NewMatcher(match.JS)
		for i, c := range ans.Candidates {
			b := before.Candidates[i]
			if c.ID != b.ID || math.Float64bits(c.Weight) != math.Float64bits(b.Weight) ||
				math.Float64bits(c.Similarity) != math.Float64bits(b.Similarity) {
				t.Errorf("%s: rank %d restored %+v, checkpointed %+v", name, i, c, b)
			}
			want := js.Similarity(probeOf(inc[0]), c.Profile)
			if math.Float64bits(c.Similarity) != math.Float64bits(want) {
				t.Errorf("%s: candidate %d: similarity %v, Matcher.Similarity %v", name, c.ID, c.Similarity, want)
			}
		}
	}
}

// stringJaccard is Jaccard over two profiles' token strings, with no symbol
// table involved: the reference every symbol similarity must equal bit for bit.
func stringJaccard(a, b *profile.Profile) float64 {
	ta, tb := a.Tokens(), b.Tokens()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for _, tok := range ta {
		if _, ok := slices.BinarySearch(tb, tok); ok {
			inter++
		}
	}
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// TestRescoreWithFreshMatcher is the benchmark harness's rescore pattern: the
// profiles a pipeline scored are scored again outside it by a fresh
// match.NewMatcher, whose table numbers the tokens differently. In both
// orders (the pipeline first, or the fresh matcher first, so that the
// pipeline finds each profile's cache filled by another table) every reported
// match, every query answer and every rescore is bit-identical to a
// string-set Jaccard.
func TestRescoreWithFreshMatcher(t *testing.T) {
	for _, rescoreFirst := range []bool{false, true} {
		d := dataset.DA(0.05, 37) // fresh profiles, no cache filled yet
		fresh := match.NewMatcher(match.JS)
		check := func(what string, got float64, x, y *profile.Profile) {
			t.Helper()
			if want := stringJaccard(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("rescoreFirst=%v %s(%d, %d) = %v, string Jaccard %v", rescoreFirst, what, x.ID, y.ID, got, want)
			}
		}
		if rescoreFirst {
			for i := 1; i < len(d.Profiles); i++ {
				x, y := d.Profiles[i-1], d.Profiles[i]
				check("fresh Similarity", fresh.Similarity(x, y), x, y)
			}
		}
		var ms []LiveMatch
		l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
			CleanClean: true,
			Matcher:    match.NewMatcher(match.JS),
			TickEvery:  time.Millisecond,
			OnMatch:    func(m LiveMatch) { ms = append(ms, m) },
		})
		for _, inc := range d.Increments(2) {
			l.Push(inc)
		}
		l.Stop()
		if len(ms) == 0 {
			t.Fatalf("rescoreFirst=%v: the pipeline reported no match", rescoreFirst)
		}
		for _, m := range ms {
			check("pipeline", m.Similarity, m.X, m.Y)
			check("fresh Similarity", fresh.Similarity(m.X, m.Y), m.X, m.Y)
			check("second fresh Similarity", match.NewMatcher(match.JS).Similarity(m.X, m.Y), m.X, m.Y)
		}
		for _, p := range d.Profiles[:20] {
			probe := probeOf(p)
			ans, err := l.Query(context.Background(), probe, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ans.Candidates {
				check("query", c.Similarity, probe, c.Profile)
			}
		}
	}
}

// rankVocab draws tokens for the ranking test: a vocabulary of 16 words,
// skewed so that a few blocks outgrow MaxBlockSize and are purged, and most
// partners share one or two blocks with a probe, which ties their CBS
// weights.
func rankVocab(rng *rand.Rand, n int) string {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = fmt.Sprintf("tok%02d", int(16*math.Pow(rng.Float64(), 1.5)))
	}
	return strings.Join(toks, " ")
}

// referenceQuery is the ranking every Query answer must equal, computed the
// plain way: accumulate every co-blocked partner of the probe in a map from
// the same pinned view, weigh each with the pipeline's scheme, sort all of
// them (best weight first, then ascending ID), cut to topK, and match the
// survivors with Matcher.Similarity on a copy of the probe.
func referenceQuery(l *Live, probe *profile.Profile, topK int) *QueryAnswer {
	col, cc, scheme := l.st.col, l.cfg.CleanClean, l.cfg.Scheme
	view := col.ProbeView()
	postings := view.AppendPostings(nil, col.ProbeSyms(probe))
	common := make(map[int]int)
	arcs := make(map[int]float64)
	add := func(ids []int, inv float64) {
		for _, id := range ids {
			common[id]++
			arcs[id] += inv
		}
	}
	for _, p := range postings {
		inv := 1.0 / float64(max(1, p.Comparisons(cc)))
		switch {
		case !cc:
			add(p.A, inv)
			add(p.B, inv)
		case probe.Source == profile.SourceA:
			add(p.B, inv)
		default:
			add(p.A, inv)
		}
	}
	all := make([]QueryCandidate, 0, len(common))
	for id, c := range common {
		var by, total int
		if scheme.UsesCardinalities() {
			by, total = view.NumBlocksOf(id), view.NumBlocks()
		}
		all = append(all, QueryCandidate{ID: id, Weight: scheme.Weight(c, arcs[id], len(postings), by, total)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].ID < all[j].ID
	})
	if topK == 0 {
		topK = DefaultQueryTopK
	}
	if topK > 0 && len(all) > topK {
		all = all[:topK]
	}
	for i := range all {
		all[i].Profile = view.Profile(all[i].ID)
		all[i].Similarity = l.cfg.Matcher.Similarity(probeOf(probe), all[i].Profile)
		all[i].Match = all[i].Similarity >= l.cfg.Matcher.Threshold
	}
	return &QueryAnswer{Candidates: all, Considered: len(common)}
}

// TestQueryRankingMatchesFullSort is the differential test of the top-K
// selection: on seeded random Dirty and Clean-Clean indexes with purged
// blocks and many tied weights, for every scheme and every kind of cut —
// none, 1, 3, the default 10, exactly the partner count and above it — each
// answer equals the full-sort reference in candidates, order, weight and
// similarity bits, verdicts and Considered.
func TestQueryRankingMatchesFullSort(t *testing.T) {
	schemes := []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS}
	for _, cc := range []bool{false, true} {
		for _, scheme := range schemes {
			rng := rand.New(rand.NewSource(int64(len(scheme.String())) + 7))
			var incs [][]*profile.Profile
			id := 0
			for k := 0; k < 4; k++ {
				inc := make([]*profile.Profile, 40)
				for j := range inc {
					src := profile.SourceA
					if cc && rng.Intn(2) == 1 {
						src = profile.SourceB
					}
					inc[j] = profile.New(id, src, "", "v", rankVocab(rng, 2+rng.Intn(4)))
					id++
				}
				incs = append(incs, inc)
			}
			l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
				CleanClean:   cc,
				MaxBlockSize: 30,
				Matcher:      match.NewMatcher(match.JS),
				Scheme:       scheme,
				TickEvery:    time.Millisecond,
			})
			for _, inc := range incs {
				l.Push(inc)
			}
			l.Interrupt() // indexes every pushed increment, skips the drain
			if l.st.col.Block("tok00") != nil {
				t.Fatalf("cc=%v %v: the most frequent token's block was not purged", cc, scheme)
			}

			ties, cut := 0, 0
			for pi := 0; pi < 25; pi++ {
				src := profile.SourceA
				if cc && pi%2 == 1 {
					src = profile.SourceB
				}
				toks := rankVocab(rng, 1+rng.Intn(4))
				if pi%3 == 0 {
					toks += fmt.Sprintf(" rankunseen%d", pi) // a token no block has
				}
				probe := profile.New(-1, src, "", "v", toks)
				all, err := l.Query(context.Background(), probe, QueryOptions{TopK: -1})
				if err != nil {
					t.Fatal(err)
				}
				p := all.Considered
				for _, topK := range []int{-1, 0, 1, 3, 10, p, p + 5} {
					got, err := l.Query(context.Background(), probe, QueryOptions{TopK: topK})
					if err != nil {
						t.Fatal(err)
					}
					want := referenceQuery(l, probe, topK)
					name := fmt.Sprintf("cc=%v %v probe %d TopK %d", cc, scheme, pi, topK)
					if got.Considered != want.Considered {
						t.Fatalf("%s: Considered %d, reference %d", name, got.Considered, want.Considered)
					}
					if len(got.Candidates) != len(want.Candidates) {
						t.Fatalf("%s: %d candidates, reference %d", name, len(got.Candidates), len(want.Candidates))
					}
					for i, g := range got.Candidates {
						w := want.Candidates[i]
						if g.ID != w.ID || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) ||
							math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) ||
							g.Match != w.Match || g.Profile != w.Profile || g.Err != nil {
							t.Fatalf("%s: rank %d is %+v, reference %+v", name, i, g, w)
						}
					}
					if topK > 0 && topK < p {
						cut++
						if w := want.Candidates; w[topK-1].Weight == all.Candidates[topK].Weight {
							ties++ // the cut falls inside a run of equal weights
						}
					}
				}
			}
			if cut == 0 || (scheme == metablocking.CBS && ties == 0) {
				t.Errorf("cc=%v %v: %d cuts, %d inside ties: the inputs do not exercise the selection", cc, scheme, cut, ties)
			}
		}
	}
}
