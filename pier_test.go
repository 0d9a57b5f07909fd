package pier_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pier"
)

// moviePairs builds a small clean-clean workload with known duplicates.
func moviePairs() (profiles []pier.Profile, duplicateKeys map[string]bool) {
	duplicateKeys = map[string]bool{}
	type pair struct{ a, b string }
	dups := []pair{
		{"The Matrix 1999 Wachowski", "Matrix, The (1999) dir. Wachowski"},
		{"Blade Runner 1982 Ridley Scott", "Blade Runner (1982), Scott Ridley"},
		{"Alien 1979 Ridley Scott", "Alien (1979) by R. Scott"},
		{"Heat 1995 Michael Mann", "Heat (1995), dir: Michael Mann"},
	}
	for i, d := range dups {
		key := "dup" + string(rune('A'+i))
		duplicateKeys[key] = true
		profiles = append(profiles,
			pier.Profile{Key: key + "-a", Attributes: pier.Attr("title", d.a)},
			pier.Profile{Key: key + "-b", SourceB: true, Attributes: pier.Attr("name", d.b)},
		)
	}
	profiles = append(profiles,
		pier.Profile{Key: "solo-a", Attributes: pier.Attr("title", "Completely Unique Documentary About Bees")},
		pier.Profile{Key: "solo-b", SourceB: true, Attributes: pier.Attr("name", "Another Unrelated Short Film Nobody Saw")},
	)
	return profiles, duplicateKeys
}

func TestResolveFindsKnownDuplicates(t *testing.T) {
	profiles, _ := moviePairs()
	matches, summary, err := pier.Resolve(profiles, pier.Options{
		Algorithm:  pier.IPES,
		CleanClean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Profiles != len(profiles) {
		t.Errorf("Profiles = %d, want %d", summary.Profiles, len(profiles))
	}
	found := map[string]bool{}
	for _, m := range matches {
		if m.Similarity < 0.5 {
			t.Errorf("match %v below threshold", m)
		}
		// Keys are "dupX-a"/"dupX-b": strip the suffix.
		kx, ky := m.X.Key[:len(m.X.Key)-2], m.Y.Key[:len(m.Y.Key)-2]
		if kx == ky {
			found[kx] = true
		}
	}
	for _, want := range []string{"dupA", "dupB", "dupC", "dupD"} {
		if !found[want] {
			t.Errorf("duplicate %s not found; matches: %v", want, matches)
		}
	}
}

func TestAllAlgorithmsResolve(t *testing.T) {
	profiles, _ := moviePairs()
	for _, alg := range []pier.Algorithm{
		pier.IPCS, pier.IPBS, pier.IPES, pier.IBase,
		pier.PPSGlobal, pier.PBSGlobal, pier.BatchER,
	} {
		t.Run(string(alg), func(t *testing.T) {
			matches, _, err := pier.Resolve(profiles, pier.Options{
				Algorithm:  alg,
				CleanClean: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) < 4 {
				t.Errorf("%s found %d matches, want >= 4", alg, len(matches))
			}
		})
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := pier.NewPipeline(pier.Options{Algorithm: "NOPE"}); err == nil {
		t.Fatal("NewPipeline accepted unknown algorithm")
	}
	if _, _, err := pier.Resolve(nil, pier.Options{Algorithm: "NOPE"}); err == nil {
		t.Fatal("Resolve accepted unknown algorithm")
	}
}

func TestPipelineStreaming(t *testing.T) {
	profiles, _ := moviePairs()
	var mu sync.Mutex
	var events []pier.Match
	p, err := pier.NewPipeline(pier.Options{
		CleanClean: true,
		TickEvery:  time.Millisecond,
		OnMatch: func(m pier.Match) {
			mu.Lock()
			events = append(events, m)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stream profile by profile: matches span increments.
	for _, pr := range profiles {
		p.Push([]pier.Profile{pr})
	}
	summary := p.Stop()
	if summary.Matches < 4 {
		t.Errorf("streaming pipeline found %d matches, want >= 4", summary.Matches)
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != summary.Matches {
		t.Errorf("OnMatch events = %d, summary.Matches = %d", n, summary.Matches)
	}
	if summary.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	// Stop must be idempotent.
	if again := p.Stop(); again != summary {
		t.Errorf("second Stop() = %+v, want %+v", again, summary)
	}
}

func TestPushAfterStopErrors(t *testing.T) {
	p, err := pier.NewPipeline(pier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push([]pier.Profile{{Key: "w"}}); err != nil {
		t.Fatalf("Push on a running pipeline = %v", err)
	}
	p.Stop()
	if err := p.Push([]pier.Profile{{Key: "x"}}); !errors.Is(err, pier.ErrStopped) {
		t.Fatalf("Push after Stop = %v, want pier.ErrStopped", err)
	}
}

func TestDirtyER(t *testing.T) {
	// Dirty ER: duplicates within one source.
	profiles := []pier.Profile{
		{Key: "p1", Attributes: pier.Attr("name", "jon smith", "city", "berlin")},
		{Key: "p2", Attributes: pier.Attr("name", "john smith", "city", "berlin")},
		{Key: "p3", Attributes: pier.Attr("name", "maria garcia", "city", "madrid")},
	}
	matches, _, err := pier.Resolve(profiles, pier.Options{Algorithm: pier.IPES})
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, m := range matches {
		if (m.X.Key == "p1" && m.Y.Key == "p2") || (m.X.Key == "p2" && m.Y.Key == "p1") {
			ok = true
		}
		if m.X.Key == "p3" || m.Y.Key == "p3" {
			t.Errorf("p3 wrongly matched: %v", m)
		}
	}
	if !ok {
		t.Errorf("p1/p2 not matched; matches: %v", matches)
	}
}

// TestDirtyERIgnoresSource pins that Source is meaningless under Dirty ER: a
// profile flagged SourceB is compared like any other, for every algorithm.
// Each must return exactly what it returns for the all-SourceA twin of the
// input (block scans used to walk a block's A list only and lost every pair of
// a SourceB profile — PBS-GLOBAL and BATCH found nothing at all here).
func TestDirtyERIgnoresSource(t *testing.T) {
	mixed := []pier.Profile{
		{Key: "p1", Attributes: pier.Attr("name", "john smith", "city", "berlin")},
		{Key: "p2", SourceB: true, Attributes: pier.Attr("name", "john smith", "city", "berlin")},
		{Key: "p3", SourceB: true, Attributes: pier.Attr("name", "maria garcia", "city", "madrid")},
		{Key: "p4", Attributes: pier.Attr("name", "maria garcia", "city", "madrid")},
	}
	twin := make([]pier.Profile, len(mixed))
	for i, p := range mixed {
		p.SourceB = false
		twin[i] = p
	}
	resolve := func(t *testing.T, alg pier.Algorithm, in []pier.Profile) (pairs map[string]bool, comparisons int) {
		t.Helper()
		matches, summary, err := pier.Resolve(in, pier.Options{Algorithm: alg, CleanClean: false})
		if err != nil {
			t.Fatal(err)
		}
		pairs = map[string]bool{}
		for _, m := range matches {
			x, y := m.X.Key, m.Y.Key
			if x > y {
				x, y = y, x
			}
			pairs[x+"~"+y] = true
		}
		return pairs, summary.Comparisons
	}
	for _, alg := range []pier.Algorithm{
		pier.IPCS, pier.IPBS, pier.IPES, pier.IBase, pier.PPSGlobal,
		pier.PPSLocal, pier.PBSGlobal, pier.BatchER, pier.Auto,
	} {
		t.Run(string(alg), func(t *testing.T) {
			want, wantCmp := resolve(t, alg, twin)
			got, gotCmp := resolve(t, alg, mixed)
			if !want["p1~p2"] || !want["p3~p4"] {
				t.Fatalf("all-SourceA twin misses a duplicate pair: %v", want)
			}
			if gotCmp != wantCmp || len(got) != len(want) {
				t.Fatalf("mixed sources: %d comparisons, matches %v; all-SourceA twin: %d comparisons, matches %v",
					gotCmp, got, wantCmp, want)
			}
			for k := range want {
				if !got[k] {
					t.Errorf("mixed sources lost match %s (twin found %v, got %v)", k, want, got)
				}
			}
		})
	}
}

func TestEditDistanceOption(t *testing.T) {
	profiles := []pier.Profile{
		{Key: "a", Attributes: pier.Attr("name", "acme gmbh berlin")},
		{Key: "b", SourceB: true, Attributes: pier.Attr("name", "acme gmbh berlln")},
	}
	matches, _, err := pier.Resolve(profiles, pier.Options{
		CleanClean:     true,
		MatchFunc:      pier.EditDistance,
		MatchThreshold: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("ED matches = %v, want exactly the typo pair", matches)
	}
	if matches[0].Similarity < 0.8 {
		t.Errorf("similarity = %v", matches[0].Similarity)
	}
}

func TestWeightSchemeOptions(t *testing.T) {
	profiles, _ := moviePairs()
	for _, scheme := range []pier.WeightScheme{pier.CBS, pier.JSWeight, pier.ECBS, pier.ARCS} {
		matches, _, err := pier.Resolve(profiles, pier.Options{
			CleanClean: true,
			Scheme:     scheme,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) < 4 {
			t.Errorf("scheme %v found only %d matches", scheme, len(matches))
		}
	}
}

func TestAttrPanicsOnOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attr with odd arguments did not panic")
		}
	}()
	pier.Attr("name")
}

func TestOptionNegativesDisable(t *testing.T) {
	// Negative MaxBlockSize/Beta/IndexCapacity disable the mechanisms; the
	// pipeline must still work.
	profiles, _ := moviePairs()
	matches, _, err := pier.Resolve(profiles, pier.Options{
		CleanClean:    true,
		MaxBlockSize:  -1,
		Beta:          -1,
		IndexCapacity: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Errorf("found %d matches with disabled pruning, want >= 4", len(matches))
	}
}

func TestClustersAfterStop(t *testing.T) {
	profiles := []pier.Profile{
		{Key: "a1", Attributes: pier.Attr("name", "jon smith", "city", "berlin")},
		{Key: "a2", Attributes: pier.Attr("name", "john smith", "city", "berlin")},
		{Key: "a3", Attributes: pier.Attr("name", "j smith", "city", "berlin germany")},
		{Key: "b1", Attributes: pier.Attr("name", "maria garcia", "city", "madrid")},
	}
	p, err := pier.NewPipeline(pier.Options{TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p.Clusters() != nil {
		t.Error("Clusters before Stop must be nil")
	}
	p.Push(profiles)
	s := p.Stop()
	clusters := p.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("Clusters = %v, want one smith cluster", clusters)
	}
	keys := map[string]bool{}
	for _, m := range clusters[0] {
		keys[m.Key] = true
	}
	for _, want := range []string{"a1", "a2", "a3"} {
		if !keys[want] {
			t.Errorf("cluster missing %s: %v", want, clusters[0])
		}
	}
	if keys["b1"] {
		t.Error("b1 wrongly clustered with the smiths")
	}
	if s.NewLinks < 2 {
		t.Errorf("NewLinks = %d, want >= 2 for a 3-member cluster", s.NewLinks)
	}
	if s.NewLinks > s.Matches {
		t.Errorf("NewLinks %d exceeds Matches %d", s.NewLinks, s.Matches)
	}
}

func TestAutoAlgorithm(t *testing.T) {
	profiles, _ := moviePairs()
	matches, _, err := pier.Resolve(profiles, pier.Options{
		Algorithm:  pier.Auto,
		CleanClean: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Errorf("AUTO found %d matches, want >= 4", len(matches))
	}
}

func TestParallelismOption(t *testing.T) {
	profiles, _ := moviePairs()
	matches, _, err := pier.Resolve(profiles, pier.Options{
		CleanClean:  true,
		Parallelism: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 4 {
		t.Errorf("parallel Resolve found %d matches", len(matches))
	}
}

func TestQGramBlockingCatchesTypos(t *testing.T) {
	profiles := []pier.Profile{
		{Key: "a", Attributes: pier.Attr("name", "wachowski filmworks")},
		{Key: "b", SourceB: true, Attributes: pier.Attr("name", "wachowsky filmworkz")},
	}
	// Token blocking: no shared token, no match possible.
	matches, _, err := pier.Resolve(profiles, pier.Options{CleanClean: true, MatchFunc: pier.EditDistance, MatchThreshold: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("token blocking unexpectedly matched: %v", matches)
	}
	// Q-gram blocking pairs them; ED confirms.
	matches, _, err = pier.Resolve(profiles, pier.Options{
		CleanClean:     true,
		Blocking:       pier.QGramBlocking,
		MatchFunc:      pier.EditDistance,
		MatchThreshold: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("q-gram blocking matches = %v, want 1", matches)
	}
}

func TestAllMatchFuncsResolve(t *testing.T) {
	profiles, _ := moviePairs()
	for _, mf := range []pier.MatchFunc{
		pier.Jaccard, pier.EditDistance, pier.JaroWinkler,
	} {
		matches, _, err := pier.Resolve(profiles, pier.Options{
			CleanClean: true,
			MatchFunc:  mf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) < 3 {
			t.Errorf("MatchFunc %d found only %d matches", mf, len(matches))
		}
	}
}

func TestCustomKeyer(t *testing.T) {
	// A keyer that blocks on the release year alone puts each duplicate pair
	// in a block of its own and leaves the year-less profiles unblocked.
	profiles, dups := moviePairs()
	year := func(p pier.Profile) []string {
		var keys []string
		for _, a := range p.Attributes {
			for _, f := range strings.FieldsFunc(a.Value, func(r rune) bool { return r < '0' || r > '9' }) {
				keys = append(keys, f)
			}
		}
		return keys
	}
	matches, summary, err := pier.Resolve(profiles, pier.Options{CleanClean: true, Keyer: year})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Comparisons != len(dups) {
		t.Errorf("year blocking ran %d comparisons, want %d", summary.Comparisons, len(dups))
	}
	if len(matches) != len(dups) {
		t.Errorf("year blocking found %d matches, want %d: %v", len(matches), len(dups), matches)
	}
}

func TestResolveEmptyAndSingleton(t *testing.T) {
	// Zero profiles: valid, empty result.
	matches, summary, err := pier.Resolve(nil, pier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 || summary.Profiles != 0 || summary.Comparisons != 0 {
		t.Errorf("empty resolve: %v %+v", matches, summary)
	}
	// One profile: nothing to compare.
	matches, summary, err = pier.Resolve([]pier.Profile{
		{Key: "solo", Attributes: pier.Attr("name", "only profile here")},
	}, pier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 || summary.Profiles != 1 || summary.Comparisons != 0 {
		t.Errorf("singleton resolve: %v %+v", matches, summary)
	}
}

func TestPipelineEmptyIncrements(t *testing.T) {
	p, err := pier.NewPipeline(pier.Options{TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Push(nil)              // empty increment is a no-op
	p.Push([]pier.Profile{}) // so is a zero-length one
	s := p.Stop()
	if s.Profiles != 0 || s.Matches != 0 {
		t.Errorf("empty increments produced %+v", s)
	}
	if len(p.Clusters()) != 0 {
		t.Errorf("Clusters = %v", p.Clusters())
	}
}

func TestProfilesWithNoTokens(t *testing.T) {
	// Values that tokenize to nothing must flow through without panics and
	// without bogus matches.
	profiles := []pier.Profile{
		{Key: "e1", Attributes: pier.Attr("x", "!!! ---")},
		{Key: "e2", Attributes: pier.Attr("y", "")},
		{Key: "e3", Attributes: nil},
		{Key: "e4", Attributes: pier.Attr("z", "actual tokens here")},
	}
	matches, summary, err := pier.Resolve(profiles, pier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("tokenless profiles matched: %v", matches)
	}
	if summary.Profiles != 4 {
		t.Errorf("Profiles = %d", summary.Profiles)
	}
}

func TestPipelineSnapshot(t *testing.T) {
	profiles, _ := moviePairs()
	p, err := pier.NewPipeline(pier.Options{
		CleanClean: true,
		TickEvery:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range profiles {
		p.Push([]pier.Profile{pr})
	}
	summary := p.Stop()
	snap := p.Snapshot()
	if snap.Profiles != summary.Profiles {
		t.Errorf("Snapshot.Profiles = %d, summary %d", snap.Profiles, summary.Profiles)
	}
	if snap.Increments != len(profiles) {
		t.Errorf("Snapshot.Increments = %d, want %d", snap.Increments, len(profiles))
	}
	if snap.Comparisons != summary.Comparisons || snap.Matches != summary.Matches {
		t.Errorf("Snapshot (%d cmps, %d matches) disagrees with Summary (%d, %d)",
			snap.Comparisons, snap.Matches, summary.Comparisons, summary.Matches)
	}
	if snap.NewLinks != summary.NewLinks {
		t.Errorf("Snapshot.NewLinks = %d, summary %d", snap.NewLinks, summary.NewLinks)
	}
	if snap.K <= 0 {
		t.Errorf("Snapshot.K = %d, want > 0", snap.K)
	}
	if snap.Pending != 0 {
		t.Errorf("Snapshot.Pending = %d after drained Stop, want 0", snap.Pending)
	}
	// Stats must read the same counters as the snapshot at all times.
	cmps, matches := p.Stats()
	if cmps != snap.Comparisons || matches != snap.Matches {
		t.Errorf("Stats (%d, %d) disagrees with Snapshot (%d, %d)",
			cmps, matches, snap.Comparisons, snap.Matches)
	}
}

func TestPipelineSnapshotWindowed(t *testing.T) {
	p, err := pier.NewPipeline(pier.Options{
		CleanClean: true,
		TickEvery:  time.Millisecond,
		Window:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	profiles, _ := moviePairs()
	for _, pr := range profiles {
		p.Push([]pier.Profile{pr})
	}
	p.Stop()
	snap := p.Snapshot()
	if snap.WindowEvictions == 0 {
		t.Error("windowed pipeline snapshot recorded no evictions")
	}
	if snap.DedupEntries > snap.Comparisons {
		t.Errorf("DedupEntries = %d exceeds Comparisons = %d", snap.DedupEntries, snap.Comparisons)
	}
}
