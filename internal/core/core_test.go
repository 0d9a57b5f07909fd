package core

import (
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

func mk(id int, src profile.Source, val string) *profile.Profile {
	return profile.New(id, src, "", "attr", val)
}

// tinyWorld adds four clean-clean profiles where (1,2) is the obvious
// duplicate pair (2 shared tokens) and (1,3) a weaker candidate.
func tinyWorld(t *testing.T) (*blocking.Collection, []*profile.Profile) {
	t.Helper()
	c := blocking.NewCollection(true, 0)
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "matrix sequel film"),
		mk(2, profile.SourceB, "matrix sequel movie"),
		mk(3, profile.SourceB, "matrix trilogy"),
		mk(4, profile.SourceB, "unrelated words"),
	}
	for _, p := range ps {
		c.Add(p)
	}
	return c, ps
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Beta = 0 // no ghosting in unit tests: tiny blocks
	return cfg
}

func strategies(cfg Config) []Strategy {
	return []Strategy{NewIPCS(cfg), NewIPBS(cfg), NewIPES(cfg)}
}

func TestStrategiesFindBestPairFirst(t *testing.T) {
	for _, s := range strategies(testConfig()) {
		t.Run(s.Name(), func(t *testing.T) {
			col, ps := tinyWorld(t)
			cost := s.UpdateIndex(col, ps)
			if cost < 0 {
				t.Errorf("negative cost %v", cost)
			}
			c, ok := s.Dequeue()
			if !ok {
				t.Fatal("no comparison dequeued")
			}
			if c.Key() != profile.PairKey(1, 2) {
				t.Errorf("%s first comparison = %v, want pair (1,2)", s.Name(), c)
			}
		})
	}
}

// drainWithTicks dequeues everything, interleaving empty-increment ticks the
// way the pipeline's blocking stage does, until a tick produces no work.
func drainWithTicks(t *testing.T, s Strategy, col *blocking.Collection) map[uint64]int {
	t.Helper()
	seen := map[uint64]int{}
	for rounds := 0; rounds < 1000; rounds++ {
		progressed := false
		for {
			c, ok := s.Dequeue()
			if !ok {
				break
			}
			progressed = true
			seen[c.Key()]++
		}
		s.UpdateIndex(col, nil)
		if s.Pending() == 0 && !progressed {
			return seen
		}
	}
	t.Fatal("drainWithTicks did not converge")
	return seen
}

func TestStrategiesExhaustAllCandidates(t *testing.T) {
	for _, s := range strategies(testConfig()) {
		t.Run(s.Name(), func(t *testing.T) {
			col, ps := tinyWorld(t)
			s.UpdateIndex(col, ps)
			counts := drainWithTicks(t, s, col)
			seen := map[uint64]bool{}
			for k, n := range counts {
				if n > 1 {
					t.Errorf("duplicate emission of pair %d (%d times)", k, n)
				}
				seen[k] = true
			}
			// Sharing pairs across sources: (1,2) and (1,3).
			for _, want := range []uint64{profile.PairKey(1, 2), profile.PairKey(1, 3)} {
				if !seen[want] {
					t.Errorf("%s never emitted pair %d", s.Name(), want)
				}
			}
			if s.Pending() != 0 {
				t.Errorf("Pending = %d after drain, want 0", s.Pending())
			}
		})
	}
}

func TestStrategiesIncrementalUpdates(t *testing.T) {
	// Feed two increments; the pair spanning them must still be found.
	for _, s := range strategies(testConfig()) {
		t.Run(s.Name(), func(t *testing.T) {
			col := blocking.NewCollection(true, 0)
			p1 := mk(1, profile.SourceA, "matrix sequel film")
			col.Add(p1)
			s.UpdateIndex(col, []*profile.Profile{p1})
			// Drain increment 1 (p1 alone generates nothing).
			for {
				if _, ok := s.Dequeue(); !ok {
					break
				}
			}
			p2 := mk(2, profile.SourceB, "matrix sequel movie")
			col.Add(p2)
			s.UpdateIndex(col, []*profile.Profile{p2})
			c, ok := s.Dequeue()
			if !ok || c.Key() != profile.PairKey(1, 2) {
				t.Errorf("cross-increment pair not found: %v %v", c, ok)
			}
		})
	}
}

func TestIPCSFallbackScanRecoversPrunedPairs(t *testing.T) {
	cfg := testConfig()
	s := NewIPCS(cfg)
	col, ps := tinyWorld(t)
	s.UpdateIndex(col, ps)
	executed := map[uint64]bool{}
	for {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		executed[c.Key()] = true
	}
	// Empty increment + empty index triggers GetComparisons: leftover block
	// comparisons (none executed yet) must appear.
	s.UpdateIndex(col, nil)
	found := 0
	for {
		c, ok := s.Dequeue()
		if !ok {
			// keep scanning: fallback yields one block per call
			if s.UpdateIndex(col, nil); s.Pending() == 0 {
				break
			}
			continue
		}
		if executed[c.Key()] {
			t.Errorf("fallback re-emitted executed pair %v", c)
		}
		found++
		if found > 100 {
			t.Fatal("fallback runaway")
		}
	}
	// tinyWorld has only the two cross-source sharing pairs, both executed,
	// so the fallback should find nothing new here. Now add a profile that
	// shares with p4 and verify leftovers are eventually produced.
	p5 := mk(5, profile.SourceA, "unrelated words")
	col.Add(p5)
	// Simulate the increment being skipped by prioritization (e.g. its
	// candidates were evicted): call UpdateIndex with empty delta only.
	for i := 0; i < 50 && s.Pending() == 0; i++ {
		s.UpdateIndex(col, nil)
	}
	got := false
	for {
		c, ok := s.Dequeue()
		if !ok {
			if s.UpdateIndex(col, nil); s.Pending() == 0 {
				break
			}
			continue
		}
		if c.Key() == profile.PairKey(4, 5) {
			got = true
		}
	}
	if !got {
		t.Error("fallback scan never produced leftover pair (4,5)")
	}
}

func TestIPBSEmitsSmallestBlockFirst(t *testing.T) {
	cfg := testConfig()
	s := NewIPBS(cfg)
	col := blocking.NewCollection(true, 0)
	// "rare" block size 2 (one pair), "common" block size 4 (4 pairs).
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "rare common"),
		mk(2, profile.SourceA, "common"),
		mk(3, profile.SourceB, "rare common"),
		mk(4, profile.SourceB, "common"),
	}
	for _, p := range ps {
		col.Add(p)
	}
	s.UpdateIndex(col, ps)
	c, ok := s.Dequeue()
	if !ok {
		t.Fatal("nothing dequeued")
	}
	if c.Key() != profile.PairKey(1, 3) {
		t.Errorf("first emission %v, want the rare-block pair (1,3)", c)
	}
	// Drain; further blocks are emitted on subsequent UpdateIndex calls
	// (ticks) once the index empties.
	seen := map[uint64]bool{c.Key(): true}
	for rounds := 0; rounds < 20; rounds++ {
		for {
			c, ok := s.Dequeue()
			if !ok {
				break
			}
			seen[c.Key()] = true
		}
		s.UpdateIndex(col, nil)
		if s.Pending() == 0 && s.ActiveBlocks() == 0 {
			break
		}
	}
	wantPairs := []uint64{
		profile.PairKey(1, 3), profile.PairKey(1, 4),
		profile.PairKey(2, 3), profile.PairKey(2, 4),
	}
	for _, k := range wantPairs {
		if !seen[k] {
			t.Errorf("pair %d never emitted", k)
		}
	}
}

func TestIPBSNoRedundantEmissions(t *testing.T) {
	cfg := testConfig()
	s := NewIPBS(cfg)
	col := blocking.NewCollection(false, 0)
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "aa bb"),
		mk(2, profile.SourceA, "aa bb"),
		mk(3, profile.SourceA, "aa bb"),
	}
	for _, p := range ps {
		col.Add(p)
	}
	s.UpdateIndex(col, ps)
	seen := map[uint64]int{}
	for rounds := 0; rounds < 10; rounds++ {
		for {
			c, ok := s.Dequeue()
			if !ok {
				break
			}
			seen[c.Key()]++
		}
		s.UpdateIndex(col, nil)
		if s.Pending() == 0 && s.ActiveBlocks() == 0 {
			break
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("pair %d emitted %d times; CF must deduplicate", k, n)
		}
	}
	if len(seen) != 3 {
		t.Errorf("emitted %d distinct pairs, want 3", len(seen))
	}
}

func TestIPESRoundRobinAcrossEntities(t *testing.T) {
	// Two "hub" entities with several candidates each: the first round must
	// emit the top comparison of each hub before the second-best of either.
	cfg := testConfig()
	s := NewIPES(cfg)
	col := blocking.NewCollection(true, 0)
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "alpha beta gamma"),
		mk(2, profile.SourceA, "delta epsilon zeta"),
		mk(3, profile.SourceB, "alpha beta gamma"),   // strong for hub 1
		mk(4, profile.SourceB, "alpha beta"),         // medium for hub 1
		mk(5, profile.SourceB, "delta epsilon zeta"), // strong for hub 2
		mk(6, profile.SourceB, "delta"),              // weak for hub 2
	}
	for _, p := range ps {
		col.Add(p)
	}
	s.UpdateIndex(col, ps)

	var order []uint64
	for {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		order = append(order, c.Key())
	}
	if len(order) < 2 {
		t.Fatalf("only %d emissions", len(order))
	}
	firstTwo := map[uint64]bool{order[0]: true, order[1]: true}
	if !firstTwo[profile.PairKey(1, 3)] || !firstTwo[profile.PairKey(2, 5)] {
		t.Errorf("first round = %v, want the two hub-best pairs (1,3) and (2,5)", order[:2])
	}
}

func TestIPESPendingAccounting(t *testing.T) {
	cfg := testConfig()
	s := NewIPES(cfg)
	col, ps := tinyWorld(t)
	s.UpdateIndex(col, ps)
	n := s.Pending()
	if n <= 0 {
		t.Fatalf("Pending = %d, want > 0", n)
	}
	drained := 0
	for {
		if _, ok := s.Dequeue(); !ok {
			break
		}
		drained++
	}
	if drained != n {
		t.Errorf("drained %d, Pending reported %d", drained, n)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after drain = %d", s.Pending())
	}
}

func TestIPESDoublePruningDiscards(t *testing.T) {
	// Feed a stream of comparisons routed directly; below-average weights
	// for a saturated entity must be discarded, not grow memory.
	cfg := testConfig()
	cfg.IndexCapacity = 4 // tiny PQ
	s := NewIPES(cfg)
	// Seed global stats with some high-weight comparisons on entity 1.
	s.route(metablocking.Comparison{X: 1, Y: 100, Weight: 10})
	s.route(metablocking.Comparison{X: 1, Y: 101, Weight: 9})
	before := s.Pending()
	// Weight 1: below entity-1 top (10), below entity-102 top (none -> -1,
	// so it becomes 102's first comparison instead).
	s.route(metablocking.Comparison{X: 1, Y: 102, Weight: 1})
	if s.Pending() != before+1 {
		t.Errorf("first low-weight comparison should enter via fresh entity 102")
	}
	// Weight 0.5 involving two saturated entities and below global average
	// (10+9+1+0.5)/4 -> goes to PQ.
	s.route(metablocking.Comparison{X: 1, Y: 103, Weight: 0.5})
	// Drain everything; each routed pair must come out exactly once.
	seen := map[uint64]int{}
	for {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		seen[c.Key()]++
		if seen[c.Key()] > 1 {
			t.Errorf("pair %v emitted twice", c)
		}
	}
	if len(seen) != 4 {
		t.Errorf("drained %d distinct pairs, want 4", len(seen))
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain", s.Pending())
	}
}

func TestEmitBatch(t *testing.T) {
	cfg := testConfig()
	s := NewIPCS(cfg)
	col, ps := tinyWorld(t)
	s.UpdateIndex(col, ps)
	batch := EmitBatch(s, 1)
	if len(batch) != 1 {
		t.Fatalf("EmitBatch(1) returned %d", len(batch))
	}
	rest := EmitBatch(s, 100)
	if len(rest) != 1 { // only (1,3) remains
		t.Errorf("EmitBatch(100) returned %d, want 1", len(rest))
	}
	if got := EmitBatch(s, 0); got != nil {
		t.Errorf("EmitBatch(0) = %v, want nil", got)
	}
}

func TestAppendBatch(t *testing.T) {
	s := NewIPCS(testConfig())
	col, ps := tinyWorld(t)
	s.UpdateIndex(col, ps)
	pending := s.Pending()
	if pending < 2 {
		t.Fatalf("tinyWorld queued %d comparisons, want at least 2", pending)
	}
	sentinel := metablocking.Comparison{X: -1, Y: -2}
	dst := append(make([]metablocking.Comparison, 0, 1), sentinel)

	for _, k := range []int{0, -3} {
		if got := AppendBatch(dst, s, k); len(got) != 1 || cap(got) != 1 || got[0] != sentinel || s.Pending() != pending {
			t.Errorf("AppendBatch(k=%d) = %v (cap %d), %d pending; want dst untouched and nothing dequeued", k, got, cap(got), s.Pending())
		}
	}
	got := AppendBatch(dst, s, 1)
	if len(got) != 2 || got[0] != sentinel || s.Pending() != pending-1 {
		t.Fatalf("AppendBatch(k=1) = %v, %d pending; want the sentinel plus one comparison", got, s.Pending())
	}
	// A k far above what is queued appends what is queued, after the
	// existing elements, and no more.
	rest := pending - 1
	got = AppendBatch(got, s, KMax)
	if len(got) != 2+rest || got[0] != sentinel || s.Pending() != 0 {
		t.Errorf("AppendBatch(k=KMax) returned %d elements with %d pending; want %d and 0", len(got), s.Pending(), 2+rest)
	}
	if got := AppendBatch(nil, s, KMax); got != nil {
		t.Errorf("AppendBatch(nil) on an empty index = %v (cap %d), want nil: growth follows Pending, not k", got, cap(got))
	}
}

func TestAdaptiveKGrowsWithFastMatcher(t *testing.T) {
	a := NewAdaptiveK()
	for i := 0; i < 50; i++ {
		a.ObserveArrival(100 * time.Millisecond)
		a.ObserveService(1 * time.Microsecond) // very fast matcher
	}
	if k := a.K(); k < 10_000 {
		t.Errorf("K = %d with fast matcher, want large (>= 10000)", k)
	}
}

func TestAdaptiveKShrinksWithSlowMatcher(t *testing.T) {
	a := NewAdaptiveK()
	for i := 0; i < 80; i++ {
		a.ObserveArrival(10 * time.Millisecond)
		a.ObserveService(5 * time.Millisecond) // matcher serves 2 cmp per arrival
		a.K()
	}
	if k := a.K(); k > 16 {
		t.Errorf("K = %d with slow matcher, want small (<= 16)", k)
	}
}

func TestAdaptiveKClamped(t *testing.T) {
	a := NewAdaptiveK()
	for i := 0; i < 200; i++ {
		a.ObserveArrival(time.Hour)
		a.ObserveService(time.Nanosecond)
		if k := a.K(); k > KMax {
			t.Fatalf("K = %d exceeds KMax", k)
		}
	}
	b := NewAdaptiveK()
	for i := 0; i < 200; i++ {
		b.ObserveArrival(time.Nanosecond)
		b.ObserveService(time.Hour)
		if k := b.K(); k < KMin {
			t.Fatalf("K = %d below KMin", k)
		}
	}
}

func TestFixedK(t *testing.T) {
	a := NewFixedK(77)
	a.ObserveArrival(time.Second)
	a.ObserveService(time.Millisecond)
	for i := 0; i < 10; i++ {
		if k := a.K(); k != 77 {
			t.Fatalf("FixedK K() = %d, want 77", k)
		}
	}
}

func TestAdaptiveKIgnoresNonPositive(t *testing.T) {
	a := NewAdaptiveK()
	a.ObserveArrival(0)
	a.ObserveService(-time.Second)
	if k := a.K(); k != KDefault {
		t.Errorf("K = %d before any valid observation, want default %d", k, KDefault)
	}
}

func TestIPESPerEntityCapacityBounded(t *testing.T) {
	cfg := testConfig()
	cfg.PerEntityCapacity = 2
	s := NewIPES(cfg)
	// Route escalating-weight comparisons for one hub entity: each beats the
	// current top, so all pass line 4 — but the bounded queue keeps only 2.
	for i := 0; i < 10; i++ {
		s.route(metablocking.Comparison{X: 1, Y: 100 + i, Weight: float64(i + 1)})
	}
	if s.Pending() > 2 {
		t.Errorf("Pending = %d with PerEntityCapacity 2", s.Pending())
	}
	// Best two weights must survive eviction.
	c1, ok1 := s.Dequeue()
	c2, ok2 := s.Dequeue()
	if !ok1 || !ok2 || c1.Weight != 10 || c2.Weight != 9 {
		t.Errorf("survivors = %v %v, want weights 10 and 9", c1, c2)
	}
}

func TestIPESFallsBackToPQWhenEntitiesDrained(t *testing.T) {
	s := NewIPES(testConfig())
	// Seed stats so the last comparison lands in the low-weight queue PQ:
	// two strong entity-bound comparisons, then a globally below-average one
	// whose endpoints both already have stronger tops.
	s.route(metablocking.Comparison{X: 1, Y: 50, Weight: 10})
	s.route(metablocking.Comparison{X: 2, Y: 60, Weight: 10})
	s.route(metablocking.Comparison{X: 1, Y: 2, Weight: 0.5})
	var weights []float64
	for {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		weights = append(weights, c.Weight)
	}
	if len(weights) != 3 {
		t.Fatalf("drained %v, want 3 comparisons", weights)
	}
	if weights[2] != 0.5 {
		t.Errorf("PQ comparison must come last: %v", weights)
	}
}

func TestIPBSHandlesPurgedBlocks(t *testing.T) {
	cfg := testConfig()
	s := NewIPBS(cfg)
	col := blocking.NewCollection(false, 2) // purge blocks > 2 profiles
	ps := []*profile.Profile{
		mk(1, profile.SourceA, "hot rare1"),
		mk(2, profile.SourceA, "hot rare2"),
		mk(3, profile.SourceA, "hot rare3"), // "hot" purges here
	}
	for _, p := range ps {
		col.Add(p)
	}
	s.UpdateIndex(col, ps)
	// The purged "hot" block must not produce comparisons; rare blocks are
	// singletons. Drain with ticks: nothing should ever be emitted, and the
	// strategy must not wedge on the stale CI entries.
	for rounds := 0; rounds < 10; rounds++ {
		if c, ok := s.Dequeue(); ok {
			t.Fatalf("comparison %v emitted from purged/singleton blocks", c)
		}
		s.UpdateIndex(col, nil)
		if s.Pending() == 0 && s.ActiveBlocks() == 0 {
			return
		}
	}
	t.Fatalf("I-PBS did not converge; %d active blocks", s.ActiveBlocks())
}

func TestStrategiesRespectCleanClean(t *testing.T) {
	for _, s := range strategies(testConfig()) {
		t.Run(s.Name(), func(t *testing.T) {
			col := blocking.NewCollection(true, 0)
			ps := []*profile.Profile{
				mk(1, profile.SourceA, "token one"),
				mk(2, profile.SourceA, "token two"),
				mk(3, profile.SourceA, "token three"),
			}
			for _, p := range ps {
				col.Add(p)
			}
			s.UpdateIndex(col, ps)
			counts := drainWithTicks(t, s, col)
			if len(counts) != 0 {
				t.Errorf("%s emitted same-source pairs in Clean-Clean mode: %v", s.Name(), counts)
			}
		})
	}
}
