package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/intern"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/storage"
)

// leftoverWorld builds a seeded collection under scfg whose blocks mix
// pair-bearing ones, from a small shared vocabulary, with pairless ones:
// every profile carries a token of its own, and on Clean-Clean data a few
// tokens only ever appear in source A. A purge threshold drops the biggest
// blocks and every fifth profile is removed again, so liveness, purging and
// removal all shape the weights. A positive budget leaves every block spilled
// when it returns.
func leftoverWorld(t *testing.T, seed int64, cleanClean bool, scfg storage.Config) *blocking.Collection {
	t.Helper()
	col := blocking.NewCollectionStorage(cleanClean, 20, nil, 4, scfg)
	t.Cleanup(func() { col.Close() })
	rng := rand.New(rand.NewSource(seed))
	const n = 150
	for id := 1; id <= n; id++ {
		src := profile.SourceA
		if cleanClean && rng.Intn(2) == 1 {
			src = profile.SourceB
		}
		val := fmt.Sprintf("own%d", id)
		if src == profile.SourceA && rng.Intn(3) == 0 {
			val += fmt.Sprintf(" aonly%d", rng.Intn(4))
		}
		for j, k := 0, 1+rng.Intn(4); j < k; j++ {
			val += " " + genWords[rng.Intn(len(genWords))]
		}
		col.Add(mk(id, src, val))
	}
	for id := 5; id <= n; id += 5 {
		col.Remove(id)
	}
	return col
}

// drainLeftovers runs g's leftover scan to its end, marking every emitted
// pair executed, and returns the emission in order with its modeled cost.
func drainLeftovers(g *generator, col *blocking.Collection) ([]metablocking.Comparison, time.Duration) {
	var out []metablocking.Comparison
	var total time.Duration
	for {
		cmps, cost := g.fallbackScan(col)
		total += cost
		if cmps == nil {
			return out, total
		}
		for _, c := range cmps {
			g.Mark(profile.PairKey(c.X, c.Y))
		}
		out = append(out, cmps...)
	}
}

// pairlessSyms returns the live blocks that cannot yield a comparison, read
// from metadata only.
func pairlessSyms(col *blocking.Collection) []intern.Sym {
	var live []intern.Sym
	for _, id := range col.ProfileIDs() {
		live = col.AppendLiveSymsOf(id, live)
	}
	slices.Sort(live)
	live = slices.Compact(live)
	return slices.DeleteFunc(live, func(s intern.Sym) bool { return col.ComparisonsBySym(s) > 0 })
}

// TestFallbackWeightsAreSharedBlocks drains the leftover scan of random Dirty
// and Clean-Clean collections, in memory and fully spilled, and checks three
// things. Every weight is metablocking.SharedBlocks of its pair. The spilled
// scan emits exactly what the in-memory one does. And the spilled scan faults
// in each pair-bearing block once and no pairless block at all: the cursor,
// the skip and the weights read block metadata only.
func TestFallbackWeightsAreSharedBlocks(t *testing.T) {
	for _, cleanClean := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			var want []metablocking.Comparison
			for _, budget := range []int64{0, 1} {
				col := leftoverWorld(t, seed, cleanClean, storage.Config{Budget: budget, Dir: t.TempDir()})
				pairBlocks := len(col.SortedPairSymsBySize())
				if len(pairlessSyms(col)) == 0 || pairBlocks == 0 {
					t.Fatalf("cc=%v seed %d: %d pairless and %d pair-bearing blocks; the test is vacuous",
						cleanClean, seed, len(pairlessSyms(col)), pairBlocks)
				}
				before := col.StorageStats().FaultIns
				got, _ := drainLeftovers(newGenerator(DefaultConfig()), col)
				faults := col.StorageStats().FaultIns - before
				for _, c := range got {
					if w := float64(metablocking.SharedBlocks(col, c.X, c.Y)); c.Weight != w {
						t.Fatalf("cc=%v seed %d budget %d: weight of (%d,%d) = %v, SharedBlocks %v",
							cleanClean, seed, budget, c.X, c.Y, c.Weight, w)
					}
				}
				if budget == 0 {
					want = got
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("cc=%v seed %d: the spilled scan emitted %d comparisons, in memory %d, or in another order",
						cleanClean, seed, len(got), len(want))
				}
				if faults != int64(pairBlocks) {
					t.Fatalf("cc=%v seed %d: the spilled scan faulted in %d blocks, want its %d pair-bearing ones",
						cleanClean, seed, faults, pairBlocks)
				}
			}
		}
	}
}

// TestFallbackResumesLegacyCursor restores a leftover-scan cursor the way
// images written before the cursor skipped pairless blocks hold it — pairless
// blocks interleaved with the rest — mid-scan and on a spilled collection. It
// must emit exactly what the pair-only cursor does from the same block, at
// the same modeled cost, and fault in none of the pairless blocks.
func TestFallbackResumesLegacyCursor(t *testing.T) {
	for _, cleanClean := range []bool{false, true} {
		col := leftoverWorld(t, 9, cleanClean, storage.Config{Budget: 1, Dir: t.TempDir()})
		pairs := col.SortedPairSymsBySize()
		rng := rand.New(rand.NewSource(9))
		legacy := slices.Clone(pairs)
		for _, s := range pairlessSyms(col) {
			at := rng.Intn(len(legacy) + 1)
			legacy = slices.Insert(legacy, at, s)
		}
		cut := len(pairs) / 3
		image := func(syms []intern.Sym, pos int) generatorImage {
			img := generatorImage{ScanPos: pos, ScanVersion: col.Version(), ScanValid: true}
			for _, s := range syms {
				img.ScanSyms = append(img.ScanSyms, uint32(s))
			}
			return img
		}
		old := newGenerator(DefaultConfig())
		if err := old.restore(image(legacy, slices.Index(legacy, pairs[cut]))); err != nil {
			t.Fatal(err)
		}
		before := col.StorageStats().FaultIns
		got, gotCost := drainLeftovers(old, col)
		if faults := col.StorageStats().FaultIns - before; faults != int64(len(pairs)-cut) {
			t.Fatalf("cc=%v: the legacy cursor faulted in %d blocks, want the %d pair-bearing ones past the cut",
				cleanClean, faults, len(pairs)-cut)
		}
		ref := newGenerator(DefaultConfig())
		if err := ref.restore(image(pairs, cut)); err != nil {
			t.Fatal(err)
		}
		want, wantCost := drainLeftovers(ref, col)
		if len(want) == 0 || !slices.Equal(got, want) || gotCost != wantCost {
			t.Fatalf("cc=%v: legacy cursor emitted %d comparisons at cost %v, pair-only cursor %d at %v",
				cleanClean, len(got), gotCost, len(want), wantCost)
		}
	}
}
