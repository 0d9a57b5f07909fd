package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// genWords is a compact vocabulary producing dense block sharing, so the
// generator's filtering, ghosting, and weighting paths all see real work.
var genWords = []string{
	"matrix", "sequel", "film", "movie", "neo", "trinity", "oracle", "agent",
	"red", "blue", "pill", "ship", "crew", "code", "rain", "green", "zion",
	"alpha", "beta", "gamma", "delta", "north", "south", "east", "west",
}

// genWorld builds a seeded collection plus the increment slices it was added
// in, mimicking the stream's "block the whole increment, then UpdateIndex"
// contract the generator relies on.
func genWorld(seed int64, cleanClean bool, n, incSize int) (*blocking.Collection, [][]*profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	col := blocking.NewCollection(cleanClean, 0)
	var incs [][]*profile.Profile
	var cur []*profile.Profile
	for i := 0; i < n; i++ {
		src := profile.SourceA
		if cleanClean && rng.Intn(2) == 1 {
			src = profile.SourceB
		}
		val := ""
		for j, k := 0, 1+rng.Intn(5); j < k; j++ {
			if j > 0 {
				val += " "
			}
			val += genWords[rng.Intn(len(genWords))]
		}
		p := mk(i+1, src, val)
		col.Add(p)
		cur = append(cur, p)
		if len(cur) == incSize {
			incs = append(incs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		incs = append(incs, cur)
	}
	return col, incs
}

// referenceCandidates replays generator.perProfile for a whole increment
// through the public reference pieces — FilterTopRAppend, GhostAppend, the
// map-based reference Candidates, I-WNP — in serial profile order. This is lines 1–9
// of Algorithm 2 with every kernel-specific part swapped out.
func referenceCandidates(cfg Config, col *blocking.Collection, delta []*profile.Profile) []metablocking.Comparison {
	var out []metablocking.Comparison
	for _, p := range delta {
		blocks := col.BlocksOf(p.ID)
		if r := cfg.FilterRatio; r > 0 && r < 1 && len(blocks) > 0 {
			blocks = blocking.FilterTopRAppend(nil, blocks, r)
		}
		if cfg.Beta > 0 && len(blocks) > 0 {
			blocks = blocking.GhostAppend(nil, blocks, cfg.Beta)
		}
		out = append(out, metablocking.IWNP(metablocking.Candidates(col, p, blocks, cfg.Scheme))...)
	}
	return out
}

// TestGeneratorCandidatesMatchKernelFreeReference pins the generator's
// kernel-swept candidate pipeline, end to end, to a kernel-free emulation
// built from the reference implementations: for every scheme, with filtering
// and ghosting on, the emitted ⟨X, Y, Weight, BSize⟩ sequence must be
// bit-identical at Parallelism 1 and 4 — so neither the sweep kernel nor the
// worker fan-out can perturb emission. CheckInvariants is on, so every
// profile's ghosting, candidate order and I-WNP pruning are verified too.
func TestGeneratorCandidatesMatchKernelFreeReference(t *testing.T) {
	for _, cleanClean := range []bool{false, true} {
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS} {
			t.Run(fmt.Sprintf("cc=%v/%s", cleanClean, scheme), func(t *testing.T) {
				col, incs := genWorld(17, cleanClean, 120, 10)
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.FilterRatio = 0.8
				cfg.CheckInvariants = true
				var want []metablocking.Comparison
				for _, inc := range incs {
					want = append(want, referenceCandidates(cfg, col, inc)...)
				}
				for _, par := range []int{1, 4} {
					cfg.Parallelism = par
					g := newGenerator(cfg)
					var got []metablocking.Comparison
					for _, inc := range incs {
						cands, _ := g.candidates(col, inc)
						got = append(got, cands...)
					}
					if len(got) != len(want) {
						t.Fatalf("par=%d: generator emitted %d comparisons, reference %d", par, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("par=%d: comparison %d diverges: generator %+v, reference %+v", par, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestGeneratorFallbackWeightsMatchReference pins the fallback scan's CBS
// weights, each the intersection count of the pair's sorted live-block
// symbols, to the one-shot SharedBlocks reference: drain the whole leftover
// scan of a fresh generator and recompute every weight.
func TestGeneratorFallbackWeightsMatchReference(t *testing.T) {
	for _, cleanClean := range []bool{false, true} {
		col, _ := genWorld(23, cleanClean, 80, 10)
		g := newGenerator(DefaultConfig())
		for {
			cmps, _ := g.fallbackScan(col)
			if cmps == nil {
				break
			}
			for _, c := range cmps {
				if want := float64(metablocking.SharedBlocks(col, c.X, c.Y)); c.Weight != want {
					t.Fatalf("cc=%v: fallback weight of (%d,%d) = %v, reference %v", cleanClean, c.X, c.Y, c.Weight, want)
				}
				g.Mark(profile.PairKey(c.X, c.Y))
			}
		}
	}
}
