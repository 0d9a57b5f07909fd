package metablocking

import (
	"fmt"
	"math/rand"
	"testing"

	"pier/internal/blocking"
	"pier/internal/profile"
)

// vocab is a small token universe: with ~40 words and 3-6 tokens per profile,
// block sharing is dense enough that every scheme and the purge path get real
// work.
var vocab = []string{
	"matrix", "sequel", "film", "movie", "reloaded", "revolution", "neo",
	"trinity", "morpheus", "agent", "smith", "zion", "oracle", "keymaker",
	"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
	"red", "blue", "pill", "ship", "crew", "code", "rain", "green",
	"one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
}

// randomProfile builds a profile with 1-6 random vocabulary tokens.
func randomProfile(rng *rand.Rand, id int, src profile.Source) *profile.Profile {
	n := 1 + rng.Intn(6)
	val := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			val += " "
		}
		val += vocab[rng.Intn(len(vocab))]
	}
	return mk(id, src, val)
}

// randomCollection builds a seeded collection of n profiles. cleanClean
// splits profiles across sources; maxBlockSize > 0 exercises purging.
func randomCollection(rng *rand.Rand, cleanClean bool, n, maxBlockSize int, idOf func(i int) int) (*blocking.Collection, []*profile.Profile) {
	col := blocking.NewCollection(cleanClean, maxBlockSize)
	ps := make([]*profile.Profile, 0, n)
	for i := 0; i < n; i++ {
		src := profile.SourceA
		if cleanClean && rng.Intn(2) == 1 {
			src = profile.SourceB
		}
		p := randomProfile(rng, idOf(i), src)
		col.Add(p)
		ps = append(ps, p)
	}
	return col, ps
}

var allSchemes = []Scheme{CBS, JSScheme, ECBS, ARCS}

// requireSameCandidates asserts two candidate lists are bit-identical,
// including float weight bits.
func requireSameCandidates(t *testing.T, label string, ref, got []Comparison) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: reference emitted %d candidates, kernel %d\nref: %v\ngot: %v",
			label, len(ref), len(got), ref, got)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("%s: candidate %d diverges: reference %v, kernel %v", label, i, ref[i], got[i])
		}
	}
}

// TestKernelCandidatesMatchesReference is the seeded differential property
// test of the tentpole: for randomized dirty and clean-clean collections
// (with and without purging), the sweep kernel's Candidates must be
// bit-identical to the map-based reference for all four weighting schemes —
// same partners, same float weights, same order.
func TestKernelCandidatesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, cleanClean := range []bool{false, true} {
			for _, maxBlock := range []int{0, 6} {
				rng := rand.New(rand.NewSource(seed))
				col, ps := randomCollection(rng, cleanClean, 60, maxBlock, func(i int) int { return i + 1 })
				var kern Kernel
				for _, scheme := range allSchemes {
					for _, p := range ps {
						blocks := col.BlocksOf(p.ID)
						want := Candidates(col, p, blocks, scheme)
						got := kern.Candidates(col, p, blocks, scheme)
						requireSameCandidates(t,
							fmt.Sprintf("seed=%d cc=%v maxBlock=%d scheme=%s p=%d",
								seed, cleanClean, maxBlock, scheme, p.ID),
							want, got)
					}
				}
			}
		}
	}
}

// TestKernelCandidatesOverflowIDs pins the dense/overflow split: partners
// with IDs outside the dense range (≥ kernelDenseLimit) go through the spill
// map and must still match the reference exactly.
func TestKernelCandidatesOverflowIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Interleave dense and huge IDs; the anchor arrives last with the
	// largest ID so every earlier profile is a potential partner.
	idOf := func(i int) int {
		if i%3 == 0 {
			return kernelDenseLimit + 10*i
		}
		return i + 1
	}
	col, ps := randomCollection(rng, false, 40, 0, idOf)
	anchor := mk(kernelDenseLimit+1_000_000, profile.SourceA, "matrix sequel film red blue pill")
	col.Add(anchor)
	ps = append(ps, anchor)
	var kern Kernel
	for _, scheme := range allSchemes {
		for _, p := range ps {
			blocks := col.BlocksOf(p.ID)
			want := Candidates(col, p, blocks, scheme)
			got := kern.Candidates(col, p, blocks, scheme)
			requireSameCandidates(t, fmt.Sprintf("overflow scheme=%s p=%d", scheme, p.ID), want, got)
		}
	}
}

// TestKernelDenominatorCacheInvalidation mutates the collection between
// sweeps: the version-keyed denominator cache must refresh, or JS/ECBS
// weights would be computed against stale |B(p)| counts.
func TestKernelDenominatorCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	col, ps := randomCollection(rng, false, 20, 0, func(i int) int { return i + 1 })
	var kern Kernel
	for round := 0; round < 5; round++ {
		// Warm the caches, then mutate, then re-weigh everything.
		for _, scheme := range []Scheme{JSScheme, ECBS} {
			for _, p := range ps {
				blocks := col.BlocksOf(p.ID)
				want := Candidates(col, p, blocks, scheme)
				got := kern.Candidates(col, p, blocks, scheme)
				requireSameCandidates(t, fmt.Sprintf("round=%d scheme=%s p=%d", round, scheme, p.ID), want, got)
			}
		}
		p := randomProfile(rng, 100+round, profile.SourceA)
		col.Add(p)
		ps = append(ps, p)
	}
}

// TestKernelSharedBlocksMatchesReference pins the anchor-sweep CBS counter
// against the one-shot two-pointer SharedBlocks, in the access pattern of a block scan (one anchor, many partners) and with
// collection mutations between scans.
func TestKernelSharedBlocksMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for _, cleanClean := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			col, ps := randomCollection(rng, cleanClean, 40, 6, func(i int) int { return i + 1 })
			var kern Kernel
			check := func(label string) {
				t.Helper()
				for _, x := range ps {
					for _, y := range ps {
						if x.ID == y.ID {
							continue
						}
						want := SharedBlocks(col, x.ID, y.ID)
						if got := kern.SharedBlocks(col, x.ID, y.ID); got != want {
							t.Fatalf("%s: Kernel(%d,%d) = %d, reference %d", label, x.ID, y.ID, got, want)
						}
					}
				}
			}
			check(fmt.Sprintf("seed=%d cc=%v initial", seed, cleanClean))
			// Mutate and re-scan: version-keyed anchor caches must refresh.
			for i := 0; i < 3; i++ {
				col.Add(randomProfile(rng, 200+i, profile.SourceA))
			}
			check(fmt.Sprintf("seed=%d cc=%v after-adds", seed, cleanClean))
			// A profile with no live blocks shares nothing with anyone.
			if got := kern.SharedBlocks(col, ps[0].ID, 99999); got != 0 {
				t.Fatalf("Kernel vs unknown partner = %d, want 0", got)
			}
		}
	}
}

// TestKernelCandidatesThenSharedBlocks interleaves the two access patterns on
// one kernel: a Candidates sweep must invalidate a cached anchor and vice
// versa, never serving stale counts.
func TestKernelCandidatesThenSharedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	col, ps := randomCollection(rng, false, 30, 0, func(i int) int { return i + 1 })
	var kern Kernel
	for i, p := range ps {
		blocks := col.BlocksOf(p.ID)
		requireSameCandidates(t, fmt.Sprintf("interleaved p=%d", p.ID),
			Candidates(col, p, blocks, CBS),
			kern.Candidates(col, p, blocks, CBS))
		y := ps[(i+7)%len(ps)]
		if p.ID == y.ID {
			continue
		}
		want := SharedBlocks(col, p.ID, y.ID)
		if got := kern.SharedBlocks(col, p.ID, y.ID); got != want {
			t.Fatalf("interleaved SharedBlocks(%d,%d) = %d, want %d", p.ID, y.ID, got, want)
		}
	}
}

// TestKernelEpochWrap forces the uint32 sweep epoch across its wrap point:
// the hard stamp reset must keep stale slots from aliasing the restarted
// epoch numbering.
func TestKernelEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	col, ps := randomCollection(rng, false, 25, 0, func(i int) int { return i + 1 })
	var kern Kernel
	// Warm the scratch so slots carry pre-wrap stamps, then jump the epoch
	// to the edge.
	p0 := ps[len(ps)-1]
	kern.Candidates(col, p0, col.BlocksOf(p0.ID), CBS)
	kern.epoch = ^uint32(0) - 2
	for i := 0; i < 8; i++ {
		p := ps[len(ps)-1-i]
		blocks := col.BlocksOf(p.ID)
		requireSameCandidates(t, fmt.Sprintf("wrap sweep %d (epoch %d)", i, kern.epoch),
			Candidates(col, p, blocks, ARCS),
			kern.Candidates(col, p, blocks, ARCS))
	}
	// The denominator epoch wraps independently; force it too.
	kern.dEpoch = ^uint32(0) - 1
	for round := 0; round < 4; round++ {
		col.Add(randomProfile(rng, 300+round, profile.SourceA)) // bump version → dEpoch++
		for _, p := range ps[:5] {
			blocks := col.BlocksOf(p.ID)
			requireSameCandidates(t, fmt.Sprintf("denom wrap round %d", round),
				Candidates(col, p, blocks, JSScheme),
				kern.Candidates(col, p, blocks, JSScheme))
		}
	}
}

// TestKernelZeroValueReset pins what checkpoint restore relies on: assigning
// Kernel{} resets every cache, and the zero value is immediately usable.
func TestKernelZeroValueReset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	col, ps := randomCollection(rng, false, 20, 0, func(i int) int { return i + 1 })
	var kern Kernel
	p := ps[len(ps)-1]
	kern.Candidates(col, p, col.BlocksOf(p.ID), ECBS)
	kern = Kernel{}
	requireSameCandidates(t, "post-reset",
		Candidates(col, p, col.BlocksOf(p.ID), ECBS),
		kern.Candidates(col, p, col.BlocksOf(p.ID), ECBS))
	if got, want := kern.SharedBlocks(col, ps[0].ID, ps[1].ID), SharedBlocks(col, ps[0].ID, ps[1].ID); got != want {
		t.Fatalf("post-reset SharedBlocks = %d, want %d", got, want)
	}
}

// TestKernelProbeAccumulation drives the serving-path surface directly
// (BeginProbe/Accumulate/Partners/ProbeStats) against a map reference,
// including overflow IDs (a probe's partners can be any indexed profile and
// probes themselves use negative IDs — the scratch must take both).
func TestKernelProbeAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var kern Kernel
	for sweep := 0; sweep < 50; sweep++ {
		type pa struct {
			common int
			arcs   float64
		}
		ref := make(map[int]pa)
		kern.BeginProbe()
		for list := 0; list < rng.Intn(6); list++ {
			n := rng.Intn(10)
			ids := make([]int, n)
			for i := range ids {
				switch rng.Intn(4) {
				case 0:
					ids[i] = -1 - rng.Intn(100) // negative (probe-like) IDs
				case 1:
					ids[i] = kernelDenseLimit + rng.Intn(100)
				default:
					ids[i] = rng.Intn(50)
				}
			}
			inv := 1.0 / float64(1+rng.Intn(20))
			kern.Accumulate(ids, inv)
			for _, id := range ids {
				a := ref[id]
				a.common++
				a.arcs += inv
				ref[id] = a
			}
		}
		partners := kern.Partners()
		if len(partners) != len(ref) {
			t.Fatalf("sweep %d: %d partners, reference %d", sweep, len(partners), len(ref))
		}
		seen := make(map[int]bool, len(partners))
		for _, id := range partners {
			if seen[id] {
				t.Fatalf("sweep %d: partner %d listed twice", sweep, id)
			}
			seen[id] = true
			want, ok := ref[id]
			if !ok {
				t.Fatalf("sweep %d: partner %d not in reference", sweep, id)
			}
			common, arcs := kern.ProbeStats(id)
			if common != want.common || arcs != want.arcs {
				t.Fatalf("sweep %d: partner %d stats (%d, %v), reference (%d, %v)",
					sweep, id, common, arcs, want.common, want.arcs)
			}
		}
	}
}
