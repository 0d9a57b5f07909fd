package metablocking

import (
	"slices"

	"pier/internal/blocking"
	"pier/internal/intern"
	"pier/internal/profile"
)

// This file is the executable specification of edge weighting: the
// straightforward map-accumulator Candidates and the two-pointer SharedBlocks,
// written for obviousness, not speed. They are test references — the kernel
// battery (kernel_test.go, core/generator_kernel_test.go, internal/check)
// requires the sweep Kernel to reproduce them bit for bit — and nothing in
// production may call them; internal/arch enforces that.

// Candidates generates the weighted comparisons of a newly arrived profile p
// against *earlier* profiles (smaller IDs) from the given block slice —
// typically p's blocks after ghosting. For Clean-Clean collections only
// cross-source partners are considered. Each partner yields exactly one
// comparison whose weight aggregates all shared blocks in the slice; BSize is
// the size of the smallest shared block, the natural block-centric tag.
//
// Restricting partners to smaller IDs makes incremental generation naturally
// non-redundant: every unordered pair is generated exactly once, when its
// later profile arrives. The result is freshly allocated, in deterministic
// order (descending weight, ties by pair key).
func Candidates(col *blocking.Collection, p *profile.Profile, blocks []*blocking.Block, scheme Scheme) []Comparison {
	partners := make(map[int]acc)
	consider := func(ids []int, b *blocking.Block) {
		inv := 1.0 / float64(max(1, b.Comparisons(col.CleanClean())))
		size := b.Size()
		for _, id := range ids {
			if id >= p.ID {
				continue
			}
			a, ok := partners[id]
			if !ok {
				a.bsize = size
			}
			a.common++
			a.arcs += inv
			if size < a.bsize {
				a.bsize = size
			}
			partners[id] = a
		}
	}
	for _, b := range blocks {
		if col.CleanClean() {
			if p.Source == profile.SourceA {
				consider(b.B, b)
			} else {
				consider(b.A, b)
			}
		} else {
			consider(b.A, b)
			consider(b.B, b)
		}
	}
	out := make([]Comparison, 0, len(partners))
	for id, a := range partners {
		out = append(out, Comparison{
			X:      p.ID,
			Y:      id,
			Weight: scheme.Weight(a.common, a.arcs, col.NumBlocksOf(p.ID), col.NumBlocksOf(id), col.NumBlocks()),
			BSize:  a.bsize,
		})
	}
	slices.SortFunc(out, cmpByWeightDesc)
	return out
}

// SharedBlocks counts the live blocks shared by profiles x and y — the exact
// CBS weight of the pair, computed by sorted symbol intersection.
func SharedBlocks(col *blocking.Collection, x, y int) int {
	sx := col.AppendLiveSymsOf(x, nil)
	sy := col.AppendLiveSymsOf(y, nil)
	slices.Sort(sx)
	slices.Sort(sy)
	return intern.IntersectCount(sx, sy)
}
