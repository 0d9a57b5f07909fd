package metablocking

import (
	"math/rand"
	"testing"

	"pier/internal/blocking"
	"pier/internal/profile"
)

// benchCollection builds a deterministic dirty collection sized like one
// warm increment window: ~500 profiles over the shared vocabulary, so blocks
// are tens of profiles deep and each sweep touches a few hundred partners.
func benchCollection(b *testing.B) (*blocking.Collection, []*profile.Profile) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	col, ps := randomCollection(rng, false, 500, 0, func(i int) int { return i + 1 })
	return col, ps
}

// benchSink keeps the anchor-scan loops from being optimized away.
var benchSink int

// BenchmarkCandidatesKernel measures the sweep kernel generating all weighted
// candidates of recently arrived profiles — the incremental generation hot
// path. Block enumeration reuses a buffer, as the production scratch does.
// Guarded by BENCH_gates.json.
func BenchmarkCandidatesKernel(b *testing.B) {
	col, ps := benchCollection(b)
	var kern Kernel
	var blocks []*blocking.Block
	for _, scheme := range allSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := ps[len(ps)-1-i%32]
				blocks = col.AppendBlocksOf(p.ID, blocks[:0])
				kern.Candidates(col, p, blocks, scheme)
			}
		})
	}
}

// BenchmarkCandidatesReference is the map-based reference on the identical
// workload, kept as the speedup denominator for the kernel benchmark above.
func BenchmarkCandidatesReference(b *testing.B) {
	col, ps := benchCollection(b)
	var blocks []*blocking.Block
	for _, scheme := range allSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := ps[len(ps)-1-i%32]
				blocks = col.AppendBlocksOf(p.ID, blocks[:0])
				Candidates(col, p, blocks, scheme)
			}
		})
	}
}

// anchorScan weighs anchor x against every member of its blocks through f —
// the I-PBS emission access pattern both SharedBlocks benchmarks share.
func anchorScan(col *blocking.Collection, blocks []*blocking.Block, x int, f func(col *blocking.Collection, x, y int) int) int {
	sum := 0
	for _, blk := range blocks {
		for _, y := range blk.A {
			if y != x {
				sum += f(col, x, y)
			}
		}
	}
	return sum
}

// BenchmarkSharedBlocksKernel measures the anchor-sweep CBS counter in the
// block-scan access pattern it was built for. Guarded by BENCH_gates.json.
func BenchmarkSharedBlocksKernel(b *testing.B) {
	col, ps := benchCollection(b)
	var kern Kernel
	var blocks []*blocking.Block
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := ps[i%len(ps)].ID
		blocks = col.AppendBlocksOf(x, blocks[:0])
		benchSink = anchorScan(col, blocks, x, kern.SharedBlocks)
	}
}

// BenchmarkSharedBlocksReference is the one-shot two-pointer reference on the
// identical anchor-scan workload.
func BenchmarkSharedBlocksReference(b *testing.B) {
	col, ps := benchCollection(b)
	var blocks []*blocking.Block
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := ps[i%len(ps)].ID
		blocks = col.AppendBlocksOf(x, blocks[:0])
		benchSink = anchorScan(col, blocks, x, SharedBlocks)
	}
}
