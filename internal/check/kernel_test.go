package check

import (
	"fmt"
	"testing"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/metablocking"
)

// This file pins the sweep-based weighting kernel at the system level: the
// package-local differential tests in internal/metablocking prove kernel ==
// reference on serial collections; here the same property must hold over
// sharded, batch-built indexes, and the strategy drain sequences must stay
// identical across every (Parallelism × shards) combination — the kernel's
// per-worker scratch must not let concurrency leak into emission order.

var kernelSchemes = []metablocking.Scheme{
	metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS,
}

// TestKernelMatchesReferenceOnShardedCollections sweeps every profile of
// batch-built sharded collections through both the kernel and the map-based
// reference for all four weighting schemes: the candidate lists must be
// bit-identical (same partners, same float weight bits, same order) no matter
// how the index underneath was constructed.
func TestKernelMatchesReferenceOnShardedCollections(t *testing.T) {
	for _, ds := range harnessDatasets(t) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			incs := ds.Increments(5)
			for _, shards := range []int{1, 4} {
				col := ShardedFinalCollection(ds.CleanClean, incs, shards)
				var kern metablocking.Kernel
				var blocks []*blocking.Block
				for _, id := range col.ProfileIDs() {
					p := col.Profile(id)
					blocks = col.AppendBlocksOf(id, blocks[:0])
					for _, scheme := range kernelSchemes {
						want := metablocking.Candidates(col, p, blocks, scheme)
						got := kern.Candidates(col, p, blocks, scheme)
						if len(want) != len(got) {
							t.Fatalf("shards=%d scheme=%s profile=%d: reference emitted %d candidates, kernel %d",
								shards, scheme, id, len(want), len(got))
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("shards=%d scheme=%s profile=%d: candidate %d diverges: reference %+v, kernel %+v",
									shards, scheme, id, i, want[i], got[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestKernelTraceParallelismShardInvariance crosses the two knobs the kernel
// sits under, strategy Parallelism and index shard count, neither of which
// may change anything (candidate generation is serial). For
// every strategy, the full drain sequence ⟨X, Y, Weight⟩ must be identical
// across all (Parallelism × shards) combinations — the existing batteries pin
// each axis against the serial reference separately; this pins the cross.
func TestKernelTraceParallelismShardInvariance(t *testing.T) {
	for _, ds := range harnessDatasets(t) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			incs := ds.Increments(5)
			factories := map[string]func(par int) core.Strategy{
				"I-PCS": func(par int) core.Strategy { cfg := CoreConfig(); cfg.Parallelism = par; return core.NewIPCS(cfg) },
				"I-PBS": func(par int) core.Strategy { cfg := CoreConfig(); cfg.Parallelism = par; return core.NewIPBS(cfg) },
				"I-PES": func(par int) core.Strategy { cfg := CoreConfig(); cfg.Parallelism = par; return core.NewIPES(cfg) },
			}
			for name, mk := range factories {
				var refTrace []Trace
				var refLabel string
				for _, par := range []int{1, 4} {
					for _, shards := range []int{1, 4} {
						label := fmt.Sprintf("%s par=%d shards=%d", name, par, shards)
						got := ShardedIngestTrace(mk(par), ds.CleanClean, incs, shards)
						if refTrace == nil {
							refTrace, refLabel = got, label
							continue
						}
						if len(got) != len(refTrace) {
							t.Fatalf("%s emitted %d comparisons, %s emitted %d",
								label, len(got), refLabel, len(refTrace))
						}
						for i := range refTrace {
							if got[i] != refTrace[i] {
								t.Fatalf("%s diverges from %s at position %d: %+v vs %+v",
									label, refLabel, i, got[i], refTrace[i])
							}
						}
					}
				}
			}
		})
	}
}
