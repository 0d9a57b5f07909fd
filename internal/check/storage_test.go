package check

import (
	"fmt"
	"runtime"
	"testing"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// pricedIndexBytes is the budget-priced size of the stream's final,
// purge-free index: what a storage budget is measured against.
func pricedIndexBytes(cleanClean bool, incs [][]*profile.Profile) int64 {
	return FinalCollection(cleanClean, incs).StorageResidentBytes()
}

// TestShardedBatteryStorageSpill is the spill-backend differential cell: the
// full strategy battery with the sharded side forced onto the disk-spill
// backend, against the untouched in-memory serial reference, in two cells.
// At 4 KiB over four shards every overlay is evicted at every Maintain; at
// half the index over one shard overlays outlive increments, so blocks
// fault in alone next to dirty ones and segments are rewritten by merge.
// Any residency-dependent behavior — a block mutated without a Put, a stale
// segment read, a fault-in changing iteration order — diverges the trace and
// fails the oracle.
func TestShardedBatteryStorageSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("spill differential battery is a long test")
	}
	for _, ds := range harnessDatasets(t) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			scfg := storage.Config{Budget: 4 << 10, Dir: t.TempDir()}
			if err := ShardedBatteryStorage(ds, nil, []int{4}, scfg); err != nil {
				t.Fatal(err)
			}
			// The battery's middle split is five increments.
			half := storage.Config{Budget: pricedIndexBytes(ds.CleanClean, ds.Increments(5)) / 2, Dir: t.TempDir()}
			if err := ShardedBatteryStorage(ds, nil, []int{1}, half); err != nil {
				t.Fatalf("one shard at half the index: %v", err)
			}
		})
	}
}

// TestQueryOracleStorageSpill runs the query-vs-batch oracle with the serving
// pipeline on the spill backend: probes resolve largely out of spilled blocks
// through the snapshot redirect path, and must still return exactly the
// candidates batch blocking pairs them with. At 8 KiB every publish evicts
// every overlay, so snapshots hold markers only; at half the index over one
// shard, with the stream cut finer, overlays outlive some publishes, so
// snapshots mix markers with direct views of blocks newer than their
// segment.
func TestQueryOracleStorageSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("spill query oracle is a long test")
	}
	for _, ds := range harnessDatasets(t) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			incs := ds.Increments(5)
			scfg := storage.Config{Budget: 8 << 10, Dir: t.TempDir()}
			if err := QueryOracleStorage(ds.CleanClean, incs, 25, 42, 0, scfg); err != nil {
				t.Fatal(err)
			}
			// A pipeline gives its postings 3/4 of the budget: 2/3 of the
			// index leaves them half.
			fine := ds.Increments(20)
			half := storage.Config{Budget: pricedIndexBytes(ds.CleanClean, fine) * 2 / 3, Dir: t.TempDir()}
			if err := QueryOracleStorage(ds.CleanClean, fine, 25, 42, 1, half); err != nil {
				t.Fatalf("one shard at half the index: %v", err)
			}
		})
	}
}

// soakIncrements builds a deterministic dirty-ER stream whose blocking index
// grows linearly: profiles arrive in groups of four, each group sharing five
// private tokens, so every group contributes five blocks of four members and
// no block ever spans groups. Sizing is exact — nIncs*perInc profiles give
// nIncs*perInc/4*5 blocks — which lets the soak test state its working-set
// arithmetic in bytes.
func soakIncrements(nIncs, perInc int) [][]*profile.Profile {
	out := make([][]*profile.Profile, nIncs)
	id := 0
	for i := range out {
		inc := make([]*profile.Profile, perInc)
		for j := range inc {
			attrs := make([]profile.Attribute, 5)
			for a := range attrs {
				attrs[a] = profile.Attribute{
					Name:  fmt.Sprintf("f%d", a),
					Value: fmt.Sprintf("g%dx%d", id/4, a),
				}
			}
			inc[j] = &profile.Profile{ID: id, Source: profile.SourceA, Attributes: attrs}
			id++
		}
		out[i] = inc
	}
	return out
}

// soakDrive runs the manual-drive soak pipeline: sharded batch ingest, one
// RCU snapshot publication per increment (the only point the spill backend
// trims residency once snapshots are on), I-PES prioritization with a full
// drain per increment, and an executed-pair DedupStore. It returns the
// first-seen comparison trace, the final collection (publish-trimmed, still
// open), and the largest post-publish resident-byte reading.
func soakDrive(incs [][]*profile.Profile, postCfg, dedCfg storage.Config) (traces []Trace, col *blocking.Collection, maxResident int64) {
	col = blocking.NewCollectionStorage(false, 0, nil, 8, postCfg)
	col.PublishSnapshot()
	ded := storage.NewDedupStore(dedCfg)
	defer ded.Close()
	s := core.NewIPES(CoreConfig())
	w := pool.New(1)
	observe := func() {
		if r := col.StorageResidentBytes(); r > maxResident {
			maxResident = r
		}
	}
	for _, inc := range incs {
		col.AddBatch(inc, w)
		col.PublishSnapshot()
		observe()
		s.UpdateIndex(col, inc)
		for {
			c, ok := s.Dequeue()
			if !ok {
				s.UpdateIndex(col, nil)
				if s.Pending() == 0 {
					break
				}
				continue
			}
			if key := c.Key(); !ded.Has(key) {
				ded.Add(key)
				traces = append(traces, Trace{X: c.X, Y: c.Y, Weight: c.Weight})
			}
		}
	}
	// The drain faults blocks in at will; one final publication trims the
	// index back to budget so the caller measures steady state, not the
	// transient of the last drain.
	col.PublishSnapshot()
	observe()
	return traces, col, maxResident
}

// TestBoundedResidentSoak is the bounded-memory acceptance test: a stream
// whose blocking index is >= 5x the storage budget is driven for 60
// increments on both backends. The spill run must (a) keep the index's
// post-publish resident bytes at or under the budget at every increment, (b)
// produce the bit-identical comparison trace, and (c) actually return the
// memory — its measured heap growth must undercut the in-memory run's by a
// solid fraction of the spilled working set. Heap numbers come from
// runtime.ReadMemStats after back-to-back GCs; the quarter-of-savings margin
// keeps allocator noise from flaking the assertion.
func TestBoundedResidentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-memory soak is a long test")
	}
	const budget = 256 << 10
	incs := soakIncrements(60, 300)

	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	base := heap()
	memTraces, memCol, _ := soakDrive(incs, storage.Config{}, storage.Config{})
	memGrowth := heap() - base
	logical := memCol.StorageResidentBytes()
	if logical < 5*budget {
		t.Fatalf("working set %d bytes is under 5x the %d-byte budget; the soak would not prove spilling", logical, budget)
	}
	memCol.Close()
	memCol = nil

	base = heap()
	postCfg := storage.Config{Budget: budget, Dir: t.TempDir()}
	dedCfg := storage.Config{Budget: 32 << 10, Dir: t.TempDir()}
	spillTraces, spillCol, maxResident := soakDrive(incs, postCfg, dedCfg)
	spillGrowth := heap() - base

	if maxResident > budget {
		t.Errorf("post-publish resident bytes peaked at %d, budget is %d", maxResident, budget)
	}
	if len(spillTraces) != len(memTraces) {
		t.Fatalf("spill run emitted %d comparisons, in-memory run %d", len(spillTraces), len(memTraces))
	}
	for i := range memTraces {
		if spillTraces[i] != memTraces[i] {
			t.Fatalf("traces diverge at position %d: spill %+v, memory %+v", i, spillTraces[i], memTraces[i])
		}
	}
	if saved, want := memGrowth-spillGrowth, (logical-budget)/4; saved < want {
		t.Errorf("spill run saved only %d heap bytes over the in-memory run (mem %d, spill %d); want >= %d of the %d-byte working set",
			saved, memGrowth, spillGrowth, want, logical)
	}
	if err := spillCol.Close(); err != nil {
		t.Fatalf("close spill collection: %v", err)
	}
}
