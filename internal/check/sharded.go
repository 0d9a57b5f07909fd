package check

import (
	"fmt"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/profile"
	"pier/internal/storage"
)

// This file holds the sharded-ingest differential oracles: the batch-ingest
// path of a sharded blocking index (NewCollectionStorage + AddBatch) must be
// observationally identical to serial Add on one shard — same blocks, same
// member order, same tombstones, same strategy drain sequences — for every
// shard count. Shard count is never a semantic knob; these oracles are what
// make that claim checkable rather than aspirational.

// ShardedFinalCollection blocks the whole stream into a sharded collection via
// batch ingest — the counterpart of FinalCollection for the sharded path.
// Purging stays disabled for the same reason as there.
func ShardedFinalCollection(cleanClean bool, incs [][]*profile.Profile, shards int) *blocking.Collection {
	return ShardedFinalCollectionStorage(cleanClean, incs, shards, storage.Config{})
}

// ShardedFinalCollectionStorage is ShardedFinalCollection with an explicit
// storage backend for the collection under test: the oracles that compare a
// spill-backed collection against the in-memory reference build their subject
// here.
func ShardedFinalCollectionStorage(cleanClean bool, incs [][]*profile.Profile, shards int, scfg storage.Config) *blocking.Collection {
	col := blocking.NewCollectionStorage(cleanClean, 0, nil, shards, scfg)
	for _, inc := range incs {
		col.AddBatch(inc, nil)
	}
	return col
}

// ShardedIngestTrace is IngestTrace with the collection built through the
// sharded batch path instead of serial Add: UpdateIndex once per increment
// over a sharded collection, then a full drain. If the sharded index is truly
// equivalent, the emission sequence matches IngestTrace exactly.
func ShardedIngestTrace(s core.Strategy, cleanClean bool, incs [][]*profile.Profile, shards int) []Trace {
	return ShardedIngestTraceStorage(s, cleanClean, incs, shards, storage.Config{})
}

// ShardedIngestTraceStorage is ShardedIngestTrace with an explicit storage
// backend: the strategy sees a collection that spills cold blocks, and must
// still emit the exact serial sequence.
func ShardedIngestTraceStorage(s core.Strategy, cleanClean bool, incs [][]*profile.Profile, shards int, scfg storage.Config) []Trace {
	col := blocking.NewCollectionStorage(cleanClean, 0, nil, shards, scfg)
	defer col.Close()
	for _, inc := range incs {
		col.AddBatch(inc, nil)
		s.UpdateIndex(col, inc)
	}
	var out []Trace
	for {
		c, ok := s.Dequeue()
		if !ok {
			s.UpdateIndex(col, nil)
			if s.Pending() == 0 {
				return out
			}
			continue
		}
		out = append(out, Trace{X: c.X, Y: c.Y, Weight: c.Weight})
	}
}

// diffCollections returns nil when two collections built from the same stream
// are observationally identical — registry, version, blocks (keys and member
// order), and the profile→blocks index resolved to key strings — or an error
// locating the first divergence. Symbol numbering is deliberately not
// compared: the serial and batch intern orders may differ, and nothing
// observable is allowed to depend on it.
func diffCollections(nameA string, a *blocking.Collection, nameB string, b *blocking.Collection) error {
	if a.NumProfiles() != b.NumProfiles() {
		return fmt.Errorf("check: %s has %d profiles, %s has %d", nameA, a.NumProfiles(), nameB, b.NumProfiles())
	}
	if a.NumBlocks() != b.NumBlocks() {
		return fmt.Errorf("check: %s has %d blocks, %s has %d", nameA, a.NumBlocks(), nameB, b.NumBlocks())
	}
	if a.Version() != b.Version() {
		return fmt.Errorf("check: %s at version %d, %s at %d", nameA, a.Version(), nameB, b.Version())
	}
	keysA, keysB := a.SortedKeysByName(), b.SortedKeysByName()
	for i, k := range keysA {
		if keysB[i] != k {
			return fmt.Errorf("check: block key sets diverge at rank %d: %s has %q, %s has %q", i, nameA, k, nameB, keysB[i])
		}
		ba, bb := a.Block(k), b.Block(k)
		if fmt.Sprint(ba.A) != fmt.Sprint(bb.A) || fmt.Sprint(ba.B) != fmt.Sprint(bb.B) {
			return fmt.Errorf("check: block %q members diverge: %s has %v|%v, %s has %v|%v",
				k, nameA, ba.A, ba.B, nameB, bb.A, bb.B)
		}
	}
	for _, id := range a.ProfileIDs() {
		ofA := blockKeys(a, id)
		ofB := blockKeys(b, id)
		if fmt.Sprint(ofA) != fmt.Sprint(ofB) {
			return fmt.Errorf("check: BlocksOf(%d) diverges: %s has %v, %s has %v", id, nameA, ofA, nameB, ofB)
		}
	}
	return nil
}

// blockKeys resolves a profile's block membership to key strings, the
// numbering-independent view.
func blockKeys(c *blocking.Collection, id int) []string {
	blocks := c.BlocksOf(id)
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = b.Key
	}
	return out
}

// ShardedEquivalence asserts that sharded batch ingest is
// indistinguishable from serial Add at two levels: the final collection state
// (blocks, member order, versions, profile→blocks index, all resolved to key
// strings) and the exact strategy drain sequence ⟨X, Y, Weight⟩ over
// collections built each way. mk constructs a fresh strategy per run.
func ShardedEquivalence(mk func() core.Strategy, cleanClean bool, incs [][]*profile.Profile, shards int) error {
	return ShardedEquivalenceStorage(mk, cleanClean, incs, shards, storage.Config{})
}

// ShardedEquivalenceStorage is ShardedEquivalence with an explicit storage
// backend on the sharded side only: the serial reference always stays fully
// in memory, so a non-zero scfg turns the oracle into a differential test of
// the spill backend itself — any residency-dependent behavior shows up as a
// divergence from the in-memory reference.
func ShardedEquivalenceStorage(mk func() core.Strategy, cleanClean bool, incs [][]*profile.Profile, shards int, scfg storage.Config) error {
	serial := FinalCollection(cleanClean, incs)
	sharded := ShardedFinalCollectionStorage(cleanClean, incs, shards, scfg)
	defer sharded.Close()
	if err := diffCollections("serial Add", serial, fmt.Sprintf("sharded(%d) AddBatch", shards), sharded); err != nil {
		return err
	}
	s := mk()
	ref := IngestTrace(s, cleanClean, incs)
	got := ShardedIngestTraceStorage(mk(), cleanClean, incs, shards, scfg)
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if ref[i] != got[i] {
			return fmt.Errorf("check: %s drain sequences diverge at position %d: serial emitted %+v, sharded(%d) emitted %+v",
				s.Name(), i, ref[i], shards, got[i])
		}
	}
	if len(ref) != len(got) {
		return fmt.Errorf("check: %s drain sequences diverge in length: serial emitted %d comparisons, sharded(%d) emitted %d",
			s.Name(), len(ref), shards, len(got))
	}
	return nil
}

// ShardedBattery runs ShardedEquivalence for every PIER strategy across the
// requested shard counts, at the middle split of the canonical matrix. Unlike
// IngestInvariance this includes I-PBS: the increments are identical on both
// sides, so even its boundary-sensitive UpdateIndex must trace identically —
// only the index construction underneath differs.
func ShardedBattery(ds *dataset.Dataset, splits, shardCounts []int) error {
	return ShardedBatteryStorage(ds, splits, shardCounts, storage.Config{})
}

// ShardedBatteryStorage is ShardedBattery with an explicit storage backend on
// the sharded side — the full strategy × shards matrix asserting
// that a spill-backed index traces identically to the in-memory serial
// reference.
func ShardedBatteryStorage(ds *dataset.Dataset, splits, shardCounts []int, scfg storage.Config) error {
	if len(splits) == 0 {
		splits = []int{1, 2, 5, 10}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4, 8}
	}
	midK := splits[len(splits)/2]
	incs := ds.Increments(midK)
	cfg := CoreConfig()
	factories := map[string]func() core.Strategy{
		"I-PCS": func() core.Strategy { return core.NewIPCS(cfg) },
		"I-PBS": func() core.Strategy { return core.NewIPBS(cfg) },
		"I-PES": func() core.Strategy { return core.NewIPES(cfg) },
	}
	for _, shards := range shardCounts {
		for name, mk := range factories {
			if err := ShardedEquivalenceStorage(mk, ds.CleanClean, incs, shards, scfg); err != nil {
				return fmt.Errorf("%s/sharded-equivalence (shards=%d, dataset=%s): %w",
					name, shards, ds.Name, err)
			}
		}
	}
	return nil
}
