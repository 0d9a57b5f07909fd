package check

import (
	"strings"
	"testing"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/profile"
	"pier/internal/storage"
)

// TestShardedBattery is the sharded-ingest acceptance matrix: for every
// strategy and shard count ∈ {1,4,8}, the batch-built index and the drains
// over it must match serial Add exactly, over the same three seeded datasets
// as the main battery.
func TestShardedBattery(t *testing.T) {
	for _, ds := range harnessDatasets(t) {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			t.Parallel()
			if err := ShardedBattery(ds, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// shardedProfiles builds a tiny fixed workload for the oracle self-checks.
func shardedProfiles(n int) []*profile.Profile {
	out := make([]*profile.Profile, n)
	for i := range out {
		out[i] = &profile.Profile{
			ID:     i,
			Source: profile.SourceA,
			Attributes: []profile.Attribute{
				{Name: "name", Value: "alpha beta"},
				{Name: "city", Value: "gamma"},
			},
		}
	}
	return out
}

// TestDiffCollectionsFires proves the collection oracle can fail: a sharded
// collection missing a profile, and one whose block contents differ, must both
// be reported — an equivalence check that cannot fire verifies nothing.
func TestDiffCollectionsFires(t *testing.T) {
	profiles := shardedProfiles(6)
	serial := blocking.NewCollection(false, 0)
	for _, p := range profiles {
		serial.Add(p)
	}

	short := blocking.NewCollectionStorage(false, 0, nil, 4, storage.Config{})
	for _, p := range profiles[:5] {
		short.Add(p)
	}
	if err := diffCollections("serial", serial, "short", short); err == nil {
		t.Fatal("diffCollections accepted a collection with a missing profile")
	} else if !strings.Contains(err.Error(), "profiles") {
		t.Fatalf("missing-profile error %q does not name the profile count", err)
	}

	skewed := blocking.NewCollectionStorage(false, 0, nil, 4, storage.Config{})
	for _, p := range profiles[:5] {
		skewed.Add(p)
	}
	skewed.Add(&profile.Profile{
		ID:         5,
		Source:     profile.SourceA,
		Attributes: []profile.Attribute{{Name: "name", Value: "delta"}},
	})
	if err := diffCollections("serial", serial, "skewed", skewed); err == nil {
		t.Fatal("diffCollections accepted a collection with different block contents")
	}
}

// TestShardedEquivalenceOnBuiltCollections exercises the exported oracle
// directly on a hand-rolled increment cut, including shard counts the
// default never picks.
func TestShardedEquivalenceOnBuiltCollections(t *testing.T) {
	ds := mutDataset()
	incs := ds.Increments(3)
	cfg := CoreConfig()
	mk := func() core.Strategy { return core.NewIPCS(cfg) }
	for _, shards := range []int{1, 2, 16} {
		if err := ShardedEquivalence(mk, ds.CleanClean, incs, shards); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}
