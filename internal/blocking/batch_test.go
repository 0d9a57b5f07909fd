package blocking

import (
	"fmt"
	"math/rand"
	"testing"

	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// randomProfiles builds a deterministic pseudo-random stream with a small
// vocabulary so blocks collide, grow, and purge.
func randomProfiles(n, vocab int, seed int64) []*profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*profile.Profile, n)
	for i := range out {
		val := ""
		for t := 0; t < 3+rng.Intn(5); t++ {
			val += fmt.Sprintf("tok%02d ", rng.Intn(vocab))
		}
		src := profile.SourceA
		if i%2 == 1 {
			src = profile.SourceB
		}
		out[i] = &profile.Profile{
			ID:         i,
			Source:     src,
			Attributes: []profile.Attribute{{Name: "v", Value: val}},
		}
	}
	return out
}

// equalCollections compares the observable state of two collections built
// from the same stream: registry, blocks (keys, member order), tombstones via
// Block liveness, and the profile→blocks index resolved to key strings.
func equalCollections(t *testing.T, want, got *Collection) {
	t.Helper()
	if want.NumProfiles() != got.NumProfiles() {
		t.Fatalf("NumProfiles: %d vs %d", want.NumProfiles(), got.NumProfiles())
	}
	if want.NumBlocks() != got.NumBlocks() {
		t.Fatalf("NumBlocks: %d vs %d", want.NumBlocks(), got.NumBlocks())
	}
	if want.Version() != got.Version() {
		t.Fatalf("Version: %d vs %d", want.Version(), got.Version())
	}
	wantKeys := want.SortedKeysByName()
	gotKeys := got.SortedKeysByName()
	for i, k := range wantKeys {
		if gotKeys[i] != k {
			t.Fatalf("block key sets differ at %d: %q vs %q", i, k, gotKeys[i])
		}
		wb, gb := want.Block(k), got.Block(k)
		if fmt.Sprint(wb.A) != fmt.Sprint(gb.A) || fmt.Sprint(wb.B) != fmt.Sprint(gb.B) {
			t.Fatalf("block %q members differ: %v|%v vs %v|%v", k, wb.A, wb.B, gb.A, gb.B)
		}
	}
	for _, id := range want.ProfileIDs() {
		wantOf := make([]string, 0, 8)
		for _, b := range want.BlocksOf(id) {
			wantOf = append(wantOf, b.Key)
		}
		gotOf := make([]string, 0, 8)
		for _, b := range got.BlocksOf(id) {
			gotOf = append(gotOf, b.Key)
		}
		if fmt.Sprint(wantOf) != fmt.Sprint(gotOf) {
			t.Fatalf("BlocksOf(%d): %v vs %v", id, wantOf, gotOf)
		}
	}
}

// TestAddBatchMatchesSerial pins the AddBatch contract: for every shard
// count, batch ingest must reproduce serial Add bit-for-bit — blocks, member
// order, purge tombstones, ofProf — including purge decisions made
// mid-increment. The worker dimension pins that AddBatch's pool argument has
// no effect.
func TestAddBatchMatchesSerial(t *testing.T) {
	profiles := randomProfiles(300, 40, 7)
	serial := NewCollectionStorage(true, 8, nil, 1, storage.Config{})
	for _, p := range profiles {
		serial.Add(p)
	}
	if err := serial.Verify(); err != nil {
		t.Fatalf("serial collection invalid: %v", err)
	}
	for _, shards := range []int{1, 2, 8, 64} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				c := NewCollectionStorage(true, 8, nil, shards, storage.Config{})
				pl := pool.New(workers)
				// Split the stream into uneven increments so batch boundaries
				// don't align with anything.
				for lo := 0; lo < len(profiles); {
					hi := lo + 1 + (lo*13)%17
					if hi > len(profiles) {
						hi = len(profiles)
					}
					c.AddBatch(profiles[lo:hi], pl)
					lo = hi
				}
				if err := c.Verify(); err != nil {
					t.Fatalf("batch collection invalid: %v", err)
				}
				equalCollections(t, serial, c)
			})
		}
	}
}

// TestAddBatchTokenCount pins the cost-model contract: AddBatch returns the
// same indexed-token total as the serial Adds it replaces.
func TestAddBatchTokenCount(t *testing.T) {
	profiles := randomProfiles(64, 10, 3)
	serial := NewCollectionStorage(false, 4, nil, 1, storage.Config{})
	want := 0
	for _, p := range profiles {
		want += serial.Add(p)
	}
	c := NewCollectionStorage(false, 4, nil, 8, storage.Config{})
	if got := c.AddBatch(profiles, pool.New(4)); got != want {
		t.Fatalf("AddBatch token count = %d, want %d", got, want)
	}
}

// TestAddBatchDuplicatePanics pins the duplicate-ID programming-error check
// on the batch path.
func TestAddBatchDuplicatePanics(t *testing.T) {
	profiles := randomProfiles(8, 10, 1)
	c := NewCollectionStorage(false, 0, nil, 4, storage.Config{})
	c.AddBatch(profiles, pool.New(2))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID in AddBatch did not panic")
		}
	}()
	c.AddBatch(profiles[:4], pool.New(2))
}

// TestNormalizeShards pins the shard-count resolution: zero and negative
// requests mean one shard (ingest is serial, so more buy nothing), others
// round up to a power of two and clamp at 256.
func TestNormalizeShards(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {3, 4}, {8, 8}, {300, 256},
	} {
		if got := normalizeShards(c.in); got != c.want {
			t.Errorf("normalizeShards(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if n := NewCollection(false, 0).NumShards(); n != 1 {
		t.Errorf("NewCollection shard count = %d, want 1", n)
	}
}
