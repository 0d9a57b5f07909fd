package blocking

import (
	"bytes"
	"strings"
	"testing"

	"pier/internal/profile"
	"pier/internal/storage"
)

func TestCheckpointRoundTrip(t *testing.T) {
	c := NewCollection(true, 3)
	c.Add(mk(1, profile.SourceA, "matrix sequel film"))
	c.Add(mk(2, profile.SourceB, "matrix sequel movie"))
	// Force a purge so tombstones are exercised.
	c.Add(mk(3, profile.SourceB, "matrix extra"))
	c.Add(mk(4, profile.SourceB, "matrix more")) // "matrix" now size 4 > 3 -> purged

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProfiles() != c.NumProfiles() || got.NumBlocks() != c.NumBlocks() {
		t.Fatalf("restored %d profiles / %d blocks, want %d / %d",
			got.NumProfiles(), got.NumBlocks(), c.NumProfiles(), c.NumBlocks())
	}
	if got.Version() != c.Version() {
		t.Errorf("version %d, want %d", got.Version(), c.Version())
	}
	if got.Block("matrix") != nil {
		t.Error("purged block resurrected by checkpoint")
	}
	// Purge tombstones survive: later profiles must not rebuild the block.
	got.Add(mk(9, profile.SourceA, "matrix again"))
	if got.Block("matrix") != nil {
		t.Error("tombstone lost across checkpoint")
	}
	// Blocks and membership identical per key.
	for _, key := range c.SortedKeysByName() {
		b1, b2 := c.Block(key), got.Block(key)
		if b2 == nil {
			t.Fatalf("block %q missing after restore", key)
		}
		if len(b1.A) != len(b2.A) || len(b1.B) != len(b2.B) {
			t.Fatalf("block %q membership differs", key)
		}
	}
	// Restored profiles are fully usable (caches rebuilt lazily).
	p := got.Profile(1)
	if p == nil || !strings.Contains(p.JoinedValues(), "matrix") {
		t.Fatalf("restored profile unusable: %+v", p)
	}
	if got.NumBlocksOf(1) != c.NumBlocksOf(1) {
		t.Errorf("NumBlocksOf differs after restore")
	}
}

func TestCheckpointContinuesIncrementally(t *testing.T) {
	c := NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "alpha beta"))
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// New profiles after the restore must join the restored blocks.
	got.Add(mk(2, profile.SourceB, "alpha gamma"))
	b := got.Block("alpha")
	if b == nil || len(b.A) != 1 || len(b.B) != 1 {
		t.Fatalf("post-restore add did not join restored block: %+v", b)
	}
}

func TestCheckpointKeyedCollection(t *testing.T) {
	c := NewCollectionStorage(false, 0, profile.QGramKeys, 0, storage.Config{})
	c.Add(mk(1, profile.SourceA, "wachowski"))
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, profile.QGramKeys)
	if err != nil {
		t.Fatal(err)
	}
	got.Add(mk(2, profile.SourceA, "wachowsky"))
	shared := 0
	for _, b := range got.BlocksOf(2) {
		if len(b.A) == 2 {
			shared++
		}
	}
	if shared < 5 {
		t.Errorf("q-gram keyed restore: new profile shares only %d blocks", shared)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream"), nil); err == nil {
		t.Fatal("Load accepted garbage")
	}
}
