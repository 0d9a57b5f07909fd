package blocking

import (
	"encoding/binary"
	"runtime"
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

	img, err := c.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(img, nil, 0, storage.Config{})
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
	img, err := c.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(img, nil, 0, storage.Config{})
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
	img, err := c.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImage(img, profile.QGramKeys, 0, storage.Config{})
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
	if _, err := DecodeImage([]byte("not a collection image"), nil, 0, storage.Config{}); err == nil {
		t.Fatal("DecodeImage accepted garbage")
	}
}

// TestDecodeImageBoundsAllocation feeds a 20-byte collection image whose
// symbol count claims 2^40 strings. The decoder must reject the count
// against the bytes left before allocating for it.
func TestDecodeImageBoundsAllocation(t *testing.T) {
	img := []byte{0, 0, 0}                          // cleanClean, maxBlockSize, version
	img = binary.AppendUvarint(img, 1<<40)          // symbol count
	img = append(img, make([]byte, 20-len(img))...) // padding to 20 bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeImage(img, nil, 0, storage.Config{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an image claiming 2^40 symbols in 20 bytes decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("rejecting the image allocated %d bytes, want under 64 KiB", n)
	}
}

// TestDecodeImageRejectsTruncation cuts a valid image at every length: each
// prefix must fail with an error, never panic.
func TestDecodeImageRejectsTruncation(t *testing.T) {
	c := NewCollection(true, 3)
	c.Add(mk(1, profile.SourceA, "matrix sequel film"))
	c.Add(mk(2, profile.SourceB, "matrix sequel movie"))
	img, err := c.AppendImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := range img {
		if _, err := DecodeImage(img[:n], nil, 0, storage.Config{}); err == nil {
			t.Fatalf("image truncated to %d of %d bytes decoded", n, len(img))
		}
	}
}
