package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// smallSpillDedup builds a spill dedup with a tiny seal threshold so tests
// exercise sealing, tombstones, and merging without huge key volumes.
func smallSpillDedup(t *testing.T, sealAt int) *spillDedup {
	t.Helper()
	d := newSpillDedup(Config{Budget: 1, Dir: t.TempDir()})
	d.sealAt = sealAt
	t.Cleanup(func() { d.Close() })
	return d
}

func collect(d DedupStore) []uint64 {
	var out []uint64
	d.Range(func(k uint64) bool { out = append(out, k); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMemDedupBasics(t *testing.T) {
	d := NewDedupStore(Config{})
	d.Add(7)
	d.Add(7)
	d.Add(9)
	if !d.Has(7) || !d.Has(9) || d.Has(8) || d.Len() != 2 {
		t.Fatalf("mem dedup wrong: len=%d", d.Len())
	}
	d.Delete(7)
	if d.Has(7) || d.Len() != 1 {
		t.Fatal("Delete failed")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSpillDedupMatchesMem drives an identical seeded op sequence through
// both backends and requires exact membership agreement — the property that
// keeps the stream's executed-pair trace bit-identical across backends.
func TestSpillDedupMatchesMem(t *testing.T) {
	mem := NewDedupStore(Config{})
	spill := smallSpillDedup(t, 64)
	rng := rand.New(rand.NewSource(7))
	for op := 0; op < 20000; op++ {
		key := uint64(rng.Intn(3000))
		switch rng.Intn(10) {
		case 0, 1, 2:
			if mem.Has(key) != spill.Has(key) {
				t.Fatalf("op %d: Has(%d) diverged", op, key)
			}
		case 3:
			mem.Delete(key)
			spill.Delete(key)
		default:
			mem.Add(key)
			spill.Add(key)
		}
		if mem.Len() != spill.Len() {
			t.Fatalf("op %d: Len %d vs %d", op, mem.Len(), spill.Len())
		}
	}
	want, got := collect(mem), collect(spill)
	if len(want) != len(got) {
		t.Fatalf("Range size: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Range[%d]: %d vs %d", i, want[i], got[i])
		}
	}
}

// TestSpillDedupReAddAfterDelete pins the tombstone resurrection path: a
// sealed key deleted and re-added must be present exactly once.
func TestSpillDedupReAddAfterDelete(t *testing.T) {
	d := smallSpillDedup(t, 16)
	for i := uint64(0); i < 100; i++ {
		d.Add(i)
	}
	if len(d.segs) == 0 {
		t.Fatal("nothing sealed")
	}
	d.Delete(3)
	if d.Has(3) || d.Len() != 99 {
		t.Fatalf("delete of sealed key failed: len=%d", d.Len())
	}
	d.Add(3)
	if !d.Has(3) || d.Len() != 100 {
		t.Fatalf("re-add of tombed key failed: len=%d", d.Len())
	}
	keys := collect(d)
	if len(keys) != 100 {
		t.Fatalf("Range returned %d keys (duplicate or loss)", len(keys))
	}
}

// TestSpillDedupMergeDropsTombstones forces the compaction path and checks
// segments collapse, tombstones drain, and membership is preserved.
func TestSpillDedupMergeDropsTombstones(t *testing.T) {
	d := smallSpillDedup(t, 16)
	for i := uint64(0); i < 400; i++ {
		d.Add(i)
	}
	// Delete enough sealed keys to trip the tombstone-ratio merge.
	for i := uint64(0); i < 400; i += 3 {
		d.Delete(i)
	}
	if len(d.tombs) != 0 {
		// The last deletes may not have tripped maintain; force it.
		d.merge()
	}
	if len(d.segs) > 1 {
		t.Fatalf("merge left %d segments", len(d.segs))
	}
	if len(d.tombs) != 0 {
		t.Fatalf("merge left %d tombstones", len(d.tombs))
	}
	for i := uint64(0); i < 400; i++ {
		want := i%3 != 0
		if d.Has(i) != want {
			t.Fatalf("Has(%d) = %v after merge, want %v", i, d.Has(i), want)
		}
	}
}

func TestSpillDedupCloseRemovesDir(t *testing.T) {
	dir := t.TempDir()
	d := newSpillDedup(Config{Budget: 1, Dir: dir})
	d.sealAt = 8
	for i := uint64(0); i < 50; i++ {
		d.Add(i)
	}
	if d.dir == "" {
		t.Fatal("no spill dir created")
	}
	sub := d.dir
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("dedup dir %s survived Close (err=%v)", sub, err)
	}
}

// TestSpillDedupWriteErrorKeepsActive points the dedup set's spill directory
// at a regular file, so the first seal cannot write: the set must keep every
// key in its active map with exact membership, stop sealing, and report the
// failure through Err instead of panicking.
func TestSpillDedupWriteErrorKeepsActive(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	d := newSpillDedup(Config{Budget: 1, Dir: notDir})
	d.sealAt = 8
	defer d.Close()
	for k := uint64(0); k < 40; k++ {
		d.Add(k)
	}
	if d.Err() == nil {
		t.Fatal("Err() is nil after the dedup segment could not be written")
	}
	if len(d.segs) != 0 || d.Len() != 40 {
		t.Fatalf("after the failed seal: %d segments, Len %d; want 0 and 40", len(d.segs), d.Len())
	}
	for k := uint64(0); k < 45; k++ {
		if got, want := d.Has(k), k < 40; got != want {
			t.Fatalf("Has(%d) = %v, want %v", k, got, want)
		}
	}
}
