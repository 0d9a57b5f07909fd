package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	if d.tombs.Len() != 0 {
		// The last deletes may not have tripped maintain; force it.
		d.merge()
	}
	if len(d.segs) > 1 {
		t.Fatalf("merge left %d segments", len(d.segs))
	}
	if d.tombs.Len() != 0 {
		t.Fatalf("merge left %d tombstones", d.tombs.Len())
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

// TestSortKeys checks the radix sort against slices.Sort on pair-key shaped
// inputs (few varying bytes), full 64-bit keys, duplicates and tiny inputs,
// with and without a caller's scratch buffer.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]uint64{nil, {7}, {3, 3, 3}, {2, 1}}
	pairs := make([]uint64, 5000)
	for i := range pairs {
		pairs[i] = uint64(rng.Intn(5000))<<32 | uint64(rng.Intn(5000))
	}
	wide := make([]uint64, 5000)
	for i := range wide {
		wide[i] = rng.Uint64()
	}
	inputs = append(inputs, pairs, wide)
	for _, in := range inputs {
		want := slices.Clone(in)
		slices.Sort(want)
		for _, scratch := range [][]uint64{nil, make([]uint64, len(in)+3)} {
			got := slices.Clone(in)
			SortKeys(got, scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("SortKeys of %d keys (scratch %d) disagrees with slices.Sort", len(in), len(scratch))
			}
		}
	}
}

// TestSpillDedupTieredBound seals many times with deletes interleaved, so
// tombstones trigger full merges too, and checks, after every op, the two bounds the set is built on: a lookup
// probes at most ⌈log2(sealed/sealAt)⌉+1 segments, and the active and
// tombstone tables stay inside the budget — priced at dedupKeyCost per key,
// and in real table bytes up to each table's 64-slot minimum. Membership is
// checked against the in-memory table throughout.
func TestSpillDedupTieredBound(t *testing.T) {
	const budget = 64 << 10
	d := newSpillDedup(Config{Budget: budget, Dir: t.TempDir()})
	defer d.Close()
	mem := NewDedupStore(Config{})
	rng := rand.New(rand.NewSource(5))
	var added []uint64
	maxSegs, seals, fullMerges := 0, 0, 0
	for op := 0; op < 50*d.sealAt; op++ {
		key := uint64(rng.Intn(1<<20))<<32 | uint64(rng.Intn(1<<20))
		active, tombs := d.active.Len(), d.tombs.Len()
		switch rng.Intn(10) {
		case 0:
			// Delete an earlier key, sealed by now more often than not.
			key = added[rng.Intn(len(added))]
			d.Delete(key)
			mem.Delete(key)
		case 1:
			if d.Has(key) != mem.Has(key) {
				t.Fatalf("op %d: Has(%#x) diverged", op, key)
			}
		default:
			if d.AddIfNew(key) != mem.AddIfNew(key) {
				t.Fatalf("op %d: AddIfNew(%#x) diverged", op, key)
			}
			added = append(added, key)
		}
		if active > 0 && d.active.Len() == 0 {
			seals++
		}
		if tombs > 0 && d.tombs.Len() == 0 {
			fullMerges++
		}
		if d.sealed > 0 {
			bound := int(math.Ceil(math.Log2(float64(d.sealed)/float64(d.sealAt)))) + 1
			if len(d.segs) > max(bound, 1) {
				t.Fatalf("op %d: %d segments hold %d keys; the bound at sealAt %d is %d",
					op, len(d.segs), d.sealed, d.sealAt, bound)
			}
		}
		maxSegs = max(maxSegs, len(d.segs))
		if priced := dedupKeyCost * (d.active.Len() + d.tombs.Len()); priced > budget {
			t.Fatalf("op %d: tables priced at %d bytes, budget %d", op, priced, budget)
		}
		if real := 8 * (len(d.active.slots) + len(d.tombs.slots)); real > budget+2*8*memDedupMinSlots {
			t.Fatalf("op %d: tables hold %d bytes, budget %d", op, real, budget)
		}
		if d.Len() != mem.Len() {
			t.Fatalf("op %d: Len %d, want %d", op, d.Len(), mem.Len())
		}
	}
	t.Logf("%d seals, %d full merges, %d keys sealed in %d segments at the end, at most %d at once",
		seals, fullMerges, d.sealed, len(d.segs), maxSegs)
	if seals < 32 || fullMerges == 0 || maxSegs < 3 {
		t.Fatalf("%d seals, %d full merges and at most %d segments: the tiering is not exercised", seals, fullMerges, maxSegs)
	}
	if !slices.Equal(collect(d), collect(mem)) {
		t.Fatal("Range disagrees with the in-memory table")
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillDedupDamagedMergedSegment is TestSpillDedupDamagedSegment for a
// segment that a size-tiered merge wrote: probes whose read fails answer
// "present", AddIfNew adds nothing, and Range and Err report the failure.
func TestSpillDedupDamagedMergedSegment(t *testing.T) {
	d := smallSpillDedup(t, 64)
	for k := uint64(1); k <= 64*6; k++ {
		d.Add(2 * k) // even keys only: odd ones in range are absent
	}
	if len(d.segs) == 0 || d.segs[0].count <= d.sealAt {
		t.Fatalf("oldest segment holds %d keys: no tiered merge wrote it", d.segs[0].count)
	}
	merged := d.segs[0]
	if err := os.Truncate(merged.path, 0); err != nil {
		t.Fatal(err)
	}
	probed := false
	for k := merged.min + 1; k < merged.max && !probed; k += 2 {
		if !d.Has(k) {
			continue
		}
		probed = true
		if d.Err() == nil {
			t.Fatal("a probe answered from a failed read, but Err() is nil")
		}
		if d.AddIfNew(k) {
			t.Fatalf("AddIfNew(%d) added a key whose membership read failed", k)
		}
	}
	if !probed {
		t.Fatal("no absent key passed the merged segment's bloom; the test is vacuous")
	}
	if !d.Has(merged.min) {
		t.Fatal("a merged key reads as absent after its segment read failed")
	}
	if err := d.Range(func(uint64) bool { return true }); err == nil {
		t.Fatal("Range over a truncated merged segment returned no error")
	}
}
