package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestReadRunRejectsNonMinimal pins the canonical form ReadRun accepts: a
// varint padded with a zero continuation byte decodes to the same number
// but would re-encode shorter, so it is an error.
func TestReadRunRejectsNonMinimal(t *testing.T) {
	good := AppendRun(nil, []int{5, 300, 2})
	if ids, rest, err := ReadRun(good); err != nil || len(rest) != 0 || !slices.Equal(ids, []int{5, 300, 2}) {
		t.Fatalf("ReadRun(%x) = %v, %x, %v", good, ids, rest, err)
	}
	for _, bad := range [][]byte{
		{0x80, 0x00},             // padded count 0
		{0x81, 0x00, 0x02},       // padded count 1
		{0x01, 0x82, 0x00},       // padded member
		{0x01, 0x80, 0x80, 0x00}, // doubly padded member
	} {
		if _, _, err := ReadRun(bad); err == nil {
			t.Errorf("ReadRun(%x) accepted a non-minimal varint", bad)
		}
	}
}

// TestLoadDedupStoreMatchesAdds bulk-loads a sorted key set into each
// backend and checks it against a store built one Add at a time: the same
// membership and Len, and both keep working for later adds and deletes.
func TestLoadDedupStoreMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := []uint64{0}
	for len(keys) < 5000 {
		keys = append(keys, uint64(rng.Intn(400))<<32|uint64(rng.Intn(400)))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, cfg := range []Config{{}, {Budget: 64 << 10, Dir: t.TempDir()}, {Budget: 1 << 30, Dir: t.TempDir()}} {
		want := NewDedupStore(Config{})
		for _, k := range keys {
			want.Add(k)
		}
		got := LoadDedupStore(cfg, keys)
		if got.Len() != want.Len() || !slices.Equal(collect(got), collect(want)) {
			t.Fatalf("budget %d: loaded %d keys, want %d", cfg.Budget, got.Len(), want.Len())
		}
		if err := got.Err(); err != nil {
			t.Fatalf("budget %d: Err() = %v", cfg.Budget, err)
		}
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(420))<<32 | uint64(rng.Intn(420))
			switch rng.Intn(3) {
			case 0:
				if got.AddIfNew(k) != want.AddIfNew(k) {
					t.Fatalf("budget %d: AddIfNew(%x) diverged", cfg.Budget, k)
				}
			case 1:
				got.Delete(k)
				want.Delete(k)
			default:
				if got.Has(k) != want.Has(k) {
					t.Fatalf("budget %d: Has(%x) diverged", cfg.Budget, k)
				}
			}
		}
		if got.Len() != want.Len() || !slices.Equal(collect(got), collect(want)) {
			t.Fatalf("budget %d: after mixed ops %d keys, want %d", cfg.Budget, got.Len(), want.Len())
		}
		got.Close()
	}
}

// TestSpillDedupDamagedSegment truncates a sealed segment: probes whose read
// fails answer "present" (a pair that may have run never runs twice), Range
// returns the failure, and Err keeps it; nothing panics.
func TestSpillDedupDamagedSegment(t *testing.T) {
	d := smallSpillDedup(t, 64)
	for k := uint64(1); k <= 200; k++ {
		d.Add(2 * k) // even keys only: odd ones in range are absent
	}
	segs, err := filepath.Glob(filepath.Join(d.dir, "dedup-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no sealed segment (err %v); the test is vacuous", err)
	}
	for _, f := range segs {
		if err := os.Truncate(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Blooms pass an absent key now and then; find one that reaches disk.
	probed := false
	for k := uint64(3); k < 400 && !probed; k += 2 {
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
	if !d.Has(2) {
		t.Fatal("a sealed key reads as absent after its segment read failed")
	}
	if d.Err() == nil {
		t.Fatal("Err() is nil after a failed segment read")
	}
	if err := d.Range(func(uint64) bool { return true }); err == nil {
		t.Fatal("Range over a truncated segment returned no error")
	}
}

// TestRangeStoredIsTheCodecEncoding checks that RangeStored hands out, for
// every entry, exactly the bytes AppendValue writes for its value, under
// both backends, resident and spilled entries alike.
func TestRangeStoredIsTheCodecEncoding(t *testing.T) {
	for _, cfg := range []Config{{}, {Budget: 64, Dir: t.TempDir()}} {
		s := NewPostingStore[[]int](2, listCodec{}, cfg)
		want := map[uint32][]byte{}
		for k := uint32(0); k < 40; k++ {
			v := []int{int(k), int(k) * 3, int(k) * 300}
			s.Put(int(k%2), k, v)
			want[k] = AppendRun(nil, v)
			if k == 20 {
				s.Maintain()
			}
		}
		if cfg.Enabled() && s.Stats().SegmentWrites == 0 {
			t.Fatal("nothing spilled; the test is vacuous")
		}
		got := map[uint32][]byte{}
		for si := 0; si < 2; si++ {
			if err := s.RangeStored(si, func(k uint32, enc []byte) bool {
				got[k] = bytes.Clone(enc)
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d entries, want %d", cfg.Budget, len(got), len(want))
		}
		for k, w := range want {
			if !bytes.Equal(got[k], w) {
				t.Fatalf("budget %d: key %d stored as %x, codec writes %x", cfg.Budget, k, got[k], w)
			}
		}
		s.Close()
	}
}

// TestSpillStoreDamagedSegmentScan truncates a spilled shard's segment:
// RangeStored returns the failure instead of panicking and Err keeps it.
func TestSpillStoreDamagedSegmentScan(t *testing.T) {
	dir := t.TempDir()
	s := NewPostingStore[[]int](1, listCodec{}, Config{Budget: 1, Dir: dir})
	defer s.Close()
	for k := uint32(0); k < 10; k++ {
		s.Put(0, k, []int{int(k)})
	}
	s.Maintain()
	segs, err := filepath.Glob(filepath.Join(dir, "*", "shard-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment written (err %v); the test is vacuous", err)
	}
	if err := os.Truncate(segs[0], 20); err != nil {
		t.Fatal(err)
	}
	if err := s.RangeStored(0, func(uint32, []byte) bool { return true }); err == nil {
		t.Fatal("RangeStored over a truncated segment returned no error")
	}
	if s.Err() == nil {
		t.Fatal("Err() is nil after a failed segment scan")
	}
	s.Range(0, func(uint32, []int) bool { return true }) // must not panic
}
