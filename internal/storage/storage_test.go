package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// listCodec is the test codec: values are plain int slices — the in-memory
// posting-list model the spill segments are checked against — stored as one
// posting run.
type listCodec struct{}

func (listCodec) AppendValue(buf []byte, v []int) []byte { return AppendRun(buf, v) }

func (listCodec) DecodeValue(_ uint32, data []byte) ([]int, error) {
	v, rest, err := ReadRun(data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after the run", len(rest))
	}
	return v, err
}

func (listCodec) MetaOf(v []int) Meta { return Meta{A: int32(len(v))} }
func (listCodec) Size(m Meta) int     { return 16 + 8*m.Size() }

// frozenImage loads everything a Frozen handle reads.
func frozenImage(t *testing.T, fz *Frozen[[]int]) map[uint32][]int {
	t.Helper()
	keys, vals, err := fz.Load()
	if err != nil {
		t.Fatalf("Frozen.Load: %v", err)
	}
	m := make(map[uint32][]int, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}

func sameLists(t *testing.T, want, got map[uint32][]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing key %d", k)
		}
		if len(g) != len(w) {
			t.Fatalf("key %d: got %v, want %v", k, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("key %d: got %v, want %v", k, g, w)
			}
		}
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewPostingStore[[]int](4, listCodec{}, Config{})
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	s.Put(1, 5, []int{1, 2, 3})
	s.Put(1, 9, []int{4})
	if v, ok := s.Get(1, 5); !ok || len(v) != 3 {
		t.Fatalf("Get(1,5) = %v, %v", v, ok)
	}
	if _, ok := s.Get(1, 7); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if !s.Contains(1, 9) || s.Contains(2, 9) {
		t.Fatal("Contains wrong")
	}
	if m, ok := s.Meta(1, 5); !ok || m.Size() != 3 {
		t.Fatalf("Meta(1,5) = %v, %v", m, ok)
	}
	if s.Len(1) != 2 || s.Len(0) != 0 {
		t.Fatalf("Len = %d / %d", s.Len(1), s.Len(0))
	}
	want := int64(16+8*3) + int64(16+8*1)
	if got := s.ResidentBytes(); got != want {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
	s.Put(1, 5, []int{1, 2, 3, 4}) // replace: delta accounting
	want += 8
	if got := s.ResidentBytes(); got != want {
		t.Fatalf("ResidentBytes after replace = %d, want %d", got, want)
	}
	s.Delete(1, 9)
	if s.Contains(1, 9) {
		t.Fatal("Delete left key behind")
	}
	if s.Frozen(1) != nil || s.TakeRewritten() != nil || s.Stats() != (SpillStats{}) || s.Err() != nil {
		t.Fatal("mem store pretends to spill")
	}
	n := 0
	s.RangeMeta(1, func(key uint32, m Meta) bool { n += m.Size(); return true })
	if n != 4 {
		t.Fatalf("RangeMeta total size = %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// fillStore puts count keys spread over the store's shards and returns the
// model contents.
func fillStore(s PostingStore[[]int], shards, count int) map[int]map[uint32][]int {
	model := make(map[int]map[uint32][]int)
	for i := 0; i < count; i++ {
		key := uint32(i)
		si := int(key) % shards
		v := []int{i, i + 1, i + 2, i + 3}
		s.Put(si, key, v)
		if model[si] == nil {
			model[si] = make(map[uint32][]int)
		}
		model[si][key] = v
	}
	return model
}

func TestSpillStoreSpillsAndFaultsIn(t *testing.T) {
	const shards = 8
	cfg := Config{Budget: 2048, Dir: t.TempDir()}
	s := NewPostingStore[[]int](shards, listCodec{}, cfg)
	defer s.Close()
	model := fillStore(s, shards, 400) // ~48 bytes per entry, ~19KB total
	s.Maintain()
	if got := s.ResidentBytes(); got > cfg.Budget {
		t.Fatalf("ResidentBytes = %d > budget %d after Maintain", got, cfg.Budget)
	}
	spilledAny := false
	for si := 0; si < shards; si++ {
		if s.Frozen(si) != nil {
			spilledAny = true
		}
		// Metadata stays resident: no fault-in for counts and sizes.
		if s.Len(si) != len(model[si]) {
			t.Fatalf("shard %d: Len = %d, want %d", si, s.Len(si), len(model[si]))
		}
	}
	if !spilledAny {
		t.Fatal("nothing spilled under a tiny budget")
	}
	if log := s.TakeRewritten(); len(log) == 0 {
		t.Fatal("TakeRewritten empty after evictions")
	} else if again := s.TakeRewritten(); again != nil {
		t.Fatalf("TakeRewritten not consumed: %v", again)
	}
	// Every value faults back in intact.
	before := s.Stats().FaultIns
	for si := 0; si < shards; si++ {
		for k, w := range model[si] {
			g, ok := s.Get(si, k)
			if !ok || len(g) != len(w) || g[0] != w[0] {
				t.Fatalf("shard %d key %d: got %v, want %v", si, k, g, w)
			}
		}
	}
	if st := s.Stats(); st.FaultIns == before || st.SegmentWrites == 0 || st.SegmentBytes == 0 {
		t.Fatalf("stats %+v after faulting spilled blocks in", st)
	}
}

func TestFrozenSurvivesFaultInAndMutation(t *testing.T) {
	cfg := Config{Budget: 1, Dir: t.TempDir()} // evict everything
	s := NewPostingStore[[]int](2, listCodec{}, cfg)
	defer s.Close()
	s.Put(0, 2, []int{10, 20})
	s.Put(0, 4, []int{30})
	s.Maintain()
	fz := s.Frozen(0)
	if fz == nil {
		t.Fatal("Frozen returned nil for a spilled shard")
	}
	// Mutate and re-spill: the frozen handle must keep serving the original
	// image after the store rewrote the segment and unlinked the old file.
	s.Put(0, 2, []int{99})
	s.Delete(0, 4)
	s.Maintain()
	sameLists(t, map[uint32][]int{2: {10, 20}, 4: {30}}, frozenImage(t, fz))
	// A shard that never spilled has no frozen view.
	s.Put(1, 3, []int{1})
	if s.Frozen(1) != nil {
		t.Fatal("Frozen non-nil for a shard without a segment")
	}
	// The new frozen view reflects the mutation.
	sameLists(t, map[uint32][]int{2: {99}}, frozenImage(t, s.Frozen(0)))
}

// TestSpillStoreFaultsInOneBlock pins the unit of residency: a Get of a
// spilled key reads that one block back — one fault-in, one entry's price —
// an eviction that finds nothing newer than the segment writes nothing, and
// a rewrite after a write and a delete carries every untouched block over
// intact.
func TestSpillStoreFaultsInOneBlock(t *testing.T) {
	s := NewPostingStore[[]int](1, listCodec{}, Config{Budget: 1, Dir: t.TempDir()})
	defer s.Close()
	fillStore(s, 1, 50)
	s.Maintain()
	if st := s.Stats(); st.SegmentWrites != 1 || s.ResidentBytes() != 0 {
		t.Fatalf("after the first eviction: %+v, resident %d", st, s.ResidentBytes())
	}
	if v, ok := s.Get(0, 7); !ok || len(v) != 4 || v[0] != 7 {
		t.Fatalf("Get(0, 7) = %v, %v", v, ok)
	}
	if got := s.Stats().FaultIns; got != 1 {
		t.Fatalf("one Get faulted in %d blocks", got)
	}
	if got, want := s.ResidentBytes(), int64(listCodec{}.Size(Meta{A: 4})); got != want {
		t.Fatalf("resident %d bytes after one fault-in, want one entry's %d", got, want)
	}
	s.Maintain()
	if st := s.Stats(); st.SegmentWrites != 1 || st.CleanEvictions != 1 {
		t.Fatalf("an eviction with nothing dirty wrote a segment: %+v", st)
	}
	s.Put(0, 7, []int{70})
	s.Delete(0, 8)
	s.Maintain()
	if st := s.Stats(); st.SegmentWrites != 2 {
		t.Fatalf("a dirty eviction did not rewrite: %+v", st)
	}
	if s.Len(0) != 49 {
		t.Fatalf("Len = %d after one delete of 50", s.Len(0))
	}
	for k := uint32(0); k < 50; k++ {
		v, ok := s.Get(0, k)
		switch {
		case k == 8:
			if ok {
				t.Fatalf("deleted key 8 reads %v", v)
			}
		case k == 7:
			if !ok || len(v) != 1 || v[0] != 70 {
				t.Fatalf("rewritten key 7 reads %v, %v", v, ok)
			}
		default:
			i := int(k)
			if !ok || len(v) != 4 || v[0] != i || v[3] != i+3 {
				t.Fatalf("untouched key %d reads %v, %v", k, v, ok)
			}
		}
	}
}

// TestSpillStoreWriteErrorKeepsOverlay points the spill directory at a
// regular file — root ignores permission bits, a file is never a directory —
// so the first eviction cannot create it. The store must keep every entry
// resident and readable, stop spilling, and report the failure through Err
// instead of panicking.
func TestSpillStoreWriteErrorKeepsOverlay(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	const budget = 64
	s := NewPostingStore[[]int](2, listCodec{}, Config{Budget: budget, Dir: notDir})
	defer s.Close()
	model := fillStore(s, 2, 40)
	s.Maintain()
	if s.Err() == nil {
		t.Fatal("Err() is nil after the spill directory could not be created")
	}
	s.Put(0, 100, []int{1})
	model[0][100] = []int{1}
	s.Maintain()
	if st := s.Stats(); st.SegmentWrites != 0 || s.Frozen(0) != nil || s.Frozen(1) != nil {
		t.Fatalf("a failed store kept spilling: %+v", st)
	}
	if s.ResidentBytes() <= budget {
		t.Fatalf("resident %d bytes: the overlay was dropped", s.ResidentBytes())
	}
	for si, m := range model {
		for k, w := range m {
			if g, ok := s.Get(si, k); !ok || len(g) != len(w) || g[0] != w[0] {
				t.Fatalf("shard %d key %d: got %v, %v, want %v", si, k, g, ok, w)
			}
		}
	}
}

// TestSpillStoreMatchesMemStore drives an identical randomized op sequence
// through both backends (with periodic Maintain on the spill side) and
// checks observable equality — the backend-equivalence property the
// differential battery relies on.
func TestSpillStoreMatchesMemStore(t *testing.T) {
	const shards = 4
	mem := NewPostingStore[[]int](shards, listCodec{}, Config{})
	spill := NewPostingStore[[]int](shards, listCodec{}, Config{Budget: 512, Dir: t.TempDir()})
	defer spill.Close()
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 5000; op++ {
		key := uint32(rng.Intn(200))
		si := int(key) % shards
		switch rng.Intn(10) {
		case 0, 1:
			mem.Delete(si, key)
			spill.Delete(si, key)
		case 2:
			gm, okm := mem.Get(si, key)
			gs, oks := spill.Get(si, key)
			if okm != oks || len(gm) != len(gs) {
				t.Fatalf("op %d: Get(%d,%d) diverged: %v/%v vs %v/%v", op, si, key, gm, okm, gs, oks)
			}
		default:
			v := []int{rng.Intn(1000), rng.Intn(1000)}
			mem.Put(si, key, v)
			spill.Put(si, key, v)
		}
		if op%97 == 0 {
			spill.Maintain()
		}
	}
	spill.Maintain()
	for si := 0; si < shards; si++ {
		if mem.Len(si) != spill.Len(si) {
			t.Fatalf("shard %d: Len %d vs %d", si, mem.Len(si), spill.Len(si))
		}
		want := make(map[uint32][]int)
		mem.Range(si, func(k uint32, v []int) bool { want[k] = v; return true })
		got := make(map[uint32][]int)
		spill.Range(si, func(k uint32, v []int) bool { got[k] = v; return true })
		sameLists(t, want, got)
		for k := range want {
			mm, _ := mem.Meta(si, k)
			sm, ok := spill.Meta(si, k)
			if !ok || mm != sm {
				t.Fatalf("shard %d key %d: Meta %v vs %v (%v)", si, k, mm, sm, ok)
			}
		}
	}
}

func TestSpillStoreCloseRemovesSpillDir(t *testing.T) {
	dir := t.TempDir()
	s := NewPostingStore[[]int](2, listCodec{}, Config{Budget: 1, Dir: dir})
	fillStore(s, 2, 50)
	s.Maintain()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one spill subdir, got %v (%v)", entries, err)
	}
	sub := filepath.Join(dir, entries[0].Name())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close (err=%v)", sub, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() || (Config{Budget: -5}).Enabled() {
		t.Fatal("zero/negative budget must select the in-memory backend")
	}
	if !(Config{Budget: 1}).Enabled() {
		t.Fatal("positive budget must select the spill backend")
	}
}

func TestMetaComparisons(t *testing.T) {
	m := Meta{A: 3, B: 4}
	if m.Size() != 7 || m.Comparisons(true) != 12 || m.Comparisons(false) != 21 {
		t.Fatalf("Meta arithmetic wrong: %d/%d/%d", m.Size(), m.Comparisons(true), m.Comparisons(false))
	}
}
