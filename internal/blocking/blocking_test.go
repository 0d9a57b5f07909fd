package blocking

import (
	"math/rand"
	"sort"
	"testing"

	"pier/internal/profile"
	"pier/internal/storage"
)

func mk(id int, src profile.Source, val string) *profile.Profile {
	return profile.New(id, src, "", "attr", val)
}

func TestAddCreatesTokenBlocks(t *testing.T) {
	c := NewCollection(true, 0)
	n := c.Add(mk(1, profile.SourceA, "matrix reloaded"))
	if n != 2 {
		t.Errorf("Add returned %d tokens, want 2", n)
	}
	c.Add(mk(2, profile.SourceB, "matrix revolutions"))

	b := c.Block("matrix")
	if b == nil {
		t.Fatal("block 'matrix' missing")
	}
	if len(b.A) != 1 || len(b.B) != 1 {
		t.Errorf("block 'matrix' A=%v B=%v, want one profile each", b.A, b.B)
	}
	if b.Size() != 2 {
		t.Errorf("Size = %d, want 2", b.Size())
	}
	if b.Comparisons(true) != 1 {
		t.Errorf("Comparisons(clean) = %d, want 1", b.Comparisons(true))
	}
	if c.NumBlocks() != 3 { // matrix, reloaded, revolutions
		t.Errorf("NumBlocks = %d, want 3", c.NumBlocks())
	}
	if c.NumProfiles() != 2 {
		t.Errorf("NumProfiles = %d, want 2", c.NumProfiles())
	}
}

func TestDirtyComparisonsCount(t *testing.T) {
	b := &Block{Key: "k", A: []int{1, 2, 3, 4}}
	if got := b.Comparisons(false); got != 6 {
		t.Errorf("Comparisons(dirty) = %d, want 6", got)
	}
}

func TestDuplicateAddPanics(t *testing.T) {
	c := NewCollection(false, 0)
	c.Add(mk(1, profile.SourceA, "xx"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate profile ID")
		}
	}()
	c.Add(mk(1, profile.SourceA, "yy"))
}

func TestBlockPurging(t *testing.T) {
	c := NewCollection(false, 3)
	for i := 0; i < 10; i++ {
		c.Add(mk(i, profile.SourceA, "common"))
	}
	if c.Block("common") != nil {
		t.Error("oversized block 'common' not purged")
	}
	// Once purged, the block stays dead even for later profiles.
	c.Add(mk(100, profile.SourceA, "common unique"))
	if c.Block("common") != nil {
		t.Error("purged block resurrected")
	}
	if c.Block("unique") == nil {
		t.Error("other tokens of the same profile must still be blocked")
	}
	// BlocksOf must not report the purged block.
	for _, b := range c.BlocksOf(100) {
		if b.Key == "common" {
			t.Error("BlocksOf returned purged block")
		}
	}
}

func TestBlocksOfSkipsLaterPurged(t *testing.T) {
	c := NewCollection(false, 2)
	c.Add(mk(1, profile.SourceA, "tok other1"))
	c.Add(mk(2, profile.SourceA, "tok other2"))
	if c.NumBlocksOf(1) != 2 {
		t.Fatalf("NumBlocksOf(1) = %d, want 2", c.NumBlocksOf(1))
	}
	c.Add(mk(3, profile.SourceA, "tok other3")) // pushes 'tok' to size 3 > 2 -> purged
	if c.Block("tok") != nil {
		t.Fatal("'tok' should be purged")
	}
	if got := c.NumBlocksOf(1); got != 1 {
		t.Errorf("NumBlocksOf(1) after purge = %d, want 1", got)
	}
}

func TestIncrementalEqualsBatch(t *testing.T) {
	// Property: adding profiles one by one yields the same block collection
	// as adding them in any other order (without purging).
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var profiles []*profile.Profile
	for i := 0; i < 60; i++ {
		nTok := 1 + rng.Intn(4)
		val := ""
		for j := 0; j < nTok; j++ {
			val += vocab[rng.Intn(len(vocab))] + " "
		}
		src := profile.SourceA
		if i%2 == 1 {
			src = profile.SourceB
		}
		profiles = append(profiles, mk(i, src, val))
	}

	c1 := NewCollection(true, 0)
	for _, p := range profiles {
		c1.Add(p)
	}
	c2 := NewCollection(true, 0)
	perm := rng.Perm(len(profiles))
	for _, i := range perm {
		c2.Add(profiles[i])
	}

	if c1.NumBlocks() != c2.NumBlocks() {
		t.Fatalf("block counts differ: %d vs %d", c1.NumBlocks(), c2.NumBlocks())
	}
	for _, tok := range vocab {
		b1, b2 := c1.Block(tok), c2.Block(tok)
		if (b1 == nil) != (b2 == nil) {
			t.Fatalf("block %q presence differs", tok)
		}
		if b1 == nil {
			continue
		}
		for _, pair := range [][2][]int{{b1.A, b2.A}, {b1.B, b2.B}} {
			x := append([]int(nil), pair[0]...)
			y := append([]int(nil), pair[1]...)
			sort.Ints(x)
			sort.Ints(y)
			if len(x) != len(y) {
				t.Fatalf("block %q member counts differ", tok)
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("block %q members differ: %v vs %v", tok, x, y)
				}
			}
		}
	}
}

func TestSortedKeysBySize(t *testing.T) {
	c := NewCollection(false, 0)
	c.Add(mk(1, profile.SourceA, "small medium large"))
	c.Add(mk(2, profile.SourceA, "medium large"))
	c.Add(mk(3, profile.SourceA, "large"))
	keys := c.SortedKeysBySize()
	want := []string{"small", "medium", "large"}
	if len(keys) != 3 {
		t.Fatalf("got %d keys, want 3", len(keys))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("SortedKeysBySize = %v, want %v", keys, want)
		}
	}
}

func TestSortedKeysDeterministicTieBreak(t *testing.T) {
	c := NewCollection(false, 0)
	c.Add(mk(1, profile.SourceA, "bb aa cc"))
	keys := c.SortedKeysBySize()
	want := []string{"aa", "bb", "cc"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("SortedKeysBySize = %v, want %v (key tie-break)", keys, want)
		}
	}
}

func TestGhosting(t *testing.T) {
	blocks := []*Block{
		{Key: "tiny", A: []int{1, 2}},                     // size 2
		{Key: "mid", A: []int{1, 2, 3, 4}},                // size 4
		{Key: "big", A: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}}, // size 9
	}
	// beta = 0.5 keeps blocks up to 2/0.5 = 4.
	got := Ghost(blocks, 0.5)
	if len(got) != 2 || got[0].Key != "tiny" || got[1].Key != "mid" {
		t.Errorf("Ghost(beta=0.5) kept %v", keysOf(got))
	}
	// beta = 1 keeps only blocks of minimal size.
	got = Ghost(blocks, 1)
	if len(got) != 1 || got[0].Key != "tiny" {
		t.Errorf("Ghost(beta=1) kept %v", keysOf(got))
	}
	// beta <= 0 disables ghosting.
	if got = Ghost(blocks, 0); len(got) != 3 {
		t.Errorf("Ghost(beta=0) kept %d blocks, want all 3", len(got))
	}
	// Empty input.
	if got = Ghost(nil, 0.5); len(got) != 0 {
		t.Errorf("Ghost(nil) = %v", got)
	}
}

func TestGhostingKeepsMinAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		blocks := make([]*Block, n)
		for i := range blocks {
			sz := 1 + rng.Intn(20)
			ids := make([]int, sz)
			for j := range ids {
				ids[j] = j
			}
			blocks[i] = &Block{Key: "k", A: ids}
		}
		beta := 0.1 + rng.Float64()*0.9
		kept := Ghost(blocks, beta)
		if len(kept) == 0 {
			t.Fatalf("trial %d: ghosting removed all blocks (beta=%v)", trial, beta)
		}
		min := blocks[0].Size()
		for _, b := range blocks {
			if b.Size() < min {
				min = b.Size()
			}
		}
		found := false
		for _, b := range kept {
			if b.Size() == min {
				found = true
			}
			if float64(b.Size()) > float64(min)/beta {
				t.Fatalf("trial %d: kept block of size %d > %v", trial, b.Size(), float64(min)/beta)
			}
		}
		if !found {
			t.Fatalf("trial %d: smallest block not kept", trial)
		}
	}
}

func TestVersionBumps(t *testing.T) {
	c := NewCollection(false, 0)
	v0 := c.Version()
	c.Add(mk(1, profile.SourceA, "token"))
	if c.Version() == v0 {
		t.Error("Version did not change after Add")
	}
}

func keysOf(blocks []*Block) []string {
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = b.Key
	}
	return out
}

func TestFilterTopR(t *testing.T) {
	blocks := []*Block{
		{Key: "big", A: []int{1, 2, 3, 4, 5, 6}},
		{Key: "tiny", A: []int{1, 2}},
		{Key: "mid", A: []int{1, 2, 3, 4}},
	}
	got := FilterTopRAppend(nil, blocks, 0.5) // ceil(0.5*3) = 2 smallest
	if len(got) != 2 || got[0].Key != "tiny" || got[1].Key != "mid" {
		t.Errorf("FilterTopRAppend(0.5) = %v", keysOf(got))
	}
	if got := FilterTopRAppend(nil, blocks, 0); len(got) != 3 {
		t.Errorf("ratio 0 must disable filtering, kept %d", len(got))
	}
	if got := FilterTopRAppend(nil, blocks, 1); len(got) != 3 {
		t.Errorf("ratio 1 must disable filtering, kept %d", len(got))
	}
	if got := FilterTopRAppend(nil, nil, 0.5); len(got) != 0 {
		t.Errorf("FilterTopRAppend(nil) = %v", got)
	}
	// Input order must be preserved.
	if blocks[0].Key != "big" {
		t.Error("FilterTopRAppend mutated its input")
	}
}

func TestFilterTopRKeepsSmallestAlways(t *testing.T) {
	blocks := []*Block{
		{Key: "a", A: make([]int, 9)},
		{Key: "b", A: make([]int, 1)},
		{Key: "c", A: make([]int, 5)},
		{Key: "d", A: make([]int, 3)},
	}
	for _, r := range []float64{0.25, 0.5, 0.75, 0.9} {
		got := FilterTopRAppend(nil, blocks, r)
		found := false
		for _, b := range got {
			if b.Key == "b" {
				found = true
			}
		}
		if !found {
			t.Fatalf("ratio %v: smallest block not kept: %v", r, keysOf(got))
		}
	}
}

func TestKeyedCollection(t *testing.T) {
	// With q-gram keys, typo'd tokens still share blocks.
	c := NewCollectionStorage(true, 0, profile.QGramKeys, 0, storage.Config{})
	c.Add(mk(1, profile.SourceA, "wachowski"))
	c.Add(mk(2, profile.SourceB, "wachowsky"))
	shared := 0
	for _, b := range c.BlocksOf(1) {
		if len(b.A) > 0 && len(b.B) > 0 {
			shared++
		}
	}
	if shared < 5 {
		t.Errorf("q-gram keyed collection: only %d shared blocks", shared)
	}
	// Token blocking finds none for the same pair.
	tc := NewCollection(true, 0)
	tc.Add(mk(1, profile.SourceA, "wachowski"))
	tc.Add(mk(2, profile.SourceB, "wachowsky"))
	for _, b := range tc.BlocksOf(1) {
		if len(b.A) > 0 && len(b.B) > 0 {
			t.Error("token blocking unexpectedly paired the typo variants")
		}
	}
}

func TestRemove(t *testing.T) {
	c := NewCollection(true, 0)
	c.Add(mk(1, profile.SourceA, "shared solo1"))
	c.Add(mk(2, profile.SourceB, "shared solo2"))
	v := c.Version()
	c.Remove(1)
	if c.Version() == v {
		t.Error("Remove must bump the version")
	}
	if c.Profile(1) != nil {
		t.Error("removed profile still registered")
	}
	if c.NumProfiles() != 1 {
		t.Errorf("NumProfiles = %d", c.NumProfiles())
	}
	if b := c.Block("shared"); b == nil || len(b.A) != 0 || len(b.B) != 1 {
		t.Errorf("block 'shared' after removal = %+v", b)
	}
	if c.Block("solo1") != nil {
		t.Error("emptied block 'solo1' not dropped")
	}
	if got := c.BlocksOf(1); len(got) != 0 {
		t.Errorf("BlocksOf(removed) = %v", got)
	}
	// Removing again (or an unknown ID) is a no-op.
	c.Remove(1)
	c.Remove(99)
	if c.NumProfiles() != 1 {
		t.Error("no-op removals changed the collection")
	}
}
