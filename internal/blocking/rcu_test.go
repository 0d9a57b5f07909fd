package blocking

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pier/internal/dataset"
	"pier/internal/intern"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// randomIncrement builds n profiles drawing tokens from a small zipf-ish
// vocabulary so blocks overlap heavily (the interesting case for snapshots).
func randomIncrement(rng *rand.Rand, firstID, n int) []*profile.Profile {
	out := make([]*profile.Profile, n)
	for i := range out {
		src := profile.SourceA
		if rng.Intn(2) == 1 {
			src = profile.SourceB
		}
		toks := ""
		for k := 0; k < 2+rng.Intn(4); k++ {
			// Quadratic skew: low word indices dominate, like real vocab.
			w := rng.Intn(40)
			toks += fmt.Sprintf("w%d ", w*w/40)
		}
		out[i] = mk(firstID+i, src, toks)
	}
	return out
}

// assertSnapEqualsOwner cross-checks the published snapshot against the
// owner's own accessors over every symbol ever interned and every ID in ids.
// Only valid at a quiescent point, right after a publish.
func assertSnapEqualsOwner(t *testing.T, c *Collection, ids []int) {
	t.Helper()
	assertSnapEquals(t, c.ProbeView(), c, ids)
}

// assertSnapEquals cross-checks a snapshot against the accessors of c, a
// collection in the state the snapshot was published from — the publisher
// itself, or a twin with the same symbol numbering.
func assertSnapEquals(t *testing.T, s *Snap, c *Collection, ids []int) {
	t.Helper()
	if got, want := s.NumBlocks(), c.NumBlocks(); got != want {
		t.Fatalf("snapshot NumBlocks = %d, owner = %d", got, want)
	}
	if got, want := s.version, c.Version(); got != want {
		t.Fatalf("snapshot Version = %d, collection = %d", got, want)
	}
	for sym := intern.Sym(0); int(sym) < c.tab.Len(); sym++ {
		w := c.BlockBySym(sym)
		got := s.AppendPostings(nil, []intern.Sym{sym})
		if (len(got) == 1) != (w != nil) {
			t.Fatalf("sym %d (%q): snapshot has %d postings, owner block %v",
				sym, c.tab.StringOf(sym), len(got), w)
		}
		if w == nil {
			continue
		}
		g := got[0]
		if g.Key != w.Key || len(g.A) != len(w.A) || len(g.B) != len(w.B) {
			t.Fatalf("sym %d: snapshot posting %q A=%d B=%d, owner %q A=%d B=%d",
				sym, g.Key, len(g.A), len(g.B), w.Key, len(w.A), len(w.B))
		}
		for i := range g.A {
			if g.A[i] != w.A[i] {
				t.Fatalf("sym %d: A[%d] = %d, owner %d", sym, i, g.A[i], w.A[i])
			}
		}
		for i := range g.B {
			if g.B[i] != w.B[i] {
				t.Fatalf("sym %d: B[%d] = %d, owner %d", sym, i, g.B[i], w.B[i])
			}
		}
	}
	for _, id := range ids {
		if got, want := s.Profile(id), c.Profile(id); got != want {
			t.Fatalf("profile %d: snapshot %v, owner %v", id, got, want)
		}
		if got, want := s.NumBlocksOf(id), c.NumBlocksOf(id); got != want {
			t.Fatalf("NumBlocksOf(%d): snapshot %d, owner %d", id, got, want)
		}
	}
}

// TestSnapshotMatchesOwner drives a mixed Add/AddBatch/Remove/purge workload
// and asserts after every publish that the lock-free view is indistinguishable
// from what the owner's own accessors read.
func TestSnapshotMatchesOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := NewCollectionStorage(false, 6, nil, 4, storage.Config{})
	workers := pool.New(4)
	c.PublishSnapshot() // empty snapshot; enables tracking
	var ids []int
	next := 0
	for round := 0; round < 8; round++ {
		inc := randomIncrement(rng, next, 30)
		next += len(inc)
		if round%2 == 0 {
			c.AddBatch(inc, workers)
		} else {
			for _, p := range inc {
				c.Add(p)
			}
		}
		for _, p := range inc {
			ids = append(ids, p.ID)
		}
		// Evict a few of the oldest, like the stream's window does.
		for k := 0; k < 5 && len(ids) > 40; k++ {
			c.Remove(ids[0])
			ids = ids[1:]
		}
		c.PublishSnapshot()
		assertSnapEqualsOwner(t, c, ids)
	}
}

// TestSnapshotMatchesOwnerUnderSpill publishes a windowed stream from one
// spill-backed shard at half the final index: the overlay outlives some
// publishes and is evicted at others, so snapshots mix spill markers with
// direct views of blocks newer than the segment. Each must read exactly what
// an in-memory twin fed the same operations reads. The twin, not the
// publisher, is the reference because reading every block through the
// publisher would fault them all in and force the next publish to evict.
func TestSnapshotMatchesOwnerUnderSpill(t *testing.T) {
	ds := dataset.DA(0.02, 1)
	incs := ds.Increments(20)
	final := NewCollection(ds.CleanClean, 0)
	for _, inc := range incs {
		final.AddBatch(inc, nil)
	}
	budget := final.StorageResidentBytes() / 2
	c := NewCollectionStorage(ds.CleanClean, 0, nil, 1, storage.Config{Budget: budget, Dir: t.TempDir()})
	defer c.Close()
	twin := NewCollection(ds.CleanClean, 0)
	c.PublishSnapshot()
	var ids []int
	mixed := 0
	for _, inc := range incs {
		for _, col := range []*Collection{c, twin} {
			col.AddBatch(inc, nil)
		}
		for _, p := range inc {
			ids = append(ids, p.ID)
		}
		for len(ids) > 60 {
			c.Remove(ids[0])
			twin.Remove(ids[0])
			ids = ids[1:]
		}
		c.PublishSnapshot()
		s := c.ProbeView()
		markers, views := 0, 0
		for sym := intern.Sym(0); int(sym) < c.tab.Len(); sym++ {
			switch p := s.rawPostingOf(sym); {
			case p == spilledMarker:
				markers++
			case p != nil:
				views++
			}
		}
		if markers > 0 && views > 0 {
			mixed++
		}
		assertSnapEquals(t, s, twin, ids)
	}
	if mixed == 0 {
		t.Fatal("no snapshot mixed spill markers with direct views; the test is vacuous")
	}
}

// TestProbeViewBeforePublish pins the pre-publication contract: a collection
// that never published reads as an empty index through ProbeView, and asking
// for the view does not switch it into snapshot tracking.
func TestProbeViewBeforePublish(t *testing.T) {
	c := NewCollection(false, 0)
	c.Add(mk(0, profile.SourceA, "alpha beta"))
	s := c.ProbeView()
	sym, _ := c.tab.Sym("alpha")
	if s.NumBlocks() != 0 || s.Profile(0) != nil || s.NumBlocksOf(0) != 0 ||
		len(s.AppendPostings(nil, []intern.Sym{sym})) != 0 {
		t.Fatalf("unpublished collection reads non-empty through ProbeView: %+v", s)
	}
	if c.snapOn {
		t.Fatal("ProbeView switched the collection into snapshot tracking")
	}
}

// TestSnapshotImmutable pins a snapshot, mutates the collection heavily, and
// asserts the pinned view still reads exactly what it read at publish time —
// the frozen-window guarantee behind the no-torn-read contract.
func TestSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCollectionStorage(false, 0, nil, 4, storage.Config{})
	inc := randomIncrement(rng, 0, 50)
	c.AddBatch(inc, pool.New(2))
	c.PublishSnapshot()
	pinned := c.ProbeView()

	type frozen struct {
		a, b []int
	}
	before := make(map[intern.Sym]frozen)
	for sym := intern.Sym(0); int(sym) < c.tab.Len(); sym++ {
		if p := pinned.PostingOf(sym); p != nil {
			before[sym] = frozen{a: append([]int(nil), p.A...), b: append([]int(nil), p.B...)}
		}
	}
	nb := pinned.NumBlocks()

	// Mutate: more members in existing blocks, removals of pinned members.
	c.AddBatch(randomIncrement(rng, 1000, 50), pool.New(2))
	for id := 0; id < 25; id++ {
		c.Remove(id)
	}
	c.PublishSnapshot()

	if pinned.NumBlocks() != nb {
		t.Fatalf("pinned NumBlocks changed: %d -> %d", nb, pinned.NumBlocks())
	}
	for sym, want := range before {
		p := pinned.PostingOf(sym)
		if p == nil {
			t.Fatalf("sym %d vanished from pinned snapshot", sym)
		}
		if len(p.A) != len(want.a) || len(p.B) != len(want.b) {
			t.Fatalf("sym %d: pinned posting resized A=%d->%d B=%d->%d",
				sym, len(want.a), len(p.A), len(want.b), len(p.B))
		}
		for i := range want.a {
			if p.A[i] != want.a[i] {
				t.Fatalf("sym %d: pinned A[%d] changed %d -> %d", sym, i, want.a[i], p.A[i])
			}
		}
		for i := range want.b {
			if p.B[i] != want.b[i] {
				t.Fatalf("sym %d: pinned B[%d] changed %d -> %d", sym, i, want.b[i], p.B[i])
			}
		}
	}
	// The new snapshot, by contrast, must reflect the removals.
	if cur := c.ProbeView(); cur.Profile(0) != nil {
		t.Fatal("current snapshot still registers removed profile 0")
	}
}

// TestSnapshotPurgeVisible publishes across a purge boundary: a block that
// overflows maxBlockSize must be live in the snapshot taken before the purge
// and dead in the one taken after.
func TestSnapshotPurgeVisible(t *testing.T) {
	c := NewCollection(false, 3)
	for id := 0; id < 3; id++ {
		c.Add(mk(id, profile.SourceA, "hot"))
	}
	c.PublishSnapshot()
	sym, ok := c.tab.Sym("hot")
	if !ok {
		t.Fatal("token not interned")
	}
	snap1 := c.ProbeView()
	if p := snap1.PostingOf(sym); p == nil || len(p.A) != 3 {
		t.Fatalf("pre-purge snapshot: posting = %+v, want 3 members", p)
	}
	c.Add(mk(3, profile.SourceA, "hot")) // overflows: block purged
	c.PublishSnapshot()
	if p := c.ProbeView().PostingOf(sym); p != nil {
		t.Fatalf("post-purge snapshot still has posting %+v", p)
	}
	if got := c.ProbeView().NumBlocksOf(0); got != 0 {
		t.Fatalf("NumBlocksOf(0) = %d after its only block purged", got)
	}
	// The pinned pre-purge view is untouched.
	if p := snap1.PostingOf(sym); p == nil || len(p.A) != 3 {
		t.Fatalf("pinned pre-purge snapshot corrupted: %+v", p)
	}
}

// TestSnapshotConcurrentReaders exercises the aliasing contract under the
// race detector: reader goroutines continuously pin the latest snapshot and
// walk every posting while the owner keeps batching, removing, and
// publishing. Any write into a frozen window is a race report.
func TestSnapshotConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewCollectionStorage(false, 8, nil, 4, storage.Config{})
	workers := pool.New(4)
	c.AddBatch(randomIncrement(rng, 0, 40), workers)
	c.PublishSnapshot()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := c.ProbeView()
				sum := 0
				for sym := intern.Sym(0); int(sym) < 64; sym++ {
					if p := s.PostingOf(sym); p != nil {
						for _, id := range p.A {
							sum += id
						}
						for _, id := range p.B {
							sum += id
						}
						sum += s.NumBlocksOf(p.firstMember())
					}
				}
				if sum < 0 {
					t.Error("impossible negative id sum")
					return
				}
			}
		}()
	}
	next := 1000
	for round := 0; round < 50; round++ {
		c.AddBatch(randomIncrement(rng, next, 20), workers)
		for k := 0; k < 10; k++ {
			c.Remove(next - 1000 + k)
		}
		next += 20
		c.PublishSnapshot()
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotSurvivesSegmentRewrites pins a snapshot whose slots are spill
// markers, rewrites the shard's segment twice, and only then reads the pinned
// view — after its segment file was unlinked. It must return its own version
// of every posting, and the current snapshot the owner's.
func TestSnapshotSurvivesSegmentRewrites(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	// A one-byte budget evicts the overlay at every publish.
	c := NewCollectionStorage(false, 0, nil, 1, storage.Config{Budget: 1, Dir: dir})
	defer c.Close()
	var ids []int
	inc := randomIncrement(rng, 0, 40)
	c.AddBatch(inc, nil)
	for _, p := range inc {
		ids = append(ids, p.ID)
	}
	c.PublishSnapshot()
	pinned := c.ProbeView()

	type frozen struct{ a, b []int }
	want := make(map[intern.Sym]frozen)
	for sym := intern.Sym(0); int(sym) < c.tab.Len(); sym++ {
		if pinned.rawPostingOf(sym) != spilledMarker {
			t.Fatalf("sym %d: slot is not a spill marker after a full eviction", sym)
		}
		b := c.BlockBySym(sym)
		want[sym] = frozen{a: append([]int(nil), b.A...), b: append([]int(nil), b.B...)}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment file, found %v (%v)", segs, err)
	}

	for round := 1; round <= 2; round++ {
		more := randomIncrement(rng, 100*round, 20)
		c.AddBatch(more, nil)
		for _, p := range more {
			ids = append(ids, p.ID)
		}
		c.Remove(ids[0])
		ids = ids[1:]
		c.PublishSnapshot()
	}
	if _, err := os.Stat(segs[0]); !os.IsNotExist(err) {
		t.Fatalf("the pinned snapshot's segment %s was not unlinked (stat: %v)", segs[0], err)
	}
	if st := c.StorageStats(); st.SegmentWrites < 3 {
		t.Fatalf("want the first segment plus two rewrites, stats %+v", st)
	}

	for sym, w := range want {
		p := pinned.PostingOf(sym)
		if p == nil || fmt.Sprint(p.A) != fmt.Sprint(w.a) || fmt.Sprint(p.B) != fmt.Sprint(w.b) {
			t.Fatalf("sym %d: pinned snapshot reads %+v, want A=%v B=%v", sym, p, w.a, w.b)
		}
	}
	assertSnapEqualsOwner(t, c, ids)
}

// firstMember returns an arbitrary member ID of the posting (test helper for
// exercising NumBlocksOf against live IDs).
func (p *Posting) firstMember() int {
	if len(p.A) > 0 {
		return p.A[0]
	}
	if len(p.B) > 0 {
		return p.B[0]
	}
	return -1
}
