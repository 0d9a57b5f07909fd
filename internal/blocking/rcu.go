package blocking

import (
	"fmt"
	"slices"
	"sync"

	"pier/internal/intern"
	"pier/internal/profile"
	"pier/internal/storage"
)

// This file is the RCU-style publication layer of the collection: the owner
// goroutine batches an increment's mutations (which still synchronize on the
// shard mutexes internally) and then publishes one immutable Snap covering
// the whole collection — posting lists, registry, block count, version — with
// a single atomic pointer swap. Query goroutines pin a Snap once and read it
// without any locks for the rest of their execution; retired snapshots are
// reclaimed by the Go GC once the last reader drops them, so no epochs,
// hazard pointers, or reader registration are needed. See DESIGN.md §12 for
// the protocol and its memory-ordering argument.
//
// Publication is incremental: writers record which symbols and profile IDs
// they touched since the last publish, and PublishSnapshot clones only the
// chunks of the persistent arrays that contain dirty entries. Everything else
// is shared structurally with the previous snapshot.

const (
	postChunkBits = 6
	postChunkSize = 1 << postChunkBits // symbols per posting chunk
	regChunkBits  = 8
	regChunkSize  = 1 << regChunkBits // profile IDs per registry chunk
	// maxDenseID bounds the dense registry array: IDs in [0, maxDenseID) live
	// in chunked arrays indexed directly by ID; negative or pathologically
	// large IDs fall back to the overflow map so a single hostile ID cannot
	// force a multi-gigabyte pointer table.
	maxDenseID = 1 << 22
)

// postChunk is one immutable block of the published posting array. A nil
// element means the symbol has no live block in this snapshot.
type postChunk [postChunkSize]*Posting

// regEntry is one published registry row: the profile and the symbols of the
// blocks it was added to (dead blocks are filtered at read time, exactly like
// the owner's NumBlocksOf).
type regEntry struct {
	p    *profile.Profile
	syms []intern.Sym
}

// regChunk is one immutable block of the published registry array.
type regChunk [regChunkSize]regEntry

// Snap is one published, immutable read view of the collection. All methods
// are safe for concurrent use from any number of goroutines with zero
// synchronization; the postings it returns alias the live posting arrays in a
// frozen-length window that the writer never rewrites (appends land beyond
// the frozen length, removals copy — see Remove).
type Snap struct {
	version   uint64
	numBlocks int
	posts     []*postChunk
	regs      []*regChunk
	xreg      map[int]regEntry // overflow for negative / non-dense profile IDs

	// shardMask and redirects serve the storage seam: a chunk slot holding
	// spilledMarker means the symbol's block is unchanged since the segment
	// its shard had at publish time, and its posting is materialized on
	// demand from that segment (redirects is keyed by shard index,
	// sym & shardMask). Both are empty under the in-memory backend.
	shardMask int
	redirects map[int]*frozenShard
}

// spilledMarker is the sentinel posting installed in slots whose block is
// unchanged since its shard's segment; PostingOf resolves it through
// Snap.redirects. NumBlocksOf counts it as live without touching disk.
var spilledMarker = &Posting{}

// frozenShard lazily materializes the postings of one spill segment. It is
// shared across consecutive snapshots until the shard's segment is
// rewritten (new segment, new frozenShard), so each segment is decoded at
// most once. The decode is flat — postings in fence order beside the sorted
// keys, found by binary search — so the read path holds no map.
type frozenShard struct {
	fz    *storage.Frozen[*Block]
	once  sync.Once
	keys  []uint32
	posts []Posting
}

// posting returns the frozen posting of sym (nil if the segment has none),
// decoding the whole segment on first use. Safe for concurrent use.
func (f *frozenShard) posting(sym intern.Sym) *Posting {
	f.once.Do(func() {
		keys, blocks, err := f.fz.Load()
		if err != nil {
			panic(fmt.Sprintf("storage: loading retired spill segment: %v", err))
		}
		f.keys = keys
		f.posts = make([]Posting, len(blocks))
		for i, b := range blocks {
			// Decoded blocks are private to this handle: alias their arrays.
			f.posts[i] = Posting{Sym: b.Sym, Key: b.Key, A: b.A, B: b.B}
		}
	})
	i, ok := slices.BinarySearch(f.keys, uint32(sym))
	if !ok {
		return nil
	}
	return &f.posts[i]
}

// NumBlocks returns the number of live blocks in the snapshot (the |B| term
// of ECBS).
func (s *Snap) NumBlocks() int { return s.numBlocks }

// rawPostingOf returns the chunk slot of sym verbatim — possibly the
// spilledMarker sentinel — or nil if the symbol has no live block.
func (s *Snap) rawPostingOf(sym intern.Sym) *Posting {
	ci := int(sym) >> postChunkBits
	if ci >= len(s.posts) || s.posts[ci] == nil {
		return nil
	}
	return s.posts[ci][int(sym)&(postChunkSize-1)]
}

// PostingOf returns the snapshot's posting for sym, or nil if the symbol has
// no live block in this view. Symbols whose block was unchanged since its
// shard's segment at publish time are materialized from that segment on
// first access.
func (s *Snap) PostingOf(sym intern.Sym) *Posting {
	p := s.rawPostingOf(sym)
	if p == spilledMarker {
		fs := s.redirects[int(sym)&s.shardMask]
		if fs == nil {
			panic(fmt.Sprintf("blocking: snapshot slot for symbol %d is marked spilled but has no redirect", sym))
		}
		return fs.posting(sym)
	}
	return p
}

// AppendPostings appends the live postings of the given symbols to buf,
// skipping symbols with no live block, and returns the extended slice: no
// locks, no copies — the returned postings are immutable views shared with
// the snapshot.
func (s *Snap) AppendPostings(buf []*Posting, syms []intern.Sym) []*Posting {
	for _, sym := range syms {
		if p := s.PostingOf(sym); p != nil {
			buf = append(buf, p)
		}
	}
	return buf
}

// regOf returns the published registry row for id (zero row if unknown).
func (s *Snap) regOf(id int) regEntry {
	if id >= 0 && id < maxDenseID {
		ci := id >> regChunkBits
		if ci >= len(s.regs) || s.regs[ci] == nil {
			return regEntry{}
		}
		return s.regs[ci][id&(regChunkSize-1)]
	}
	return s.xreg[id]
}

// Profile returns the registered profile with the given ID, or nil.
func (s *Snap) Profile(id int) *profile.Profile { return s.regOf(id).p }

// NumBlocksOf returns the number of live blocks containing profile id (the
// |B(p)| term of meta-blocking schemes; 0 for unknown IDs), counted against
// this snapshot's posting view (a block purged before publication counts as
// dead for every profile listing it, mirroring the owner's NumBlocksOf). A
// spill marker counts as live without materializing the segment —
// weighting's |B(p)| terms stay disk-free.
func (s *Snap) NumBlocksOf(id int) int {
	n := 0
	for _, sym := range s.regOf(id).syms {
		if s.rawPostingOf(sym) != nil {
			n++
		}
	}
	return n
}

// emptySnap is the view of a collection that has never published: the zero
// Snap reads as an empty index (every accessor bounds-checks its chunk tables).
var emptySnap = new(Snap)

// ProbeView returns the read view for a query goroutine: the most recently
// published snapshot, or an empty one if the collection has never published.
// Callers pin the returned Snap for their whole query so every lookup —
// postings, weights, profiles — observes one consistent version. Safe from
// any goroutine.
func (c *Collection) ProbeView() *Snap {
	if s := c.snap.Load(); s != nil {
		return s
	}
	return emptySnap
}

// PublishSnapshot builds and atomically publishes an immutable snapshot of
// the current collection state. It must be called by the owner goroutine at a
// quiescent point (no AddBatch fan-out in flight) — typically once per
// ingested increment. The first call switches the collection into
// snapshot-tracking mode: from then on writers record dirty symbols/IDs and
// removals copy posting lists instead of editing them in place, so published
// views stay frozen. Collections that never call PublishSnapshot pay nothing.
func (c *Collection) PublishSnapshot() {
	var s *Snap
	if !c.snapOn {
		c.snapOn = true
		s = c.buildFullSnap()
	} else {
		s = c.buildIncrementalSnap(c.snap.Load())
	}
	c.finishSnapSpill(s)
	c.snap.Store(s)
}

// postView freezes the current live block of sym into an immutable posting
// view, or nil if the block is missing or purged. The member slices alias the
// live arrays with length and capacity pinned: the writer only ever appends
// beyond the pinned length or replaces the whole slice (CoW removal), so the
// window the view exposes is immutable.
func (c *Collection) postView(sym intern.Sym) *Posting {
	b, ok := c.getBlock(sym)
	if !ok {
		return nil
	}
	return freezePosting(sym, b)
}

// freezePosting builds the immutable frozen-length view of one live block.
func freezePosting(sym intern.Sym, b *Block) *Posting {
	return &Posting{
		Sym: sym,
		Key: b.Key,
		A:   b.A[:len(b.A):len(b.A)],
		B:   b.B[:len(b.B):len(b.B)],
	}
}

// regView freezes the current registry row of id (zero row if unregistered).
// ofProf slices are written once at registration and never edited in place,
// so aliasing them is safe.
func (c *Collection) regView(id int) regEntry {
	p, ok := c.profiles[id]
	if !ok {
		return regEntry{}
	}
	return regEntry{p: p, syms: c.ofProf[id]}
}

// buildFullSnap walks the whole collection. Used once, at the first publish.
// A shard with a spill segment is served from it — every live symbol gets a
// marker, read from always-resident metadata without faulting anything in —
// except for the blocks newer than the segment, which are frozen directly
// like every block of a shard without one.
func (c *Collection) buildFullSnap() *Snap {
	s := &Snap{version: c.version, shardMask: int(c.mask)}
	nSyms := c.tab.Len()
	s.posts = make([]*postChunk, (nSyms+postChunkSize-1)>>postChunkBits)
	put := func(sym intern.Sym, p *Posting) {
		ci := int(sym) >> postChunkBits
		if s.posts[ci] == nil {
			s.posts[ci] = new(postChunk)
		}
		slot := &s.posts[ci][int(sym)&(postChunkSize-1)]
		if *slot == nil {
			s.numBlocks++
		}
		*slot = p
	}
	// Rewrites logged before tracking began are covered by reading every
	// shard's current segment below.
	c.store.TakeRewritten()
	for si := 0; si < c.store.NumShards(); si++ {
		if fz := c.store.Frozen(si); fz != nil {
			if s.redirects == nil {
				s.redirects = make(map[int]*frozenShard)
			}
			s.redirects[si] = &frozenShard{fz: fz}
			c.store.RangeMeta(si, func(key uint32, _ storage.Meta) bool {
				put(intern.Sym(key), spilledMarker)
				return true
			})
		}
		c.store.RangeNewer(si, func(key uint32, b *Block) bool {
			put(intern.Sym(key), freezePosting(intern.Sym(key), b))
			return true
		})
	}
	for id := range c.profiles {
		if id >= 0 && id < maxDenseID {
			ci := id >> regChunkBits
			if ci >= len(s.regs) {
				grown := make([]*regChunk, ci+1)
				copy(grown, s.regs)
				s.regs = grown
			}
			if s.regs[ci] == nil {
				s.regs[ci] = new(regChunk)
			}
			s.regs[ci][id&(regChunkSize-1)] = c.regView(id)
		} else {
			if s.xreg == nil {
				s.xreg = make(map[int]regEntry)
			}
			s.xreg[id] = c.regView(id)
		}
	}
	return s
}

// buildIncrementalSnap clones prev's chunk pointer tables and rebuilds only
// the chunks containing entries dirtied since the last publish, consuming the
// dirty logs. Cost is proportional to the increment, not the collection.
func (c *Collection) buildIncrementalSnap(prev *Snap) *Snap {
	s := &Snap{
		version:   c.version,
		numBlocks: prev.numBlocks,
		shardMask: prev.shardMask,
		redirects: prev.redirects, // shared; finishSnapSpill clones on write
	}

	nChunks := (c.tab.Len() + postChunkSize - 1) >> postChunkBits
	if nChunks < len(prev.posts) {
		nChunks = len(prev.posts)
	}
	s.posts = make([]*postChunk, nChunks)
	copy(s.posts, prev.posts)
	cloned := make(map[int]struct{})
	seen := make(map[intern.Sym]struct{})
	for si := range c.shards {
		sh := &c.shards[si]
		for _, sym := range sh.dirty {
			if _, dup := seen[sym]; dup {
				continue
			}
			seen[sym] = struct{}{}
			ci := int(sym) >> postChunkBits
			if _, ok := cloned[ci]; !ok {
				nc := new(postChunk)
				if ci < len(prev.posts) && prev.posts[ci] != nil {
					*nc = *prev.posts[ci]
				}
				s.posts[ci] = nc
				cloned[ci] = struct{}{}
			}
			slot := int(sym) & (postChunkSize - 1)
			old := s.posts[ci][slot]
			now := c.postView(sym)
			s.posts[ci][slot] = now
			if old == nil && now != nil {
				s.numBlocks++
			} else if old != nil && now == nil {
				s.numBlocks--
			}
		}
		sh.dirty = sh.dirty[:0]
	}

	s.regs = prev.regs
	s.xreg = prev.xreg
	regCloned := make(map[int]struct{})
	var xdirty []int
	for _, id := range c.dirtyReg {
		if id < 0 || id >= maxDenseID {
			xdirty = append(xdirty, id)
			continue
		}
		ci := id >> regChunkBits
		if _, ok := regCloned[ci]; !ok {
			if len(regCloned) == 0 {
				// First dense dirty ID: detach the pointer table from prev.
				grown := ci + 1
				if grown < len(prev.regs) {
					grown = len(prev.regs)
				}
				s.regs = make([]*regChunk, grown)
				copy(s.regs, prev.regs)
			} else if ci >= len(s.regs) {
				grown := make([]*regChunk, ci+1)
				copy(grown, s.regs)
				s.regs = grown
			}
			nc := new(regChunk)
			if ci < len(prev.regs) && prev.regs[ci] != nil {
				*nc = *prev.regs[ci]
			}
			s.regs[ci] = nc
			regCloned[ci] = struct{}{}
		}
		s.regs[ci][id&(regChunkSize-1)] = c.regView(id)
	}
	if len(xdirty) > 0 {
		xr := make(map[int]regEntry, len(prev.xreg)+len(xdirty))
		for id, e := range prev.xreg {
			xr[id] = e
		}
		for _, id := range xdirty {
			if e := c.regView(id); e.p != nil {
				xr[id] = e
			} else {
				delete(xr, id)
			}
		}
		s.xreg = xr
	}
	c.dirtyReg = c.dirtyReg[:0]
	return s
}

// finishSnapSpill is the storage half of a publish: it lets the spill
// backend enforce its budget now that the snapshot is built, then re-marks
// the slots of every shard whose overlay was evicted into a new segment and
// points the shard's redirect at that segment. The order matters — build
// first (the blocks the increment dirtied are resident, having just been
// mutated), evict second, re-mark third — so the published view never
// retains the heap image of blocks the store just dropped. Until its next
// rewrite a shard's direct views are exactly its blocks newer than its
// segment, and its markers the rest. Under the in-memory backend the whole
// call is a no-op.
func (c *Collection) finishSnapSpill(s *Snap) {
	c.store.Maintain()
	rewritten := c.store.TakeRewritten()
	if len(rewritten) == 0 {
		return
	}
	redirects := make(map[int]*frozenShard, len(s.redirects)+len(rewritten))
	for si, fs := range s.redirects {
		redirects[si] = fs
	}
	s.redirects = redirects
	// mark sets one live symbol's slot — already filled, with a view or a
	// marker — to spilledMarker, cloning each touched chunk once (chunks may
	// be structurally shared with the previous snapshot).
	cloned := make(map[int]struct{})
	mark := func(sym intern.Sym) {
		ci := int(sym) >> postChunkBits
		if _, ok := cloned[ci]; !ok {
			nc := new(postChunk)
			*nc = *s.posts[ci]
			s.posts[ci] = nc
			cloned[ci] = struct{}{}
		}
		s.posts[ci][int(sym)&(postChunkSize-1)] = spilledMarker
	}
	for _, si := range rewritten {
		fz := c.store.Frozen(si)
		if fz == nil {
			delete(redirects, si) // the rewrite dropped the shard's last block
			continue
		}
		// Every live symbol of the shard, via its always-resident metadata —
		// no disk access on the publish path.
		c.store.RangeMeta(si, func(key uint32, _ storage.Meta) bool {
			mark(intern.Sym(key))
			return true
		})
		redirects[si] = &frozenShard{fz: fz}
	}
}
