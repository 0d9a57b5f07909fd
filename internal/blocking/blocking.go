// Package blocking implements schema-agnostic token blocking for incremental
// ER, the block-cleaning techniques the paper inherits from its incremental
// framework reference [17] — block purging of oversized blocks and block
// ghosting — and the bookkeeping (profile registry, profile→blocks index)
// that the prioritization strategies need.
//
// Token blocking places a profile into one block per token appearing in any
// of its attribute values. It is schema-agnostic: attribute names are
// ignored, so profiles with entirely different schemas land in shared blocks
// whenever their values overlap. Blocking is *incremental*: Add integrates a
// single profile into the live block collection in time proportional to its
// token count, never recomputing existing blocks.
//
// Internally every blocking key is interned to a dense uint32 symbol
// (internal/intern) and the block index is sharded by symbol (power-of-two
// shard count, one lock per shard): posting lists, purge tombstones and the
// profile→blocks index all operate on symbols, and AddBatch fans an
// increment's postings out with one worker per shard while reproducing the
// serial Add transition exactly. See DESIGN.md §10.
package blocking

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pier/internal/intern"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// Block is the set of profiles sharing one token, kept per source so that
// Clean-Clean ER can restrict comparisons to cross-source pairs.
type Block struct {
	// Key is the token that defines the block.
	Key string
	// Sym is the interned symbol of Key in the owning collection's table.
	Sym intern.Sym
	// A and B hold the profile IDs per source, in arrival order. Dirty ER
	// uses A only.
	A, B []int
}

// Size returns the number of profiles in the block.
func (b *Block) Size() int { return len(b.A) + len(b.B) }

// Comparisons returns ||b||, the number of distinct pairwise comparisons the
// block can generate: |A|·|B| for Clean-Clean, n(n-1)/2 for Dirty.
func (b *Block) Comparisons(cleanClean bool) int {
	if cleanClean {
		return len(b.A) * len(b.B)
	}
	n := b.Size()
	return n * (n - 1) / 2
}

// shard is one partition of the block index: the purge tombstones and dirty
// log of every symbol s with s & mask == shard index. The posting lists
// themselves live in the collection's storage.PostingStore under the same
// shard layout (store.go). The mutex serializes concurrent ingest into the
// shard (AddBatch runs one worker per shard); readers follow the
// collection-wide single-writer contract instead of locking.
type shard struct {
	mu     sync.Mutex
	purged map[intern.Sym]struct{}
	// dirty logs the symbols mutated since the last PublishSnapshot, appended
	// under mu by whichever worker owns the shard; empty (and never appended
	// to) while the collection is not in snapshot-tracking mode.
	dirty []intern.Sym
}

// Collection is an incrementally maintained block collection plus the
// profile registry for all profiles seen so far. Mutations follow a
// single-writer contract: only the pipeline's owner goroutine calls Add,
// AddBatch, or Remove (AddBatch's internal fan-out is the one exception, and
// it synchronizes on the shard mutexes). The owner's own reads therefore stay
// lock-free. Concurrent *readers* on other goroutines — the online query path
// — never touch the live state: they pin the immutable snapshot the owner
// last published (ProbeView, rcu.go) and resolve probe keys through the
// concurrency-safe symbol table (ProbeSyms, probe.go).
type Collection struct {
	cleanClean   bool
	maxBlockSize int // purge threshold; 0 disables purging
	keyer        Keyer

	tab    *intern.Table
	shards []shard
	mask   intern.Sym // len(shards)-1; shard of sym s is s & mask
	// store holds the posting lists, sharded like the lock shards. The
	// default backend is a plain in-memory map; NewCollectionStorage can
	// select the budgeted disk-spill backend instead (see store.go).
	store storage.PostingStore[*Block]

	// The profile registry is owner-only state, like every other read of the
	// live index; query goroutines see it through published snapshots.
	profiles map[int]*profile.Profile
	ofProf   map[int][]intern.Sym // profile ID -> symbols of blocks it was added to

	version uint64 // bumped on every mutation, for cache invalidation

	// RCU publication state (rcu.go). snapOn is set once by the owner's first
	// PublishSnapshot and read by shard workers afterwards; the pool's fan-out
	// synchronization orders that write before every worker read. dirtyReg is
	// owner-only (registry mutations never run on workers).
	snapOn   bool
	snap     atomic.Pointer[Snap]
	dirtyReg []int

	batchSyms [][]intern.Sym // AddBatch scratch: per-profile interned symbols
	batchKept [][]bool       // AddBatch scratch: per-token kept flags
}

// Keyer extracts the blocking keys of a profile. The default is
// schema-agnostic token blocking (Profile.Tokens); profile.QGramKeys and
// profile.SuffixKeys provide typo-robust alternatives. Keyers must return
// duplicate-free key lists (all built-in ones do).
type Keyer func(*profile.Profile) []string

// NewCollection returns an empty collection. cleanClean selects Clean-Clean
// ER (cross-source comparisons only); maxBlockSize > 0 enables block purging:
// any block growing beyond that many profiles is dropped entirely and stays
// dropped (its token is too frequent to be discriminative).
//
// It is the default-everything constructor — token blocking, the default
// shard count, the in-memory backend; NewCollectionStorage makes each of
// those explicit.
func NewCollection(cleanClean bool, maxBlockSize int) *Collection {
	return NewCollectionStorage(cleanClean, maxBlockSize, nil, 0, storage.Config{})
}

// normalizeShards resolves a requested shard count: it is rounded up to a
// power of two and clamped to [1, 256]; shards <= 0 selects the default
// heuristic, the smallest power of two >= GOMAXPROCS, capped at 64 (one
// ingest worker per shard saturates the CPUs; more shards only buy finer
// purge-lock granularity). The shard count is an ingest concurrency knob,
// never a semantic one: the collection's observable state is identical for
// every value.
func normalizeShards(shards int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 64 {
			shards = 64
		}
	}
	if shards > 256 {
		shards = 256
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	return n
}

// CleanClean reports whether the collection runs a Clean-Clean ER task.
func (c *Collection) CleanClean() bool { return c.cleanClean }

// NumShards returns the number of index shards (a power of two).
func (c *Collection) NumShards() int { return len(c.shards) }

// shardOf returns the shard owning sym.
func (c *Collection) shardOf(sym intern.Sym) *shard { return &c.shards[sym&c.mask] }

// addSym applies the per-token ingest transition to sh (which must own sym):
// skip if tombstoned, create-or-append the posting, purge on overflow. It
// reports whether the symbol is a live block key for the added profile — the
// kept condition of the profile→blocks index. Callers hold sh.mu when the
// collection is ingesting concurrently.
func (c *Collection) addSym(sh *shard, p *profile.Profile, sym intern.Sym) bool {
	if _, dead := sh.purged[sym]; dead {
		return false
	}
	if c.snapOn {
		sh.dirty = append(sh.dirty, sym)
	}
	b, ok := c.getBlock(sym)
	if !ok {
		b = &Block{Key: c.tab.StringOf(sym), Sym: sym}
	}
	// The A/B split only means something for Clean-Clean ER; Dirty ER files
	// every profile under A, whatever its Source, so the block scans that
	// enumerate a Dirty block's pairs from A alone see all of them.
	if c.cleanClean && p.Source == profile.SourceB {
		b.B = append(b.B, p.ID)
	} else {
		b.A = append(b.A, p.ID)
	}
	if c.maxBlockSize > 0 && b.Size() > c.maxBlockSize {
		if ok {
			c.delBlock(sym)
		}
		sh.purged[sym] = struct{}{}
		return false
	}
	if ok {
		c.touchBlock(sym, b)
	} else {
		c.putBlock(sym, b)
	}
	return true
}

// Add integrates p into the collection: p is registered and appended to the
// block of every one of its tokens, creating blocks as needed and purging any
// block that exceeds the size threshold. It returns the number of tokens
// indexed (the unit of the blocking cost model). Adding the same profile ID
// twice is a programming error and panics.
func (c *Collection) Add(p *profile.Profile) int {
	if _, dup := c.profiles[p.ID]; dup {
		panic(fmt.Sprintf("blocking: duplicate profile ID %d", p.ID))
	}
	c.profiles[p.ID] = p
	c.version++
	toks := c.keyer(p)
	syms := make([]intern.Sym, 0, len(toks))
	for _, tok := range toks {
		sym := c.tab.Intern(tok)
		sh := c.shardOf(sym)
		sh.mu.Lock()
		kept := c.addSym(sh, p, sym)
		sh.mu.Unlock()
		if kept {
			syms = append(syms, sym)
		}
	}
	c.ofProf[p.ID] = syms
	if c.snapOn {
		c.dirtyReg = append(c.dirtyReg, p.ID)
	}
	c.maintainStore()
	return len(toks)
}

// addPrepared is Add over symbols already interned by PrepareBatch: the same
// registration, per-token transition, and token count, minus the tokenize+
// intern step.
func (c *Collection) addPrepared(p *profile.Profile, syms []intern.Sym) int {
	if _, dup := c.profiles[p.ID]; dup {
		panic(fmt.Sprintf("blocking: duplicate profile ID %d", p.ID))
	}
	c.profiles[p.ID] = p
	c.version++
	kept := make([]intern.Sym, 0, len(syms))
	for _, sym := range syms {
		sh := c.shardOf(sym)
		sh.mu.Lock()
		ok := c.addSym(sh, p, sym)
		sh.mu.Unlock()
		if ok {
			kept = append(kept, sym)
		}
	}
	c.ofProf[p.ID] = kept
	if c.snapOn {
		c.dirtyReg = append(c.dirtyReg, p.ID)
	}
	c.maintainStore()
	return len(syms)
}

// addBatchParallelMin is the smallest increment worth the batch fan-out;
// below it AddBatch degenerates to serial Add calls.
const addBatchParallelMin = 4

// PrepareBatch tokenizes the increment's profiles and interns their blocking
// keys, returning one symbol slice per profile for AddBatchPrepared. It
// touches only the symbol table — which is concurrency-safe and append-only —
// never the shards or the registry, so a pipelined ingest stage may prepare
// increment N+1 while the owner goroutine is still indexing and weighing
// increment N. Results are freshly allocated (the caller hands them across a
// goroutine boundary).
func (c *Collection) PrepareBatch(delta []*profile.Profile) [][]intern.Sym {
	symsOf := make([][]intern.Sym, len(delta))
	for i, p := range delta {
		toks := c.keyer(p)
		symsOf[i] = c.tab.InternAll(toks, make([]intern.Sym, 0, len(toks)))
	}
	return symsOf
}

// AddBatch integrates a whole increment, fanning the work out over workers:
// first tokenization and symbol interning per profile, then posting-list
// appends with one worker per shard. Each shard worker walks the increment in
// arrival order and applies the exact serial Add transition to the symbols it
// owns, so the resulting collection — blocks, member order, purge tombstones,
// profile→blocks index — is bit-for-bit identical to len(delta) serial Add
// calls, for every worker and shard count. It returns the total number of
// tokens indexed. A nil or serial pool, a single shard, or a tiny increment
// all fall back to serial Add.
func (c *Collection) AddBatch(delta []*profile.Profile, workers *pool.Pool) int {
	return c.AddBatchPrepared(delta, nil, workers)
}

// AddBatchPrepared is AddBatch over symbols already interned by PrepareBatch
// (symsOf[i] are delta[i]'s keys, in key order); a nil symsOf makes it intern
// in place, which is exactly AddBatch. The resulting collection state is
// identical either way — preparation only moves the tokenize+intern work onto
// another goroutine's clock.
func (c *Collection) AddBatchPrepared(delta []*profile.Profile, symsOf [][]intern.Sym, workers *pool.Pool) int {
	if symsOf != nil && len(symsOf) != len(delta) {
		panic(fmt.Sprintf("blocking: %d prepared symbol slices for %d profiles", len(symsOf), len(delta)))
	}
	if workers == nil || workers.Serial() || len(c.shards) == 1 || len(delta) < addBatchParallelMin {
		total := 0
		for i, p := range delta {
			if symsOf != nil {
				total += c.addPrepared(p, symsOf[i])
			} else {
				total += c.Add(p)
			}
		}
		return total
	}
	var keptOf [][]bool
	if symsOf == nil {
		symsOf, keptOf = c.batchScratch(len(delta))
		workers.ForEach(len(delta), func(i int) {
			symsOf[i] = c.tab.InternAll(c.keyer(delta[i]), symsOf[i][:0])
		})
	} else {
		_, keptOf = c.batchScratch(len(delta))
	}
	total := 0
	for i, p := range delta {
		if _, dup := c.profiles[p.ID]; dup {
			panic(fmt.Sprintf("blocking: duplicate profile ID %d", p.ID))
		}
		c.profiles[p.ID] = p
		total += len(symsOf[i])
		if cap(keptOf[i]) < len(symsOf[i]) {
			keptOf[i] = make([]bool, len(symsOf[i]))
		}
		keptOf[i] = keptOf[i][:len(symsOf[i])]
	}
	c.version += uint64(len(delta))
	workers.ForEach(len(c.shards), func(si int) {
		sh := &c.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		owned := intern.Sym(si)
		for i, p := range delta {
			syms := symsOf[i]
			kf := keptOf[i]
			for j, sym := range syms {
				if sym&c.mask != owned {
					continue
				}
				// Every slot is owned by exactly one shard worker, which is
				// its only writer; the symbol slices stay read-only here.
				kf[j] = c.addSym(sh, p, sym)
			}
		}
	})
	for i, p := range delta {
		syms := symsOf[i]
		kept := make([]intern.Sym, 0, len(syms))
		for j, sym := range syms {
			if keptOf[i][j] {
				kept = append(kept, sym)
			}
		}
		c.ofProf[p.ID] = kept
		if c.snapOn {
			c.dirtyReg = append(c.dirtyReg, p.ID)
		}
	}
	c.maintainStore()
	return total
}

// batchScratch returns the reusable per-profile symbol and kept-flag buffers
// for an increment of n profiles, growing the scratch as needed.
func (c *Collection) batchScratch(n int) ([][]intern.Sym, [][]bool) {
	if cap(c.batchSyms) < n {
		grown := make([][]intern.Sym, n)
		copy(grown, c.batchSyms)
		c.batchSyms = grown
		grownKept := make([][]bool, n)
		copy(grownKept, c.batchKept)
		c.batchKept = grownKept
	}
	c.batchSyms = c.batchSyms[:n]
	c.batchKept = c.batchKept[:n]
	return c.batchSyms, c.batchKept
}

// Remove evicts a profile from the collection: it is deleted from the
// registry and from every live block it occupies (emptied blocks are
// dropped). Long-running streams use eviction to bound memory (the paper's
// incrementality requirement); prioritization strategies may still hold
// queued comparisons that reference the evicted ID — the pipeline runners
// skip comparisons whose profiles are gone. Removing an unknown ID is a
// no-op.
func (c *Collection) Remove(id int) {
	if _, ok := c.profiles[id]; !ok {
		return
	}
	for _, sym := range c.ofProf[id] {
		sh := c.shardOf(sym)
		sh.mu.Lock()
		b, live := c.getBlock(sym)
		if !live {
			sh.mu.Unlock()
			continue
		}
		if c.snapOn {
			// Published snapshots alias the posting arrays: removal must
			// replace the slice, never shift elements a pinned view can see.
			sh.dirty = append(sh.dirty, sym)
			b.A = removeIDCopy(b.A, id)
			b.B = removeIDCopy(b.B, id)
		} else {
			b.A = removeID(b.A, id)
			b.B = removeID(b.B, id)
		}
		if b.Size() == 0 {
			c.delBlock(sym)
		} else {
			c.putBlock(sym, b)
		}
		sh.mu.Unlock()
	}
	delete(c.ofProf, id)
	delete(c.profiles, id)
	if c.snapOn {
		c.dirtyReg = append(c.dirtyReg, id)
	}
	c.version++
	c.maintainStore()
}

// removeID deletes the first occurrence of id, preserving order.
func removeID(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// removeIDCopy is removeID into a fresh array, leaving the input untouched
// for snapshot views that still alias it. A miss returns the input unchanged.
func removeIDCopy(ids []int, id int) []int {
	for i, v := range ids {
		if v == id {
			out := make([]int, 0, len(ids)-1)
			out = append(out, ids[:i]...)
			return append(out, ids[i+1:]...)
		}
	}
	return ids
}

// Block returns the live block for key, or nil if it does not exist or was
// purged.
func (c *Collection) Block(key string) *Block {
	sym, ok := c.tab.Sym(key)
	if !ok {
		return nil
	}
	b, _ := c.getBlock(sym)
	return b
}

// BlockBySym returns the live block for an interned symbol, or nil. It is the
// hot-path variant of Block: no string hash, one shard-map lookup.
func (c *Collection) BlockBySym(sym intern.Sym) *Block {
	b, _ := c.getBlock(sym)
	return b
}

// BlocksOf returns the live blocks containing profile id, in token order of
// the profile. Blocks purged after the profile was added are skipped.
func (c *Collection) BlocksOf(id int) []*Block {
	return c.AppendBlocksOf(id, make([]*Block, 0, len(c.ofProf[id])))
}

// AppendBlocksOf appends the live blocks containing profile id to buf in
// token order and returns the extended slice. Reusing buf across calls makes
// the per-profile block enumeration of candidate generation allocation-free.
func (c *Collection) AppendBlocksOf(id int, buf []*Block) []*Block {
	for _, sym := range c.ofProf[id] {
		if b, ok := c.getBlock(sym); ok {
			buf = append(buf, b)
		}
	}
	return buf
}

// AppendLiveSymsOf appends the symbols of the live blocks containing profile
// id to buf and returns the extended slice. Reusing buf across calls makes
// the enumeration allocation-free — the point of this method over BlocksOf
// for per-pair weighing, which runs once per candidate comparison.
func (c *Collection) AppendLiveSymsOf(id int, buf []intern.Sym) []intern.Sym {
	for _, sym := range c.ofProf[id] {
		if c.hasBlock(sym) {
			buf = append(buf, sym)
		}
	}
	return buf
}

// NumBlocksOf returns the number of live blocks containing profile id. It is
// the |B(p)| term of meta-blocking weighting schemes.
func (c *Collection) NumBlocksOf(id int) int {
	n := 0
	for _, sym := range c.ofProf[id] {
		if c.hasBlock(sym) {
			n++
		}
	}
	return n
}

// Profile returns the registered profile with the given ID, or nil.
func (c *Collection) Profile(id int) *profile.Profile { return c.profiles[id] }

// NumProfiles returns the number of registered profiles.
func (c *Collection) NumProfiles() int { return len(c.profiles) }

// ProfileIDs returns all registered profile IDs in ascending order. It is
// used by the batch baselines that must (re)consider the full dataset.
func (c *Collection) ProfileIDs() []int {
	ids := make([]int, 0, len(c.profiles))
	for id := range c.profiles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// NumBlocks returns the number of live blocks.
func (c *Collection) NumBlocks() int {
	n := 0
	for si := 0; si < c.store.NumShards(); si++ {
		n += c.store.Len(si)
	}
	return n
}

// Version returns a counter bumped on every mutation; callers use it to
// invalidate caches derived from the collection (e.g. sorted block lists).
func (c *Collection) Version() uint64 { return c.version }

// blockStat is the meta-only image of one live block, enough for the sorted
// scans: symbol, key string, and size — readable without faulting spilled
// shards in.
type blockStat struct {
	sym  intern.Sym
	key  string
	size int
}

// sortedStatsBySize returns the meta of all live blocks sorted by ascending
// size, ties broken by key *string* — never by raw symbol value, which
// depends on arrival order — so scan order is stable across ingest
// permutations (and across storage backends).
func (c *Collection) sortedStatsBySize() []blockStat {
	stats := make([]blockStat, 0, c.NumBlocks())
	for si := 0; si < c.store.NumShards(); si++ {
		c.store.RangeMeta(si, func(key uint32, m storage.Meta) bool {
			sym := intern.Sym(key)
			stats = append(stats, blockStat{sym: sym, key: c.tab.StringOf(sym), size: m.Size()})
			return true
		})
	}
	// Keys are unique, so the order is total and an unstable sort has one
	// result. slices.SortFunc because this runs on every idle tick after the
	// collection moved: sort.Slice's reflect-based swapper was most of it.
	slices.SortFunc(stats, func(a, b blockStat) int {
		if c := cmp.Compare(a.size, b.size); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	return stats
}

// SortedKeysBySize returns all live block keys sorted by ascending block
// size, ties broken by key for determinism. The slice is freshly allocated.
func (c *Collection) SortedKeysBySize() []string {
	stats := c.sortedStatsBySize()
	keys := make([]string, len(stats))
	for i, st := range stats {
		keys[i] = st.key
	}
	return keys
}

// SortedSymsBySize is SortedKeysBySize resolved to symbols — the hot-path
// form the strategies' fallback scans keep as their cursor.
func (c *Collection) SortedSymsBySize() []intern.Sym {
	stats := c.sortedStatsBySize()
	syms := make([]intern.Sym, len(stats))
	for i, st := range stats {
		syms[i] = st.sym
	}
	return syms
}

// SortedKeysByName returns all live block keys in lexicographic order — a
// deterministic stand-in for the "arbitrary" block order of plain batch ER.
func (c *Collection) SortedKeysByName() []string {
	keys := make([]string, 0, c.NumBlocks())
	for si := 0; si < c.store.NumShards(); si++ {
		c.store.RangeMeta(si, func(key uint32, _ storage.Meta) bool {
			keys = append(keys, c.tab.StringOf(intern.Sym(key)))
			return true
		})
	}
	sort.Strings(keys)
	return keys
}

// FilterTopRAppend implements block filtering (Papadakis et al., PVLDB 2016,
// the paper's survey reference [29]): keep a profile only in the
// ceil(r·|B(p)|) smallest of its blocks, removing it from the largest — least
// informative — ones. Like Ghost it is applied per profile at
// candidate-generation time; ratio >= 1 or <= 0 disables filtering, and then
// it returns blocks unchanged without touching buf. Otherwise the result is
// built in buf (which may be nil), so reusing buf makes per-profile filtering
// allocation-free. The input slice is not modified.
func FilterTopRAppend(buf, blocks []*Block, ratio float64) []*Block {
	if ratio <= 0 || ratio >= 1 || len(blocks) == 0 {
		return blocks
	}
	keep := int(math.Ceil(ratio * float64(len(blocks))))
	if keep >= len(blocks) {
		// Copy even when nothing is dropped: with filtering enabled the
		// result is always buf-backed, so callers can retain it as scratch
		// without aliasing the input's backing array.
		return append(buf, blocks...)
	}
	sorted := append(buf, blocks...)
	sort.Slice(sorted, func(i, j int) bool {
		si, sj := sorted[i].Size(), sorted[j].Size()
		if si != sj {
			return si < sj
		}
		return sorted[i].Key < sorted[j].Key
	})
	return sorted[:keep]
}

// Ghost applies block ghosting ([17], §4 of the paper) to the blocks of a
// single profile: with b_min the smallest block of the slice, only blocks b
// with |b| <= |b_min|/beta are kept — the most discriminative blocks for the
// profile. beta must be in (0, 1]; beta == 1 keeps only blocks as small as
// b_min, smaller beta keeps proportionally larger blocks, and beta <= 0
// disables ghosting. The input slice is not modified.
func Ghost(blocks []*Block, beta float64) []*Block {
	if beta <= 0 || len(blocks) == 0 {
		return blocks
	}
	return GhostAppend(make([]*Block, 0, len(blocks)), blocks, beta)
}

// GhostAppend is Ghost appending the kept blocks to buf (which may be nil);
// when ghosting is disabled it returns blocks unchanged without touching buf.
// Reusing buf makes per-profile ghosting allocation-free.
func GhostAppend(buf, blocks []*Block, beta float64) []*Block {
	if beta <= 0 || len(blocks) == 0 {
		return blocks
	}
	min := blocks[0].Size()
	for _, b := range blocks[1:] {
		if s := b.Size(); s < min {
			min = s
		}
	}
	limit := float64(min) / beta
	for _, b := range blocks {
		if float64(b.Size()) <= limit {
			buf = append(buf, b)
		}
	}
	return buf
}
