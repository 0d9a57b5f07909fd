package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/bloom"
	"pier/internal/intern"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/queue"
)

// IPBS is Incremental Progressive Block Scheduling (Algorithm 3), the
// block-centric PIER strategy: comparisons are emitted block by block, the
// smallest pending block first, under the hypothesis that small blocks are
// the most likely to contain duplicates. Within a block, comparisons are
// ordered by the weighting scheme.
//
// Two global indexes track pending work: the cardinality index CI maps a
// block to the number of unexecuted comparisons contributed by profiles that
// arrived since the block was last processed, and the profile index PI maps a
// block to those unexecuted profiles. The paper's pseudo-code initializes CI
// entries to +∞ and resets processed blocks back to +∞/∅; we implement the
// equivalent, simpler reading — a block is *inactive* (absent from CI/PI)
// until a new profile lands in it, and processing a block deactivates it —
// which makes line 4's CI(b) ← CI(b) + |b| − 1 well defined.
//
// The comparison filter CF, a scalable Bloom filter per the paper's reference
// [16], suppresses redundant pair generation across block re-emissions.
type IPBS struct {
	cfg   Config
	index *queue.Bounded[metablocking.Comparison]

	// InvertRefill flips the ambiguous refill condition of Algorithm 3
	// line 9 (see DESIGN.md): instead of refilling when the index top
	// comes from a block *smaller* than b_min (the literal pseudo-code),
	// refill when it comes from a block at least as large. Used by the
	// BenchmarkAblationIPBSRefill ablation; leave false for the paper's
	// behavior.
	InvertRefill bool

	ci map[intern.Sym]int   // active block symbol -> pending comparison count
	pi map[intern.Sym][]int // active block symbol -> unexecuted profile IDs
	// piFree recycles the backing arrays of deactivated PI entries: blocks
	// churn through activate/emit cycles constantly, so reusing the ID slices
	// keeps steady-state registration allocation-free. Contents are scratch
	// only — reuse never changes what a PI entry holds, just its capacity.
	piFree [][]int
	// piSlab carves the initial arrays of freshly activated PI entries out of
	// one shared allocation (capacity-limited sub-slices, so growth beyond the
	// carve reallocates individually and never stomps a neighbor).
	piSlab []int
	// minHeap orders active blocks by CI count (ties by key string, so the
	// order is independent of symbol assignment) with lazy invalidation:
	// stale entries are skipped when popped.
	minHeap *queue.Heap[ciEntry]

	// blocksBuf is reusable per-profile block-enumeration scratch.
	blocksBuf []*blocking.Block

	// cf suppresses redundant pair generation; an exact set under
	// Config.ExactFilters, since a Bloom false positive here permanently
	// drops a never-generated comparison.
	cf bloom.Membership

	// weigher is the reusable per-pair CBS weighing kernel of emitBlock
	// (anchor-swept neighbor counts, O(1) per partner); I-PBS is
	// single-writer, so one scratch instance per strategy suffices.
	weigher metablocking.Kernel
}

type ciEntry struct {
	count int
	sym   intern.Sym
	key   string // resolved once at push; ties order by string, not symbol
}

func ciLess(a, b ciEntry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.key < b.key
}

// NewIPBS returns an I-PBS strategy with the given configuration.
func NewIPBS(cfg Config) *IPBS {
	return &IPBS{
		cfg:     cfg,
		index:   queue.NewBounded(cfg.IndexCapacity, metablocking.LessBlockCentric),
		ci:      make(map[intern.Sym]int, 256),
		pi:      make(map[intern.Sym][]int, 256),
		minHeap: queue.NewHeap(ciLess),
		cf:      newPairFilter(cfg),
	}
}

// Name implements Strategy.
func (s *IPBS) Name() string { return "I-PBS" }

// UpdateIndex implements Algorithm 3. Lines 1–5 register the increment's
// profiles in CI and PI; lines 6–16 select b_min, the active block with the
// fewest pending comparisons, and — if the index is exhausted or its top
// comparison originates from a block smaller than b_min — emit b_min's
// unexecuted comparisons into the index, tagged with ⟨|b_min|, w(c)⟩, and
// deactivate b_min.
func (s *IPBS) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if s.cfg.CheckInvariants {
		defer s.verify()
	}
	var cost time.Duration
	for _, p := range delta {
		s.blocksBuf = col.AppendBlocksOf(p.ID, s.blocksBuf[:0])
		for _, b := range s.blocksBuf {
			n := s.ci[b.Sym] + b.Size() - 1
			s.ci[b.Sym] = n
			lst, active := s.pi[b.Sym]
			if !active {
				if f := len(s.piFree) - 1; f >= 0 {
					lst = s.piFree[f]
					s.piFree = s.piFree[:f]
				} else {
					const carve = 8
					if cap(s.piSlab)-len(s.piSlab) < carve {
						s.piSlab = make([]int, 0, 4096)
					}
					n := len(s.piSlab)
					lst = s.piSlab[n : n : n+carve]
					s.piSlab = s.piSlab[:n+carve]
				}
			}
			s.pi[b.Sym] = append(lst, p.ID)
			s.minHeap.Push(ciEntry{count: n, sym: b.Sym, key: b.Key})
		}
		cost += s.cfg.Costs.Generate(len(s.blocksBuf))
	}

	// With an exhausted index, keep emitting b_min blocks until one yields
	// comparisons: singleton blocks and blocks whose pairs were all filtered
	// by CF legitimately yield nothing, and stalling on them would leave the
	// matcher idle.
	for s.index.Len() == 0 {
		bmin, ok := s.popMinBlock(col)
		if !ok {
			return cost
		}
		cost += s.emitBlock(col, bmin)
	}
	// Literal Algorithm 3 line 9: with a non-empty index, emit one more
	// block when the current top comparison originates from a block smaller
	// than b_min (see DESIGN.md on this condition; InvertRefill flips it
	// for the ablation).
	if bmin, ok := s.popMinBlock(col); ok {
		top, _ := s.index.PeekBest()
		skip := top.BSize >= bmin.Size()
		if s.InvertRefill {
			skip = !skip
		}
		if skip {
			// Re-activate b_min untouched for a later call.
			s.minHeap.Push(ciEntry{count: s.ci[bmin.Sym], sym: bmin.Sym, key: bmin.Key})
			return cost
		}
		cost += s.emitBlock(col, bmin)
	}
	return cost
}

// popMinBlock pops b_min from the lazy min-heap, skipping stale entries, and
// returns its live block.
func (s *IPBS) popMinBlock(col *blocking.Collection) (*blocking.Block, bool) {
	for {
		e, ok := s.minHeap.Pop()
		if !ok {
			return nil, false
		}
		cur, active := s.ci[e.sym]
		if !active || cur != e.count {
			continue // stale heap entry
		}
		b := col.BlockBySym(e.sym)
		if b == nil {
			// Block was purged after profiles registered; drop it.
			s.deactivate(e.sym)
			continue
		}
		return b, true
	}
}

// emitBlock generates the non-redundant comparisons of b_min (lines 10–14)
// and deactivates the block (lines 15–16).
func (s *IPBS) emitBlock(col *blocking.Collection, b *blocking.Block) time.Duration {
	bsize := b.Size()
	generated := 0
	emit := func(x, y int) {
		if x == y {
			return
		}
		key := profile.PairKey(x, y)
		if !s.cf.AddIfNew(key) {
			return
		}
		generated++
		s.index.Push(metablocking.Comparison{
			X:      x,
			Y:      y,
			Weight: float64(s.weigher.SharedBlocks(col, x, y)),
			BSize:  bsize,
		})
	}
	for _, x := range s.pi[b.Sym] {
		px := col.Profile(x)
		if px == nil {
			continue
		}
		if col.CleanClean() {
			partners := b.A
			if px.Source == profile.SourceA {
				partners = b.B
			}
			for _, y := range partners {
				emit(x, y)
			}
		} else {
			for _, y := range b.A {
				emit(x, y)
			}
			for _, y := range b.B {
				emit(x, y)
			}
		}
	}
	s.deactivate(b.Sym)
	return s.cfg.Costs.Generate(generated)
}

// deactivate removes the block from CI and PI, returning the PI entry's
// backing array to the free list for reuse by a later activation.
func (s *IPBS) deactivate(sym intern.Sym) {
	delete(s.ci, sym)
	if lst, ok := s.pi[sym]; ok && cap(lst) > 0 {
		s.piFree = append(s.piFree, lst[:0])
	}
	delete(s.pi, sym)
}

// Dequeue implements Strategy.
func (s *IPBS) Dequeue() (metablocking.Comparison, bool) {
	return s.index.PopBest()
}

// Pending implements Strategy.
func (s *IPBS) Pending() int { return s.index.Len() }
