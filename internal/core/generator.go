package core

import (
	"slices"
	"time"

	"pier/internal/blocking"
	"pier/internal/intern"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
)

// genScratch is the reusable state of candidate generation: the block
// enumeration and ghosting buffers, the sweep kernel (dense epoch-stamped
// partner scratch + denominator caches), and the output run. Scratch never
// influences results — it only recycles allocations — so generation stays
// allocation-flat once the kernel has grown to the ID range.
type genScratch struct {
	kern     metablocking.Kernel
	blocks   []*blocking.Block
	filtered []*blocking.Block
	ghosted  []*blocking.Block
	out      []metablocking.Comparison
	cost     time.Duration
}

// generator implements the comparison-generation core shared by I-PCS and
// I-PES: lines 1–11 of Algorithm 2. For each new profile of an increment it
// generates candidates from the profile's ghosted blocks, weighs them, and
// prunes them with I-WNP; when both the increment and the comparison index
// are empty it falls back to GetComparisons, scanning leftover comparisons
// from the block collection smallest-block-first so that idle time keeps
// producing useful work.
//
// Candidates are generated profile by profile, in increment order, on the
// calling goroutine. Config.Parallelism has no effect here: a per-profile
// fan-out was never faster than this loop, not even at 2 500-profile
// increments (DESIGN.md §6).
type generator struct {
	cfg Config

	// genSec, when instrumented, records the wall time of each candidates()
	// call.
	genSec *obsv.Histogram

	// Executed is the strategy's executed-pair set: Dequeue marks it, and
	// the fallback scan never re-emits a marked pair.
	Executed

	sc    genScratch                // reused candidate-generation state
	fbBuf []metablocking.Comparison // reused fallback-scan output buffer

	// fbSyms and fbSpan weigh the block being scanned: member i's sorted
	// live-block symbols are fbSyms[fbSpan[i].lo:fbSpan[i].hi], read from
	// metadata the first time one of its pairs needs a weight. Both are
	// sized by the block, never by the profile-ID range.
	fbSyms []intern.Sym
	fbSpan []symSpan

	// scanSyms is the fallback-scan cursor: the blocks that can yield a
	// comparison at scanVersion, smallest first (ties by key string, so the
	// order is independent of symbol assignment), resolved to symbols for
	// map-free lookups.
	scanSyms    []intern.Sym
	scanPos     int
	scanVersion uint64
	scanValid   bool
}

func newGenerator(cfg Config) *generator {
	g := &generator{cfg: cfg}
	if cfg.Metrics != nil {
		g.genSec = cfg.Metrics.Histogram("pier_gen_seconds", "wall time of candidate generation per increment", obsv.ExpBuckets(1e-6, 10, 8))
	}
	return g
}

// perProfile runs lines 1–9 of Algorithm 2 for one profile — block filtering,
// ghosting, candidate weighing, I-WNP — appending the pruned comparisons to
// sc.out and the modeled cost to sc.cost. Under Config.CheckInvariants it
// verifies each step's output against its input (see mustHold).
func (g *generator) perProfile(sc *genScratch, col *blocking.Collection, p *profile.Profile) {
	sc.blocks = col.AppendBlocksOf(p.ID, sc.blocks[:0])
	blocks := sc.blocks
	if r := g.cfg.FilterRatio; r > 0 && r < 1 && len(blocks) > 0 {
		sc.filtered = blocking.FilterTopRAppend(sc.filtered[:0], blocks, r)
		blocks = sc.filtered
	}
	if g.cfg.Beta > 0 && len(blocks) > 0 {
		sc.ghosted = blocking.GhostAppend(sc.ghosted[:0], blocks, g.cfg.Beta)
		if g.cfg.CheckInvariants {
			mustHold("ghosting", blocking.VerifyGhost(blocks, sc.ghosted, g.cfg.Beta))
		}
		blocks = sc.ghosted
	}
	cands := sc.kern.Candidates(col, p, blocks, g.cfg.Scheme)
	sc.cost += g.cfg.Costs.Generate(len(cands))
	var in []metablocking.Comparison
	if g.cfg.CheckInvariants {
		mustHold("candidate order", metablocking.VerifyDescending(cands))
		in = append(in, cands...) // IWNP prunes in place
	}
	off := len(sc.out)
	sc.out = append(sc.out, metablocking.IWNP(cands)...)
	if g.cfg.CheckInvariants {
		mustHold("I-WNP pruning", metablocking.VerifyPruned(in, sc.out[off:]))
	}
}

// candidates runs lines 1–9 of Algorithm 2 over the increment: block
// ghosting with β, candidate generation against earlier profiles, and I-WNP
// pruning. It returns the weighted comparison list and the modeled cost. The
// returned slice is owned by the generator and valid until its next call;
// strategies consume it immediately.
func (g *generator) candidates(col *blocking.Collection, delta []*profile.Profile) ([]metablocking.Comparison, time.Duration) {
	if len(delta) == 0 {
		return nil, 0
	}
	var t0 time.Time
	if g.genSec != nil {
		t0 = time.Now()
	}
	sc := &g.sc
	sc.out, sc.cost = sc.out[:0], 0
	for _, p := range delta {
		g.perProfile(sc, col, p)
	}
	if g.genSec != nil {
		g.genSec.Observe(time.Since(t0).Seconds())
	}
	return sc.out, sc.cost
}

// fallbackScan implements GetComparisons(B): each call takes the comparisons
// of the next block — blocks visited from the smallest to the biggest — that
// yields at least one unexecuted pair, weighted by CBS. It returns nil when
// every block has been visited. The cursor lists only the blocks that can
// yield a pair, chosen and sorted from the resident block metadata, so a
// pairless block is never sorted and never faulted in from a spill segment.
// New data invalidates the sorted order and restarts the scan; the
// executed-pair set keeps restarts from redoing finished work. The returned
// slice is owned by the generator and valid until its next call.
func (g *generator) fallbackScan(col *blocking.Collection) ([]metablocking.Comparison, time.Duration) {
	if !g.scanValid || g.scanVersion != col.Version() {
		g.scanSyms = col.SortedPairSymsBySize()
		g.scanPos = 0
		g.scanVersion = col.Version()
		g.scanValid = true
	}
	var cost time.Duration
	for g.scanPos < len(g.scanSyms) {
		sym := g.scanSyms[g.scanPos]
		g.scanPos++
		// A cursor restored from an image that listed every live block can
		// still name pairless ones; the metadata skips them unfetched.
		n := col.ComparisonsBySym(sym)
		if n == 0 {
			continue
		}
		cmps := g.blockComparisons(col, col.BlockBySym(sym))
		cost += g.cfg.Costs.Generate(n)
		if len(cmps) > 0 {
			return cmps, cost
		}
	}
	return nil, cost
}

// symSpan locates one block member's sorted live-block symbols in fbSyms;
// lo < 0 means not read yet.
type symSpan struct{ lo, hi int32 }

// blockComparisons generates the unexecuted comparisons of one block into the
// reused fallback buffer, each weighted by its pair's shared live blocks:
// the intersection of the two members' sorted live-block symbols, which is
// metablocking.SharedBlocks, read from metadata without fetching any block.
func (g *generator) blockComparisons(col *blocking.Collection, b *blocking.Block) []metablocking.Comparison {
	out := g.fbBuf[:0]
	n := len(b.A) + len(b.B)
	g.fbSpan = slices.Grow(g.fbSpan[:0], n)[:n]
	for i := range g.fbSpan {
		g.fbSpan[i].lo = -1
	}
	g.fbSyms = g.fbSyms[:0]
	bsize := b.Size()
	emit := func(i, j, x, y int) {
		if g.Marked(profile.PairKey(x, y)) {
			return
		}
		shared := intern.IntersectCount(g.liveSyms(col, i, x), g.liveSyms(col, j, y))
		out = append(out, metablocking.Comparison{X: x, Y: y, Weight: float64(shared), BSize: bsize})
	}
	if col.CleanClean() {
		for i, x := range b.A {
			for j, y := range b.B {
				emit(i, len(b.A)+j, x, y)
			}
		}
	} else {
		for i, x := range b.A {
			for j := i + 1; j < len(b.A); j++ {
				emit(i, j, x, b.A[j])
			}
		}
	}
	g.fbBuf = out
	return out
}

// liveSyms returns the sorted live-block symbols of member i (profile id) of
// the block being scanned, reading them on first use.
func (g *generator) liveSyms(col *blocking.Collection, i, id int) []intern.Sym {
	sp := &g.fbSpan[i]
	if sp.lo < 0 {
		lo := len(g.fbSyms)
		g.fbSyms = col.AppendLiveSymsOf(id, g.fbSyms)
		slices.Sort(g.fbSyms[lo:])
		*sp = symSpan{lo: int32(lo), hi: int32(len(g.fbSyms))}
	}
	return g.fbSyms[sp.lo:sp.hi]
}
