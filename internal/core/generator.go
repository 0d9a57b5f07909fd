package core

import (
	"slices"
	"time"

	"pier/internal/blocking"
	"pier/internal/intern"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
)

// parallelThreshold is the minimum increment size worth fanning out: below
// it, goroutine startup dominates the per-profile work. Well under any real
// increment size, so the parallel path is exercised by normal workloads.
const parallelThreshold = 4

// genScratch is the reusable per-worker state of candidate generation: the
// block enumeration and ghosting buffers, the sweep kernel (dense
// epoch-stamped partner scratch + denominator caches), and the worker's
// output run. Scratch never influences results — it only recycles
// allocations — so any worker may process any profile, and the fan-out stays
// allocation-flat once every worker's kernel has grown to the ID range.
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
// Per-profile candidate generation is independent by construction — the
// smaller-ID rule in metablocking.Candidates generates every unordered pair
// exactly once, from the later profile, against collection state that already
// contains the whole increment — so candidates fans the profiles out over the
// pool's dynamic scheduler: workers pull profile indices from a shared atomic
// counter, append each profile's pruned comparisons to their own scratch, and
// record the (worker, offset, length) run per profile index. The merge walks
// profile indices in order and concatenates the recorded runs, so the output
// is bit-for-bit identical to the serial one for every Config.Parallelism —
// while zipf-skewed profiles (one hot profile with huge blocks next to many
// cold ones) no longer serialize on whichever static chunk they landed in.
type generator struct {
	cfg  Config
	pool *pool.Pool

	// genSec, when instrumented, records the wall time of each candidates()
	// call — the stage whose parallel speedup the pool exists to buy.
	genSec *obsv.Histogram

	// Executed is the strategy's executed-pair set: Dequeue marks it, and
	// the fallback scan never re-emits a marked pair.
	Executed

	scratches []genScratch              // one per worker slot; [0] serves the serial path
	runs      []profRun                 // per-profile output runs of the last fan-out
	merged    []metablocking.Comparison // reused fan-out merge buffer
	fbBuf     []metablocking.Comparison // reused fallback-scan output buffer

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
	g := &generator{
		cfg:  cfg,
		pool: pool.New(cfg.Parallelism),
	}
	if cfg.Metrics != nil {
		g.pool.Instrument(
			cfg.Metrics.Gauge("pier_gen_workers_busy", "candidate-generation workers currently executing"),
			cfg.Metrics.Counter("pier_gen_tasks_total", "per-profile candidate-generation tasks completed"),
		)
		g.genSec = cfg.Metrics.Histogram("pier_gen_seconds", "wall time of candidate generation per increment", obsv.ExpBuckets(1e-6, 10, 8))
	}
	return g
}

// scratchFor returns the worker scratch slots for n workers, growing the pool
// of slots on first use and resetting each slot's output run.
func (g *generator) scratchFor(n int) []genScratch {
	for len(g.scratches) < n {
		g.scratches = append(g.scratches, genScratch{})
	}
	scs := g.scratches[:n]
	for i := range scs {
		scs[i].out = scs[i].out[:0]
		scs[i].cost = 0
	}
	return scs
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

// profRun locates one profile's pruned comparisons inside its worker's
// scratch output: worker w produced run [off, off+n) of scs[w].out for the
// profile. Recorded during the fan-out, consumed by the in-order merge.
type profRun struct {
	w, off, n int32
}

// runsFor returns the per-profile run table for n profiles, grown as needed.
func (g *generator) runsFor(n int) []profRun {
	if cap(g.runs) < n {
		g.runs = make([]profRun, n)
	}
	g.runs = g.runs[:n]
	return g.runs
}

// candidates runs lines 1–9 of Algorithm 2 over the increment: block
// ghosting with β, candidate generation against earlier profiles, and I-WNP
// pruning. It returns the weighted comparison list and the modeled cost.
// Large increments fan out over the pool's dynamic scheduler (workers pull
// profile indices from a shared counter — skew-proof under zipf block-size
// distributions); outputs are merged in profile order, so the result is
// identical for every Config.Parallelism setting. The returned slice is owned
// by the generator and valid until its next call; strategies consume it
// immediately.
func (g *generator) candidates(col *blocking.Collection, delta []*profile.Profile) ([]metablocking.Comparison, time.Duration) {
	if len(delta) == 0 {
		return nil, 0
	}
	var t0 time.Time
	if g.genSec != nil {
		t0 = time.Now()
	}
	workers := g.pool.Workers()
	if g.pool.Serial() || len(delta) < parallelThreshold {
		workers = 1
	}
	if workers > len(delta) {
		workers = len(delta)
	}
	scs := g.scratchFor(workers)
	var out []metablocking.Comparison
	var cost time.Duration
	if workers == 1 {
		sc := &scs[0]
		for _, p := range delta {
			g.perProfile(sc, col, p)
		}
		out, cost = sc.out, sc.cost
	} else {
		// Fan out: the per-profile work only reads the collection (the
		// whole increment is already blocked before UpdateIndex runs), so
		// concurrent tasks never race; each task writes only its worker's
		// scratch and its own run slot, and the single-writer merge below
		// is the only other mutation.
		runs := g.runsFor(len(delta))
		g.pool.ForEachWorker(len(delta), func(w, i int) {
			sc := &scs[w]
			off := len(sc.out)
			g.perProfile(sc, col, delta[i])
			runs[i] = profRun{w: int32(w), off: int32(off), n: int32(len(sc.out) - off)}
		})
		total := 0
		for i := range scs {
			total += len(scs[i].out)
			cost += scs[i].cost
		}
		merged := g.merged[:0]
		if cap(merged) < total {
			merged = make([]metablocking.Comparison, 0, total)
		}
		for _, r := range runs {
			merged = append(merged, scs[r.w].out[r.off:r.off+r.n]...)
		}
		g.merged = merged
		out = merged
	}
	if g.genSec != nil {
		g.genSec.Observe(time.Since(t0).Seconds())
	}
	return out, cost
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
