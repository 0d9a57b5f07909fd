package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/bloom"
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

	// executed records pairs handed to the matcher, so fallback scans
	// never re-emit work that was already done. By default a scalable
	// Bloom filter keeps it constant-memory-per-pair, but a false positive
	// suppresses a leftover comparison that was never executed — the pair
	// is silently lost. Config.ExactFilters substitutes an exact set when
	// that loss is unacceptable (see the batch↔incremental oracles in
	// internal/check).
	executed bloom.Membership

	// weigher is the reusable per-pair CBS weighing kernel of the fallback
	// path (anchor-swept neighbor counts); only the (serial) fallback scan
	// touches it.
	weigher metablocking.Kernel

	scratches []genScratch              // one per worker slot; [0] serves the serial path
	runs      []profRun                 // per-profile output runs of the last fan-out
	merged    []metablocking.Comparison // reused fan-out merge buffer
	fbBuf     []metablocking.Comparison // reused fallback-scan output buffer

	// scanSyms is the fallback-scan cursor: the live blocks at scanVersion,
	// smallest first (ties by key string, so the order is independent of
	// symbol assignment), resolved to symbols for map-free lookups.
	scanSyms    []intern.Sym
	scanPos     int
	scanVersion uint64
	scanValid   bool
}

func newGenerator(cfg Config) *generator {
	g := &generator{
		cfg:      cfg,
		pool:     pool.New(cfg.Parallelism),
		executed: newPairFilter(cfg),
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

// newPairFilter builds the pair-membership filter the configuration asks
// for: a constant-memory scalable Bloom filter by default, an exact set under
// Config.ExactFilters.
func newPairFilter(cfg Config) bloom.Membership {
	if cfg.ExactFilters {
		return bloom.NewExact()
	}
	return bloom.New(1<<16, 0.001)
}

// markExecuted records that the pair was dequeued for matching.
func (g *generator) markExecuted(key uint64) { g.executed.Add(key) }

// fallbackScan implements GetComparisons(B): each call takes the comparisons
// of the next block — blocks visited from the smallest to the biggest — that
// yields at least one unexecuted pair, weighted with the configured scheme.
// It returns nil when every block has been visited. New data invalidates the
// sorted order and restarts the scan; the executed filter keeps restarts from
// redoing finished work. The returned slice is owned by the generator and
// valid until its next call.
func (g *generator) fallbackScan(col *blocking.Collection) ([]metablocking.Comparison, time.Duration) {
	if !g.scanValid || g.scanVersion != col.Version() {
		g.scanSyms = col.SortedSymsBySize()
		g.scanPos = 0
		g.scanVersion = col.Version()
		g.scanValid = true
	}
	var cost time.Duration
	for g.scanPos < len(g.scanSyms) {
		b := col.BlockBySym(g.scanSyms[g.scanPos])
		g.scanPos++
		if b == nil {
			continue
		}
		cmps := g.blockComparisons(col, b)
		cost += g.cfg.Costs.Generate(b.Comparisons(col.CleanClean()))
		if len(cmps) > 0 {
			return cmps, cost
		}
	}
	return nil, cost
}

// blockComparisons generates the unexecuted comparisons of one block, each
// weighted by the CBS-style shared-block count of its pair, into the reused
// fallback buffer.
func (g *generator) blockComparisons(col *blocking.Collection, b *blocking.Block) []metablocking.Comparison {
	out := g.fbBuf[:0]
	emit := func(x, y int) {
		key := profile.PairKey(x, y)
		if g.executed.Contains(key) {
			return
		}
		out = append(out, metablocking.Comparison{
			X:      x,
			Y:      y,
			Weight: float64(g.weigher.SharedBlocks(col, x, y)),
			BSize:  b.Size(),
		})
	}
	if col.CleanClean() {
		for _, x := range b.A {
			for _, y := range b.B {
				emit(x, y)
			}
		}
	} else {
		for i, x := range b.A {
			for _, y := range b.A[i+1:] {
				emit(x, y)
			}
		}
	}
	g.fbBuf = out
	return out
}
