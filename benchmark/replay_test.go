package benchmark

import (
	"fmt"
	"time"

	"pier"
	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
	"pier/internal/stream"
)

// This file is the traced run's replay: the same generated increments pushed,
// on one goroutine, through the layers' public functions in the order and
// with the objects stream.LiveRun wires them, each call (or batch of calls)
// wrapped in a span recorded from here — the program itself carries no spans
// yet. What stream.Live adds on top (channels, the prep goroutine, wall-clock
// ticks, a fresh job slice per batch) is deliberately absent, so that
// live wall time minus replay wall time prices it.

// Span names: "<layer>.<call>" for layer spans, whose self times are the
// per-layer busy times, and replay.* for the containers, whose self times are
// the glue the layers do not explain (replay.residual_s).
const (
	spReplay    = "replay.run"
	spIncrement = "replay.increment"
	spBatch     = "replay.batch"
	spDrain     = "replay.drain"

	spPrepare = "blocking.prepare"
	spAdd     = "blocking.add"
	spRemove  = "blocking.remove"
	spPublish = "blocking.publish"
	spUpdate  = "core.update_index"
	spTick    = "core.update_index_tick"
	spEmit    = "core.emit"
	spDedup   = "storage.dedup"
	spMatch   = "match.similarity"
	spMerge   = "cluster.merge"
)

// recorder keeps spans in memory; with on false every call is a no-op, which
// is how the spans-off replay measures what recording costs.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, ref int) int {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Ref: ref, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.t0))
	}
}

// replayConfig is the part of a workload's options a replay can vary: the
// twins change one of them at a time.
type replayConfig struct {
	budget      int64
	parallelism int
	shards      int
	spans       bool
}

func mainReplayConfig(w workloadDef) replayConfig {
	return replayConfig{budget: w.Options.StorageBudget, parallelism: w.Options.Parallelism, shards: w.Options.Shards, spans: true}
}

// replayResult is one replay's trace and counts.
type replayResult struct {
	wall  time.Duration
	spans []span

	emitted     int // comparisons dequeued
	executed    int // comparisons run through the matcher
	matches     int
	newLinks    int
	dedupOps    int
	blocks      int
	residentMax int64
	found       int // ground-truth pairs among the matches

	// col is the collection as the replay left it, for the probe-side
	// measurements; the caller closes it together with executed.
	col         *blocking.Collection
	executedSet storage.DedupStore
}

func (r *replayResult) close() error {
	err := r.col.Close()
	if derr := r.executedSet.Close(); err == nil {
		err = derr
	}
	return err
}

// newStrategy builds the core strategy Options.Algorithm names, configured as
// the public package configures it.
func newStrategy(opt pier.Options, parallelism int, reg *obsv.Registry) (core.Strategy, error) {
	cfg := core.DefaultConfig()
	cfg.Parallelism = parallelism
	cfg.Metrics = reg
	switch opt.Algorithm {
	case "", pier.IPES:
		return core.NewIPES(cfg), nil
	case pier.IPCS:
		return core.NewIPCS(cfg), nil
	case pier.IPBS:
		return core.NewIPBS(cfg), nil
	}
	return nil, fmt.Errorf("replay: algorithm %q has no replay wiring", opt.Algorithm)
}

// splitBudget divides a StorageBudget as stream.LiveRun does: a quarter to
// the dedup set, the rest to the postings.
func splitBudget(budget int64) (post, dedup storage.Config) {
	if budget <= 0 {
		return storage.Config{}, storage.Config{}
	}
	d := max(budget/4, 1)
	return storage.Config{Budget: max(budget-d, 1)}, storage.Config{Budget: d}
}

// job is one comparison prepared for the matcher.
type job struct {
	key    uint64
	px, py *profile.Profile
	ok     bool
}

// replay runs the workload's stream through the layers.
func replay(in *inputs, rc replayConfig) (*replayResult, error) {
	w := in.w
	opt := w.Options
	strategy, err := newStrategy(opt, rc.parallelism, obsv.NewRegistry())
	if err != nil {
		return nil, err
	}
	postCfg, dedupCfg := splitBudget(rc.budget)
	var (
		col        = blocking.NewCollectionStorage(opt.CleanClean, stream.DefaultMaxBlockSize, nil, rc.shards, postCfg)
		executed   = storage.NewDedupStore(dedupCfg)
		clusters   = cluster.New()
		matcher    = match.NewMatcher(match.JS)
		findK      = core.NewAdaptiveK()
		ingestPool = pool.New(rc.parallelism)
		matchPool  = pool.New(rc.parallelism)
		serialPool = pool.New(1)
		incs       = in.internalCopies()
		res        = &replayResult{col: col, executedSet: executed}
		rec        = &recorder{on: rc.spans}
		jobs       []job
		windowIDs  []int
		evicted    int
		found      = make(map[uint64]struct{})
	)
	col.PublishSnapshot() // LiveRun publishes the empty index before the first increment

	// batch mirrors Live.processBatch without its retry queue: emit up to K,
	// filter through the dedup set, score, then classify and cluster.
	batch := func(parent, ref int) error {
		b := rec.begin(spBatch, parent, ref)
		defer rec.end(b)
		k := findK.K()

		s := rec.begin(spEmit, b, ref)
		emitted := core.EmitBatch(strategy, k)
		rec.end(s)
		res.emitted += len(emitted)

		s = rec.begin(spDedup, b, ref)
		jobs = jobs[:0]
		for _, c := range emitted {
			key := c.Key()
			res.dedupOps++
			if executed.Has(key) {
				continue
			}
			px, py := col.Profile(c.X), col.Profile(c.Y)
			if px == nil || py == nil {
				continue
			}
			res.dedupOps++
			executed.Add(key)
			jobs = append(jobs, job{key: key, px: px, py: py})
		}
		rec.end(s)

		s = rec.begin(spMatch, b, ref)
		score := func(i int) {
			j := &jobs[i]
			j.ok = matcher.Similarity(j.px, j.py) >= matcher.Threshold
		}
		t0 := time.Now()
		scorers := serialPool
		if !matchPool.Serial() && len(jobs) >= 4*matchPool.Workers() {
			scorers = matchPool
		}
		perr := scorers.TryForEach(len(jobs), score)
		if len(jobs) > 0 && perr == nil {
			findK.ObserveService(time.Since(t0) / time.Duration(len(jobs)))
		}
		rec.end(s)
		if perr != nil {
			return fmt.Errorf("replay: matcher panicked: %w", perr)
		}

		s = rec.begin(spMerge, b, ref)
		for _, j := range jobs {
			res.executed++
			if !j.ok {
				continue
			}
			res.matches++
			if clusters.Merge(j.px.ID, j.py.ID) {
				res.newLinks++
			}
			if _, ok := in.truth[j.key]; ok {
				found[j.key] = struct{}{}
			}
		}
		rec.end(s)
		return nil
	}

	rec.t0 = time.Now()
	start := rec.t0
	root := rec.begin(spReplay, -1, -1)
	var lastArrival time.Time
	for ref, inc := range incs {
		i := rec.begin(spIncrement, root, ref)

		s := rec.begin(spPrepare, i, ref)
		syms := col.PrepareBatch(inc)
		rec.end(s)

		s = rec.begin(spAdd, i, ref)
		col.AddBatchPrepared(inc, syms, ingestPool)
		rec.end(s)

		s = rec.begin(spRemove, i, ref)
		sweep := false
		if opt.Window > 0 {
			for _, p := range inc {
				windowIDs = append(windowIDs, p.ID)
			}
			for len(windowIDs) > opt.Window {
				col.Remove(windowIDs[0])
				windowIDs = windowIDs[1:]
				evicted++
			}
			if evicted >= opt.Window {
				evicted, sweep = 0, true
			}
		}
		rec.end(s)

		// A full window has turned over: prune the dedup entries of pairs
		// that lost a profile, as Live's ingest does.
		s = rec.begin(spDedup, i, ref)
		if sweep {
			var dead []uint64
			executed.Range(func(key uint64) bool {
				x, y := profile.SplitPairKey(key)
				if col.Profile(x) == nil || col.Profile(y) == nil {
					dead = append(dead, key)
				}
				return true
			})
			for _, key := range dead {
				executed.Delete(key)
			}
			res.dedupOps += len(dead)
		}
		rec.end(s)

		s = rec.begin(spPublish, i, ref)
		col.PublishSnapshot()
		rec.end(s)

		s = rec.begin(spUpdate, i, ref)
		strategy.UpdateIndex(col, inc)
		rec.end(s)

		// findK sees the schedule's interarrival on an open loop — the replay
		// does not sleep through the gaps — and the measured one on a burst.
		now := time.Now()
		if !lastArrival.IsZero() {
			gap := now.Sub(lastArrival)
			if w.Period > 0 {
				gap = w.Period
			}
			findK.ObserveArrival(gap)
		}
		lastArrival = now
		res.residentMax = max(res.residentMax, col.StorageResidentBytes())

		if err := batch(i, ref); err != nil {
			return nil, err
		}
		if w.Period > 0 {
			// The gap before the next increment is one TickEvery long: Live's
			// ticker fires once in it, refilling an empty index.
			if strategy.Pending() == 0 {
				s = rec.begin(spTick, i, ref)
				strategy.UpdateIndex(col, nil)
				rec.end(s)
			}
			if err := batch(i, ref); err != nil {
				return nil, err
			}
		}
		rec.end(i)
	}

	// Stream closed: drain as Live.loop does.
	d := rec.begin(spDrain, root, len(incs))
	for {
		if err := batch(d, len(incs)); err != nil {
			return nil, err
		}
		if strategy.Pending() > 0 {
			continue
		}
		s := rec.begin(spTick, d, len(incs))
		strategy.UpdateIndex(col, nil)
		rec.end(s)
		if strategy.Pending() == 0 {
			break
		}
	}
	rec.end(d)
	rec.end(root)
	res.wall = time.Since(start)
	res.spans = rec.spans
	res.blocks = col.NumBlocks()
	res.found = len(found)
	return res, nil
}

// probeSweeps times the kernel sweep of n probes against the collection a
// replay left behind: BeginProbe, Accumulate over the probe's postings,
// Partners, ProbeStats — what Live.Query spends inside metablocking. It
// returns the per-probe times in microseconds.
func probeSweeps(in *inputs, col *blocking.Collection, n int) []float64 {
	var kern metablocking.Kernel
	view := col.ProbeView()
	cc := in.w.Options.CleanClean
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		probe := toInternal(in.flat[in.indexedProbe(i)], -1)
		syms := col.ProbeSyms(probe)
		postings := view.AppendPostings(make([]*blocking.Posting, 0, len(syms)), syms)
		t0 := time.Now()
		kern.BeginProbe()
		for _, p := range postings {
			inv := 1.0 / float64(max(1, p.Comparisons(cc)))
			switch {
			case !cc:
				kern.Accumulate(p.A, inv)
				kern.Accumulate(p.B, inv)
			case probe.Source == profile.SourceA:
				kern.Accumulate(p.B, inv)
			default:
				kern.Accumulate(p.A, inv)
			}
		}
		for _, id := range kern.Partners() {
			kern.ProbeStats(id)
		}
		out = append(out, float64(time.Since(t0))/1e3)
	}
	return out
}

// candidateSweeps is the metablocking side measurement: a fresh collection is
// fed the stream increment by increment and, against the index as it stands
// after each one, Kernel.Candidates runs for every profile of the increment
// over its ghosted blocks — the call core's generator makes. Only the
// Candidates calls are timed, one batch per increment.
func candidateSweeps(in *inputs) (elapsed time.Duration, edges int) {
	opt := in.w.Options
	col := blocking.NewCollectionStorage(opt.CleanClean, stream.DefaultMaxBlockSize, nil, opt.Shards, storage.Config{})
	var kern metablocking.Kernel
	var windowIDs []int
	beta := core.DefaultConfig().Beta
	for _, inc := range in.internalCopies() {
		col.AddBatch(inc, nil)
		if opt.Window > 0 {
			for _, p := range inc {
				windowIDs = append(windowIDs, p.ID)
			}
			for len(windowIDs) > opt.Window {
				col.Remove(windowIDs[0])
				windowIDs = windowIDs[1:]
			}
		}
		ghosted := make([][]*blocking.Block, len(inc))
		for i, p := range inc {
			ghosted[i] = blocking.Ghost(col.BlocksOf(p.ID), beta)
		}
		t0 := time.Now()
		for i, p := range inc {
			edges += len(kern.Candidates(col, p, ghosted[i], metablocking.CBS))
		}
		elapsed += time.Since(t0)
	}
	return elapsed, edges
}
