package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pier"
	"pier/internal/intern"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/serve"
	"pier/internal/storage"
	"pier/internal/stream"
)

// This file is the traced run: instrumented live repetitions, the replays
// with their twins, the side measurements, and the assembly of all of it into
// the per-layer metrics and the trace file.

const (
	// liveShare is the part of --seconds the traced run spends on live
	// repetitions; the replays take what they take.
	liveShare = 0.25
	// mainReplays is how many times the workload's own configuration is
	// replayed with spans on, and again with spans off; of each, the replay
	// with the median wall time is the reading, and the spans-on one the trace.
	mainReplays = 3
	// sideProbes is the sample size of the per-query side measurements.
	sideProbes = 1000
	// residualLimit flags a replay whose glue exceeds this share of its wall.
	residualLimit = 0.05
	// recallTolerance is how far the replay's final recall may sit from the
	// live run's.
	recallTolerance = 0.005
	// bufferedIncrements is how many increments stream.Live's input channel
	// (capacity 64) always accepts without blocking; pier.convert_s is taken
	// over that prefix so that backpressure stays out of it.
	bufferedIncrements = 60
)

// layerSums reduces a replay to its per-span-name self-time totals.
type layerSums struct {
	self  map[string]int64
	count map[string]int
}

func sumReplay(r *replayResult) (layerSums, error) {
	self, err := selfTimes(r.spans)
	if err != nil {
		return layerSums{}, err
	}
	total, count := spanSums(r.spans, self)
	return layerSums{total, count}, nil
}

func (l layerSums) s(name string) float64 { return seconds(l.self[name]) }

// liveConfig mirrors pier's private build(): the stream.LiveConfig a public
// pipeline with these options runs on.
func liveConfig(opt pier.Options) stream.LiveConfig {
	return stream.LiveConfig{
		CleanClean:   opt.CleanClean,
		MaxBlockSize: stream.DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		Parallelism:  opt.Parallelism,
		Shards:       opt.Shards,
		Window:       opt.Window,
		Metrics:      obsv.NewRegistry(),
		Storage:      storage.Config{Budget: opt.StorageBudget},
	}
}

// streamSide drives a stream.Live directly — no pier.Pipeline around it — and
// measures what sits just below the public API.
type streamSide struct {
	save, restore time.Duration
	bytes         int64
	queryUS       []float64
	pushBuffered  time.Duration // Live.Push over the buffered prefix
}

func measureStreamSide(in *inputs) (*streamSide, error) {
	opt := in.w.Options
	cfg := liveConfig(opt)
	strategy, err := newStrategy(opt, opt.Parallelism, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	out := &streamSide{}
	live := stream.LiveRun(strategy, cfg)
	for k, inc := range in.internalCopies() {
		t0 := time.Now()
		err := live.Push(inc)
		if k < bufferedIncrements {
			out.pushBuffered += time.Since(t0)
		}
		if err != nil {
			return nil, fmt.Errorf("stream side: Push: %w", err)
		}
	}
	live.Stop()

	for i := 0; i < sideProbes; i++ {
		probe := toInternal(in.flat[in.indexedProbe(i)], -1)
		if opt.CleanClean {
			probe.Source = otherSource(probe.Source)
		}
		t0 := time.Now()
		if _, err := live.Query(context.Background(), probe, stream.QueryOptions{}); err != nil {
			return nil, fmt.Errorf("stream side: Query: %w", err)
		}
		out.queryUS = append(out.queryUS, float64(time.Since(t0))/1e3)
	}

	var buf bytes.Buffer
	t0 := time.Now()
	out.bytes, err = live.Checkpoint(&buf)
	out.save = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("stream side: Checkpoint: %w", err)
	}
	rcfg := liveConfig(opt)
	rstrategy, err := newStrategy(opt, opt.Parallelism, rcfg.Metrics)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	restored, err := stream.RestoreLive(bytes.NewReader(buf.Bytes()), rstrategy, rcfg)
	out.restore = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("stream side: RestoreLive: %w", err)
	}
	restored.Stop()
	if err := restored.Close(); err != nil {
		return nil, err
	}
	return out, live.Close()
}

// pipelinePushBuffered is the public-API half of pier.convert_s: the time
// Pipeline.Push takes over the buffered prefix of the stream.
func pipelinePushBuffered(in *inputs) (time.Duration, error) {
	p, err := pier.NewPipeline(in.w.Options)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for k, inc := range in.incs {
		t0 := time.Now()
		err := p.Push(inc)
		if k < bufferedIncrements {
			total += time.Since(t0)
		}
		if err != nil {
			return 0, err
		}
	}
	p.Stop()
	return total, p.Close()
}

// tokenizeAndIntern is the profile/intern side measurement: Tokens() over
// fresh copies of every profile, then InternAll of those tokens into a fresh
// table.
func tokenizeAndIntern(in *inputs) (tokenize, internT time.Duration, symbols int) {
	copies := in.internalCopies()
	t0 := time.Now()
	for _, inc := range copies {
		for _, p := range inc {
			p.Tokens()
		}
	}
	tokenize = time.Since(t0)
	tab := intern.New(1 << 10)
	var buf []intern.Sym
	t0 = time.Now()
	for _, inc := range copies {
		for _, p := range inc {
			buf = tab.InternAll(p.Tokens(), buf[:0])
		}
	}
	return tokenize, time.Since(t0), tab.Len()
}

// admitTimes times Gate.Admit plus release in batches of 100 and returns the
// per-call mean of each batch in microseconds; a single call is too short
// for the clock.
func admitTimes() []float64 {
	gate := serve.NewGate(obsv.NewRegistry(), serve.Config{})
	const batches, per = 50, 100
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if release, err := gate.Admit(""); err == nil {
				release()
			}
		}
		out = append(out, float64(time.Since(t0))/1e3/per)
	}
	return out
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Host     hostFacts              `json:"host"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Spans is the replay with the median wall time. A span's parent is an
	// index into this list (-1 for the root); ref is the increment number,
	// len(increments) for the drain.
	Spans []span `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// tracedRun fills rec with the per-layer metrics.
func tracedRun(cfg runConfig, rec *runRecord, v variant) error {
	in := v.in
	w := in.w
	reps, err := liveReps([]variant{v}, cfg.seconds*liveShare, true)
	if err != nil {
		return err
	}
	rec.tally(reps)

	// The replays: the workload's own configuration with spans on and off,
	// and the two twins. Each kind runs mainReplays times (twins once); of the
	// results ordered by wall time the middle one is the reading. A twin whose
	// configuration is the workload's own is that reading itself, so the
	// figure derived from it is exactly its neutral value (0 s, 1x).
	var owned []*replayResult
	defer func() {
		for _, r := range owned {
			r.close() // in-memory or temp-file backends of a finished replay
		}
	}()
	replays := func(cfg replayConfig, n int) ([]*replayResult, error) {
		out := make([]*replayResult, 0, n)
		for i := 0; i < n; i++ {
			runtime.GC()
			r, err := replay(in, cfg)
			if err != nil {
				return nil, err
			}
			out, owned = append(out, r), append(owned, r)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].wall < out[j].wall })
		return out, nil
	}
	mainCfg := mainReplayConfig(w)
	offCfg, noBudgetCfg, serialCfg := mainCfg, mainCfg, mainCfg
	offCfg.spans = false
	noBudgetCfg.budget = 0
	serialCfg.parallelism, serialCfg.shards = 1, 1
	mains, err := replays(mainCfg, mainReplays)
	if err != nil {
		return err
	}
	offs, err := replays(offCfg, mainReplays)
	if err != nil {
		return err
	}
	main, off := mains[len(mains)/2], offs[len(offs)/2]
	twin := func(cfg replayConfig) (*replayResult, error) {
		if cfg == mainCfg {
			return main, nil
		}
		rs, err := replays(cfg, 1)
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	noBudget, err := twin(noBudgetCfg)
	if err != nil {
		return err
	}
	serial, err := twin(serialCfg)
	if err != nil {
		return err
	}
	sums, err := sumReplay(main)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", w.Name, err)
	}
	noBudgetSums, err := sumReplay(noBudget)
	if err != nil {
		return err
	}
	serialSums, err := sumReplay(serial)
	if err != nil {
		return err
	}

	// Side measurements.
	probeUS := probeSweeps(in, main.col, sideProbes)
	candT, candEdges := candidateSweeps(in)
	tokT, internT, symbols := tokenizeAndIntern(in)
	side, err := measureStreamSide(in)
	if err != nil {
		return err
	}
	pierPush, err := pipelinePushBuffered(in)
	if err != nil {
		return err
	}
	admitUS := admitTimes()

	// Assembly.
	one := func(unit string, v float64) metricValue { return metricValue{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }
	liveWall := median(perRep(reps, func(r *repResult) float64 { return r.wall.Seconds() }))
	var layerSelf int64
	for name, ns := range sums.self {
		if len(name) < 7 || name[:7] != "replay." {
			layerSelf += ns
		}
	}
	residual := main.wall.Seconds() - seconds(layerSelf)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rejected := 0
	for _, r := range reps {
		rejected += r.rejected
	}
	idleQuery := percentile(sorted(pooled(reps, func(r *repResult) []float64 { return r.queryIdle })), 0.5)
	streamQuery := percentile(sorted(side.queryUS), 0.5)
	busyQueries := func(r *repResult) []float64 { return r.queryBusy }
	lag := func(r *repResult) []float64 { return r.matchLag }
	m := map[string]metricValue{
		"profile.tokenize_s":            one("s", tokT.Seconds()),
		"intern.intern_s":               one("s", internT.Seconds()),
		"intern.symbols":                one("count", float64(symbols)),
		"blocking.prepare_s":            one("s", sums.s(spPrepare)),
		"blocking.add_s":                one("s", sums.s(spAdd)),
		"blocking.add_calls":            one("count", float64(sums.count[spAdd])),
		"blocking.remove_s":             one("s", sums.s(spRemove)),
		"blocking.publish_s":            one("s", sums.s(spPublish)),
		"blocking.blocks":               one("count", float64(main.blocks)),
		"core.update_index_s":           one("s", sums.s(spUpdate)),
		"core.update_index_tick_s":      one("s", sums.s(spTick)),
		"core.emit_s":                   one("s", sums.s(spEmit)),
		"core.emitted":                  one("count", float64(main.emitted)),
		"core.useful_ratio":             one("ratio", ratio(float64(main.executed), float64(main.emitted))),
		"metablocking.candidates_s":     one("s", candT.Seconds()),
		"metablocking.candidates_edges": one("count", float64(candEdges)),
		"metablocking.probe_us":         ofMedian("us", probeUS),
		"match.similarity_s":            one("s", sums.s(spMatch)),
		"match.comparisons":             one("count", float64(main.executed)),
		"match.match_ratio":             one("ratio", ratio(float64(main.matches), float64(main.executed))),
		"cluster.merge_s":               one("s", sums.s(spMerge)),
		"cluster.new_links":             one("count", float64(main.newLinks)),
		"storage.dedup_s":               one("s", sums.s(spDedup)),
		"storage.dedup_ops":             one("count", float64(main.dedupOps)),
		"storage.resident_bytes_max":    one("bytes", float64(main.residentMax)),
		"storage.add_overhead_s":        one("s", sums.s(spAdd)+sums.s(spPublish)-noBudgetSums.s(spAdd)-noBudgetSums.s(spPublish)),
		"storage.dedup_overhead_s":      one("s", sums.s(spDedup)-noBudgetSums.s(spDedup)),
		"snapshot.save_s":               one("s", side.save.Seconds()),
		"snapshot.restore_s":            one("s", side.restore.Seconds()),
		"snapshot.bytes":                one("bytes", float64(side.bytes)),
		"serve.admit_us":                ofMedian("us", admitUS),
		"serve.rejected":                one("count", float64(rejected)),
		"pool.workers":                  one("count", float64(pool.Resolve(w.Options.Parallelism))),
		"pool.add_speedup_x":            one("ratio", ratio(serialSums.s(spAdd), sums.s(spAdd))),
		"pool.update_speedup_x":         one("ratio", ratio(serialSums.s(spUpdate), sums.s(spUpdate))),
		"stream.overhead_s":             one("s", liveWall-main.wall.Seconds()),
		"stream.t_pc80_s":               ofMedian("s", perRep(reps, func(r *repResult) float64 { return r.tPC80.Seconds() })),
		"stream.query_us":               ofMedian("us", side.queryUS),
		"stream.query_p50_us":           ofPercentile("us", reps, busyQueries, 0.5),
		"stream.query_p90_us":           ofPercentile("us", reps, busyQueries, 0.9),
		"stream.query_p99_us":           ofPercentile("us", reps, busyQueries, 0.99),
		"stream.match_lag_p50_ms":       ofPercentile("ms", reps, lag, 0.5),
		"stream.match_lag_p99_ms":       ofPercentile("ms", reps, lag, 0.99),
		"stream.k_p50":                  ofPercentile("count", reps, func(r *repResult) []float64 { return r.kSamples }, 0.5),
		"stream.k_max":                  ofPercentile("count", reps, func(r *repResult) []float64 { return r.kSamples }, 1),
		"stream.pending_max":            ofMedian("count", perRep(reps, func(r *repResult) float64 { return float64(r.pendMax) })),
		"pier.convert_s":                one("s", (pierPush - side.pushBuffered).Seconds()),
		"pier.query_overhead_us":        one("us", idleQuery-streamQuery),
		"pier.alloc_bytes_per_profile":  ofMedian("bytes", perRep(reps, func(r *repResult) float64 { return float64(r.allocBytes) / float64(r.profiles) })),
		"pier.gc_cpu_s":                 ofMedian("s", perRep(reps, func(r *repResult) float64 { return r.gcCPU })),
		"pier.heap_peak_bytes":          ofMedian("bytes", perRep(reps, func(r *repResult) float64 { return float64(r.heapPeak) })),
		"replay.wall_s":                 one("s", main.wall.Seconds()),
		"replay.residual_s":             one("s", residual),
		"trace.overhead_ratio":          one("ratio", ratio(main.wall.Seconds(), off.wall.Seconds())-1),
		"gen.push_late_p99_ms":          ofPercentile("ms", reps, func(r *repResult) []float64 { return r.pushLate }, 0.99),
		"gen.query_late_p50_us":         ofPercentile("us", reps, func(r *repResult) []float64 { return r.queryLate }, 0.5),
	}
	rec.Metrics = m

	// The traced run's own output checks.
	check := func(ok bool, format string, args ...any) {
		rec.Attempted++
		if !ok {
			rec.Failed++
			rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
		}
	}
	livePC := median(perRep(reps, func(r *repResult) float64 { return r.pcFinal }))
	replayPC := float64(main.found) / float64(len(in.truth))
	check(math.Abs(livePC-replayPC) <= recallTolerance, "replay pc_final %.4f is not within %.3f of the live run's %.4f", replayPC, recallTolerance, livePC)
	busy := sorted(pooled(reps, busyQueries))
	tail := highestPercentile(len(busy))
	fmt.Fprintf(cfg.log, "  note: the %d queries beside the pushes support percentiles up to p%g = %.1f us (ten samples beyond it)\n",
		len(busy), 100*tail, percentile(busy, tail))
	if residual > residualLimit*main.wall.Seconds() {
		fmt.Fprintf(cfg.log, "  flag: replay.residual_s is %.1f%% of replay.wall_s (limit %.0f%%)\n",
			100*residual/main.wall.Seconds(), 100*residualLimit)
	}
	rec.judge()

	path, err := writeTrace(cfg.traceDir, &traceFile{Workload: w.Name, Seed: cfg.seed, Host: rec.Host, Metrics: m, Spans: main.spans})
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "  trace: %s (%d spans)\n", path, len(main.spans))
	return nil
}
