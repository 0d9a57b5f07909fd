// Command pierrun streams a CSV dataset through a live PIER pipeline at a
// configurable rate and reports duplicates as they are found, plus a final
// summary (with pair completeness when a ground-truth file is supplied).
//
//	pierrun -in movies.csv -gt movies_gt.csv -algorithm I-PES -rate 32 -increments 100
//
// With -metrics ADDR the run also serves live pipeline metrics over HTTP:
// Prometheus text exposition at /metrics and the expvar JSON dump at
// /debug/vars, covering comparisons, matches, the adaptive K trajectory,
// queue depth, ingestion latency, and window evictions.
//
//	pierrun -in movies.csv -metrics :9090 &
//	curl localhost:9090/metrics
//
// With -checkpoint FILE the run persists its full pipeline state — blocking
// index, prioritized queues, dedup and retry bookkeeping, adaptive-K
// estimators — to FILE on completion, and every N increments with
// -checkpoint-every N (each write is atomic: temp file + rename). A later
// run resumes from the snapshot with -restore FILE and executes exactly the
// comparisons the uninterrupted run would have:
//
//	pierrun -in movies.csv -checkpoint run.snap -checkpoint-every 25
//	pierrun -in movies_rest.csv -restore run.snap -checkpoint run.snap
//
// With -cpuprofile/-memprofile the run writes pprof profiles for offline
// analysis with `go tool pprof`, and -parallelism sets the worker count of
// batch matching, the pipeline's only parallel stage (0 = one worker per
// CPU, 1 = exact serial).
//
// Exit codes: 0 on success, 2 for usage errors (bad flags, unknown
// algorithm, missing input), 1 for runtime failures (unreadable files,
// checkpoint errors).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pier/internal/baseline"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/storage"
	"pier/internal/stream"
)

// serveMetrics starts an HTTP server on addr exposing reg at /metrics
// (Prometheus text) and the expvar namespace at /debug/vars. It returns the
// bound listener address (useful with a ":0" addr) and a shutdown function.
func serveMetrics(addr string, reg *obsv.Registry) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	reg.PublishExpvar("pier")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr(), func() { srv.Close() }, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: usage errors (flags, unknown algorithm) are distinct from
// runtime failures so wrappers can tell a bad invocation from a bad run.
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

// run is the testable body of the command: flags come from args, output goes
// to the given writers, and the exit code is returned instead of os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pierrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "profiles CSV (as written by piergen)")
	gtPath := fs.String("gt", "", "optional ground-truth CSV for PC reporting")
	alg := fs.String("algorithm", "I-PES", "I-PCS, I-PBS, I-PES, or I-BASE")
	clean := fs.Bool("clean-clean", true, "Clean-Clean (two sources) vs Dirty ER")
	matcher := fs.String("matcher", "JS", "match function: JS or ED")
	rate := fs.Float64("rate", 16, "increments per second (0 = as fast as possible)")
	nIncs := fs.Int("increments", 100, "number of increments to split the stream into")
	window := fs.Int("window", 0, "profile window for unbounded streams (0 keeps everything)")
	memBudget := fs.Int64("mem-budget", 0, "resident-byte budget for the blocking index and dedup set; cold index blocks spill to temp files (0 keeps everything in memory; results are identical for every value)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/vars on this address (e.g. :9090; empty disables)")
	parallelism := fs.Int("parallelism", 0, "worker count of batch matching, forked only for batches heavy enough to pay for it (0 = one per CPU, 1 = exact serial)")
	shards := fs.Int("shards", 0, "blocking-index shard count, rounded up to a power of two (0 = one shard; it partitions the index and buys no concurrency; results are identical for every value)")
	ckptPath := fs.String("checkpoint", "", "write the pipeline state to this file on completion (and periodically with -checkpoint-every)")
	ckptEvery := fs.Int("checkpoint-every", 0, "also checkpoint every N increments (requires -checkpoint)")
	restorePath := fs.String("restore", "", "resume from a checkpoint file instead of starting fresh")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	verbose := fs.Bool("v", false, "print every match as it is found")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "pierrun:", err)
		return exitRuntime
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "pierrun:", msg)
		return exitUsage
	}

	if *in == "" {
		return usage("-in is required (generate data with piergen)")
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		return usage("-checkpoint-every requires -checkpoint")
	}
	if *ckptEvery < 0 {
		return usage("-checkpoint-every must be positive")
	}
	if *memBudget < 0 {
		return usage("-mem-budget must be non-negative")
	}

	// One registry covers candidate generation and batch matching, so
	// /metrics shows the whole pipeline.
	reg := obsv.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Parallelism = *parallelism
	cfg.Metrics = reg
	var strategy core.Strategy
	switch *alg {
	case "I-PCS":
		strategy = core.NewIPCS(cfg)
	case "I-PBS":
		strategy = core.NewIPBS(cfg)
	case "I-PES":
		strategy = core.NewIPES(cfg)
	case "I-BASE":
		strategy = baseline.NewIBase(cfg)
	default:
		return usage(fmt.Sprintf("unknown algorithm %q", *alg))
	}
	if *ckptPath != "" || *restorePath != "" {
		if _, ok := strategy.(core.Persistent); !ok {
			return usage(fmt.Sprintf("algorithm %q does not support -checkpoint/-restore", *alg))
		}
	}
	kind := match.JS
	switch *matcher {
	case "JS":
	case "ED":
		kind = match.ED
	default:
		return usage(fmt.Sprintf("unknown matcher %q (want JS or ED)", *matcher))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "pierrun:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "pierrun:", err)
			}
			f.Close()
		}()
	}

	f, err := os.Open(*in)
	if err != nil {
		return fail(err)
	}
	d, err := dataset.ReadCSV(f, *in, *clean)
	f.Close()
	if err != nil {
		return fail(err)
	}
	if *gtPath != "" {
		g, err := os.Open(*gtPath)
		if err != nil {
			return fail(err)
		}
		err = dataset.ReadGroundTruthCSV(g, d)
		g.Close()
		if err != nil {
			return fail(err)
		}
	}

	start := time.Now()
	liveCfg := stream.LiveConfig{
		CleanClean:   *clean,
		MaxBlockSize: stream.DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(kind),
		GroundTruth:  d.GroundTruth,
		Window:       *window,
		Parallelism:  *parallelism,
		Shards:       *shards,
		Metrics:      reg,
		Storage:      storage.Config{Budget: *memBudget},
	}
	found := 0
	liveCfg.OnMatch = func(m stream.LiveMatch) {
		found++
		if *verbose {
			fmt.Fprintf(stdout, "%8s  match #%d: %d <-> %d (sim %.2f)\n",
				time.Since(start).Round(time.Millisecond), found, m.X.ID, m.Y.ID, m.Similarity)
		}
	}

	var live *stream.Live
	if *restorePath != "" {
		rf, err := os.Open(*restorePath)
		if err != nil {
			return fail(err)
		}
		live, err = stream.RestoreLive(rf, strategy, liveCfg)
		rf.Close()
		if err != nil {
			return fail(fmt.Errorf("restore %s: %w", *restorePath, err))
		}
		s := live.Snapshot()
		fmt.Fprintf(stdout, "restored from %s: %d profiles, %d comparisons, %d matches\n",
			*restorePath, s.Profiles, s.Comparisons, s.Matches)
	} else {
		live = stream.LiveRun(strategy, liveCfg)
	}
	// Remove -mem-budget spill files on every exit path; Interrupt first so
	// Close sees a quiescent pipeline even when a runtime failure aborts the
	// run before Stop (both calls are idempotent no-ops after a clean Stop).
	defer func() {
		live.Interrupt()
		live.Close()
	}()

	// checkpoint writes the snapshot atomically: a crash mid-write leaves
	// the previous checkpoint intact.
	checkpoint := func() error {
		tmp := *ckptPath + ".tmp"
		cf, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if _, err := live.Checkpoint(cf); err != nil {
			cf.Close()
			os.Remove(tmp)
			return err
		}
		if err := cf.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, *ckptPath)
	}

	if *metricsAddr != "" {
		addr, shutdown, err := serveMetrics(*metricsAddr, live.Registry())
		if err != nil {
			return fail(err)
		}
		defer shutdown()
		fmt.Fprintf(stdout, "serving metrics on http://%s/metrics (expvar at /debug/vars)\n", addr)
	}

	incs := d.Increments(*nIncs)
	// When resuming over the same input, the first increments are already in
	// the snapshot: skip them so profile IDs stay aligned with the restored
	// state (the increment split is deterministic for a given -increments).
	skip := 0
	if *restorePath != "" {
		skip = live.Snapshot().Increments
		if skip > len(incs) {
			skip = len(incs)
		}
		if skip > 0 {
			fmt.Fprintf(stdout, "skipping %d increments already in the checkpoint\n", skip)
		}
	}
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}
	for i, inc := range incs {
		if i < skip {
			continue
		}
		if err := live.Push(inc); err != nil {
			return fail(err)
		}
		if interval > 0 {
			time.Sleep(interval)
		}
		if *ckptEvery > 0 && (i+1)%*ckptEvery == 0 {
			if err := checkpoint(); err != nil {
				return fail(fmt.Errorf("checkpoint at increment %d: %w", i+1, err))
			}
		}
		if (i+1)%25 == 0 {
			s := live.Snapshot()
			fmt.Fprintf(stdout, "%8s  %d/%d increments, %d comparisons, %d matches, K=%d, pending=%d\n",
				time.Since(start).Round(time.Millisecond), i+1, len(incs), s.Comparisons, s.Matches, s.K, s.Pending)
		}
	}
	res := live.Stop()
	if err := live.Err(); err != nil {
		fmt.Fprintln(stderr, "pierrun: worker failure during the run:", err)
	}
	fmt.Fprintf(stdout, "\n%s over %s\n", *alg, d)
	fmt.Fprintf(stdout, "profiles %d, comparisons %d, matches %d, elapsed %v\n",
		res.Profiles, res.Comparisons, res.Matches, res.Elapsed.Round(time.Millisecond))
	snap := live.Snapshot()
	if snap.WindowEvictions > 0 {
		fmt.Fprintf(stdout, "window evictions %d, skipped evicted comparisons %d\n",
			snap.WindowEvictions, snap.SkippedEvicted)
	}
	if len(d.GroundTruth) > 0 {
		fmt.Fprintf(stdout, "pair completeness: %.3f\n", res.Curve.FinalPC())
	}
	if *ckptPath != "" {
		if err := checkpoint(); err != nil {
			return fail(fmt.Errorf("final checkpoint: %w", err))
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *ckptPath)
	}
	return exitOK
}
