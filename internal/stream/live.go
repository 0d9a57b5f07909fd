package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/intern"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/metrics"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/snapshot"
	"pier/internal/storage"
)

// LiveMatch is one classified pair reported by the live pipeline.
type LiveMatch struct {
	X, Y       *profile.Profile
	Similarity float64
	// At is the wall-clock time the match was classified.
	At time.Time
}

// LiveConfig parameterizes a real-time pipeline (LiveRun). Unlike the
// simulated runner, time here is wall-clock: increments are pushed by the
// caller whenever they become available, and the pipeline fills the gaps
// between arrivals with progressive comparisons.
type LiveConfig struct {
	// CleanClean selects the ER task type.
	CleanClean bool
	// MaxBlockSize enables block purging (0 disables).
	MaxBlockSize int
	// Keyer selects the blocking-key extractor; nil is token blocking.
	Keyer blocking.Keyer
	// Scheme is the meta-blocking weighting scheme the online Query path
	// ranks candidates with — normally the same scheme the strategy was
	// configured with, so query ranking matches stream prioritization. The
	// zero value is CBS, the paper's default.
	Scheme metablocking.Scheme
	// Matcher classifies emitted pairs.
	Matcher match.Matcher
	// ContextMatcher, if set, replaces Matcher with a fallible matcher: a
	// comparison can now time out, fail, or be rejected by a circuit
	// breaker (see match.Fallible). A failed comparison is never dropped
	// and never classified — it is requeued and retried in a later batch,
	// so the executed-comparison accounting still counts every pair exactly
	// once. When the matcher exposes a BreakerOpen() method and the breaker
	// trips, the pipeline enters degraded mode: K is capped at core.KMin
	// until the breaker recovers.
	ContextMatcher match.ContextMatcher
	// RetryBudget bounds how many times one comparison may fail before it
	// is abandoned (counted in pier_match_abandoned_total). 0 retries
	// forever — the strict requeue-not-drop regime; use it when failures
	// are known to be transient.
	RetryBudget int
	// K is the findK policy; nil defaults to core.NewAdaptiveK.
	K *core.AdaptiveK
	// TickEvery is how often the blocking stage emits an empty increment
	// when idle, letting the strategy reconsider leftover comparisons.
	// Zero defaults to 50ms.
	TickEvery time.Duration
	// Window bounds the number of profiles kept in memory: once exceeded,
	// the oldest profiles are evicted from the block collection (their
	// queued comparisons are silently skipped). 0 keeps everything — the
	// right choice unless the stream is unbounded.
	Window int
	// Parallelism is the number of goroutines computing similarities
	// within a batch, the only stage that runs in parallel. 0 (the
	// default) or negative uses one worker per CPU; 1 forces exact serial
	// execution; n > 1 uses n workers. A batch is forked only when its job
	// count times the measured per-comparison service time exceeds
	// forkGrain; lighter batches run inline. Every setting produces
	// identical results: verdicts are collected into a slice indexed by
	// batch position before any cluster or stats update, so only
	// wall-clock time changes.
	Parallelism int
	// Shards is the blocking index's shard count: 0 (the default) means
	// one shard. It partitions the index and buys no concurrency (ingest
	// is serial), and it is never a semantic knob (see
	// blocking.NewCollectionStorage).
	Shards int
	// OnMatch, if set, is called synchronously from the pipeline goroutine
	// for every pair classified as a duplicate.
	OnMatch func(LiveMatch)
	// OnExecuted, if set, is called synchronously from the pipeline
	// goroutine with the pair key of every comparison the moment it is
	// counted (classified successfully). The recovery-equivalence oracle
	// uses it to collect the executed set of a run.
	OnExecuted func(key uint64)
	// GroundTruth, if set, enables PC accounting in the final LiveResult.
	GroundTruth map[uint64]struct{}
	// Metrics, if set, is the registry the pipeline registers its
	// instruments in — share one registry to expose several pipelines on
	// one endpoint. Nil creates a private registry (see Live.Registry).
	Metrics *obsv.Registry
	// CheckInvariants enables per-batch self-verification of the pipeline's
	// accounting: the executed-pair set never exceeds the executed-comparison
	// counter plus the retry backlog plus the abandoned pairs (and matches
	// the sum exactly when no Window pruning runs), matches never exceed
	// comparisons, and the final LiveResult agrees with the live Stats()
	// counters. Violations panic.
	// Intended for tests and debugging; the checks are O(1) per batch.
	CheckInvariants bool
	// Storage bounds the resident memory of the pipeline's two unbounded
	// structures — the blocking index's posting lists and the executed-pair
	// dedup set — by spilling cold state to temp files under
	// Storage.Dir. The budget is split 3:1 between postings and dedup. A
	// zero config (the default) keeps everything in memory, exactly the
	// pre-seam behavior; either way the observable pipeline results are
	// bit-identical (the backend is a residency knob, never a semantic
	// one). Pipelines with a budget should be Closed after Stop/Interrupt
	// so spill files are removed promptly. A spill file that cannot be
	// written does not stop the run: that store keeps its state resident,
	// stops spilling, and Err reports the failure.
	Storage storage.Config
	// Assigned, if set, reports whether the caller has assigned a profile
	// ID: RestoreLive rejects a snapshot whose collection or clusters name
	// a profile it has not, since every match and cluster member the
	// restored pipeline reports is one of them. Nil accepts every ID.
	Assigned func(id int) bool
}

// splitStorage divides the pipeline's storage budget between the posting
// index (3/4 — posting lists dominate) and the executed-pair dedup set (1/4).
func splitStorage(cfg storage.Config) (post, dedup storage.Config) {
	if !cfg.Enabled() {
		return cfg, cfg
	}
	post, dedup = cfg, cfg
	dedup.Budget = cfg.Budget / 4
	if dedup.Budget < 1 {
		dedup.Budget = 1
	}
	post.Budget = cfg.Budget - dedup.Budget
	if post.Budget < 1 {
		post.Budget = 1
	}
	return post, dedup
}

// LiveResult summarizes a live pipeline run.
type LiveResult struct {
	Profiles    int
	Comparisons int
	// Matches counts pairwise duplicate classifications; NewLinks counts
	// those that connected two previously separate entity clusters.
	Matches  int
	NewLinks int
	// Clusters are the resolved entity clusters with at least two members
	// (profile IDs, each sorted; clusters ordered by smallest member).
	Clusters [][]int
	Curve    *metrics.Curve
	Elapsed  time.Duration
	// Interrupted reports that the run was ended by Interrupt (or a
	// cancelled Drive context) without draining the remaining prioritized
	// work. An interrupted pipeline is still checkpointable: restore the
	// checkpoint to finish the run later.
	Interrupted bool
}

// LiveSnapshot is a point-in-time, thread-safe view of a running pipeline's
// internals — the same numbers the metrics endpoint exposes, for embedders
// that want them without HTTP. All fields are cumulative counters except K,
// Pending, RetryPending, and DedupEntries, which are instantaneous gauges.
type LiveSnapshot struct {
	// Profiles is the number of profiles ingested so far.
	Profiles int
	// Increments is the number of non-tick increments ingested.
	Increments int
	// Comparisons and Matches are the executed-comparison and duplicate
	// counts — always equal to Stats() and, after Stop, to the LiveResult.
	Comparisons int
	Matches     int
	// NewLinks counts matches that connected two previously separate
	// entity clusters.
	NewLinks int
	// SkippedEvicted counts emitted comparisons that were dropped because
	// at least one profile had been evicted from the window.
	SkippedEvicted int
	// WindowEvictions counts profiles evicted under LiveConfig.Window.
	WindowEvictions int
	// K is the live adaptive batch size (Algorithm 1's findK).
	K int
	// Pending is the strategy's queued-comparison depth after the most
	// recent batch.
	Pending int
	// RetryPending is the number of failed comparisons awaiting retry.
	RetryPending int
	// DedupEntries is the current size of the executed-comparison dedup
	// map (bounded under Window by eviction-driven pruning).
	DedupEntries int
}

// liveMetrics bundles the pipeline's instruments. All updates happen on the
// pipeline goroutine; reads (Stats, Snapshot, exposition) may happen from any
// goroutine — the instruments are atomic.
type liveMetrics struct {
	profiles   *obsv.Counter
	increments *obsv.Counter
	cmps       *obsv.Counter
	matches    *obsv.Counter
	newLinks   *obsv.Counter
	skipped    *obsv.Counter
	evictions  *obsv.Counter

	// failure-path instruments of the fault-tolerant runtime
	matchFailures *obsv.Counter // failed comparison attempts (requeued)
	batchFailures *obsv.Counter // batches voided by a worker panic
	requeues      *obsv.Counter // comparisons placed on the retry queue
	abandoned     *obsv.Counter // comparisons dropped after RetryBudget
	ckptTotal     *obsv.Counter // checkpoints written

	k            *obsv.Gauge
	pending      *obsv.Gauge
	dedup        *obsv.Gauge
	matchBusy    *obsv.Gauge
	retryPending *obsv.Gauge
	degraded     *obsv.Gauge // 1 while K is capped by an open breaker
	ckptBytes    *obsv.Gauge // size of the last checkpoint
	restoreBytes *obsv.Gauge // size of the checkpoint the pipeline was restored from

	incSize    *obsv.Histogram
	ingestSec  *obsv.Histogram
	batchSize  *obsv.Histogram
	batchFill  *obsv.Histogram // assembled jobs / K: how much of findK's allowance a batch used
	seqSec     *obsv.Histogram
	parSec     *obsv.Histogram
	ckptSec    *obsv.Histogram
	restoreSec *obsv.Histogram

	// serving-path instruments (Live.Query)
	queries      *obsv.Counter   // queries answered
	queryMatches *obsv.Counter   // matched candidates across all queries
	querySec     *obsv.Histogram // end-to-end query latency
	queryCands   *obsv.Histogram // candidates considered per query

	// spill instruments of the posting index, advanced once per publish
	spillFaultIns   *obsv.Counter
	spillSegWrites  *obsv.Counter
	spillSegBytes   *obsv.Counter
	storageResident *obsv.Gauge
}

// newLiveMetrics registers the pipeline's instruments in reg. Registration is
// idempotent, so pipelines sharing a registry share (and jointly advance) the
// same counters.
func newLiveMetrics(reg *obsv.Registry) *liveMetrics {
	sizeBuckets := obsv.ExpBuckets(1, 4, 10)       // 1 .. 262144
	latBuckets := obsv.ExpBuckets(1e-6, 10, 8)     // 1µs .. 10s
	serviceBuckets := obsv.ExpBuckets(1e-6, 10, 8) // per-batch matcher time
	// K reaches 200 000, so a three-job batch fills 1.5e-5 of it: decades,
	// written out so that a full batch lands on the 1 bound exactly.
	fillBuckets := []float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1}
	return &liveMetrics{
		profiles:      reg.Counter("pier_profiles_ingested_total", "profiles ingested into the live pipeline"),
		increments:    reg.Counter("pier_increments_total", "data increments pushed into the live pipeline"),
		cmps:          reg.Counter("pier_comparisons_total", "comparisons executed by the matcher"),
		matches:       reg.Counter("pier_matches_total", "pairs classified as duplicates"),
		newLinks:      reg.Counter("pier_new_links_total", "matches that connected two previously separate clusters"),
		skipped:       reg.Counter("pier_skipped_evicted_total", "emitted comparisons skipped because a profile was evicted"),
		evictions:     reg.Counter("pier_window_evictions_total", "profiles evicted from the sliding window"),
		matchFailures: reg.Counter("pier_match_failures_total", "comparison attempts that failed and were requeued"),
		batchFailures: reg.Counter("pier_batch_failures_total", "batches voided by a recovered worker panic"),
		requeues:      reg.Counter("pier_requeues_total", "comparisons placed on the retry queue"),
		abandoned:     reg.Counter("pier_match_abandoned_total", "comparisons dropped after exhausting RetryBudget"),
		ckptTotal:     reg.Counter("pier_checkpoints_total", "checkpoints written"),
		k:             reg.Gauge("pier_k", "live adaptive batch size K (Algorithm 1 findK)"),
		pending:       reg.Gauge("pier_pending", "strategy queued-comparison depth after the last batch"),
		dedup:         reg.Gauge("pier_dedup_entries", "size of the executed-comparison dedup map"),
		matchBusy:     reg.Gauge("pier_match_workers_busy", "matcher workers currently computing similarities"),
		retryPending:  reg.Gauge("pier_retry_pending", "failed comparisons awaiting retry"),
		degraded:      reg.Gauge("pier_degraded_mode", "1 while the matcher breaker is open and K is capped"),
		ckptBytes:     reg.Gauge("pier_checkpoint_bytes", "size of the most recent checkpoint in bytes"),
		restoreBytes:  reg.Gauge("pier_restore_bytes", "size in bytes of the checkpoint the pipeline was restored from"),
		incSize:       reg.Histogram("pier_increment_size", "profiles per pushed increment", sizeBuckets),
		ingestSec:     reg.Histogram("pier_ingest_seconds", "wall time to block and index one increment", latBuckets),
		batchSize:     reg.Histogram("pier_batch_size", "comparisons per emitted batch (after dedup and eviction skips)", sizeBuckets),
		batchFill:     reg.Histogram("pier_batch_fill_ratio", "batch size divided by K, per non-idle batch: low values at a high pier_k mean findK allows far more than the index holds", fillBuckets),
		seqSec:        reg.Histogram("pier_match_seq_seconds", "per-batch matcher service time, sequential path", serviceBuckets),
		parSec:        reg.Histogram("pier_match_par_seconds", "per-batch matcher service time, parallel path", serviceBuckets),
		ckptSec:       reg.Histogram("pier_checkpoint_seconds", "wall time to write one checkpoint", latBuckets),
		restoreSec:    reg.Histogram("pier_restore_seconds", "wall time to restore the pipeline from a checkpoint", latBuckets),
		queries:       reg.Counter("pier_queries_total", "online point queries answered"),
		queryMatches:  reg.Counter("pier_query_matches_total", "matched candidates returned by online queries"),
		querySec:      reg.Histogram("pier_query_seconds", "end-to-end online query latency", latBuckets),
		queryCands:    reg.Histogram("pier_query_candidates", "candidate partners considered per online query", sizeBuckets),

		spillFaultIns:   reg.Counter("pier_spill_faultins_total", "index blocks read back from spill segments"),
		spillSegWrites:  reg.Counter("pier_spill_segment_writes_total", "index spill segments written"),
		spillSegBytes:   reg.Counter("pier_spill_segment_bytes_total", "bytes of index spill segments written"),
		storageResident: reg.Gauge("pier_storage_resident_bytes", "budget-priced resident bytes of the posting index"),
	}
}

// retryJob is one failed comparison awaiting re-execution. Profiles are
// re-resolved from the collection at retry time (they may have been evicted
// meanwhile), so only the IDs are held.
type retryJob struct {
	key      uint64
	x, y     int
	attempts int
}

// liveState is the complete incremental state of a live pipeline, owned by
// the pipeline goroutine while it runs and quiescent — readable by the
// checkpoint path — once done is closed. Hoisting it out of the loop is what
// makes the pipeline checkpointable and restorable.
type liveState struct {
	col      *blocking.Collection
	clusters *cluster.Set
	rec      *metrics.Recorder
	executed storage.DedupStore

	windowIDs         []int // insertion order, for eviction
	evictedSinceSweep int   // triggers pruning of the executed map

	retryQ []retryJob

	scratch batchScratch

	// spillSeen is the index's spill traffic already added to the metrics;
	// storageErrSeen is set once a storage failure went to Err.
	spillSeen      storage.SpillStats
	storageErrSeen bool

	res         *liveCounters
	start       time.Time
	lastArrival time.Time
}

// scratchMax is the largest buffer, in elements, that batchScratch keeps
// between batches: 16 Ki jobs are 1 MiB. It is pier_batch_size's le="16384"
// bucket, and no batch of the four benchmark workloads leaves that bucket
// (their largest is under 4 096 jobs). A batch beyond it — findK at its
// ceiling over a deep queue — pays its own allocation, so a pipeline whose
// index lives under a 1 MiB StorageBudget never sits on the 12.8 MB a
// KMax-sized batch needs.
const scratchMax = 16 << 10

// batchScratch is the working memory of the batch loop, owned by the pipeline
// goroutine through liveState and reused from one batch to the next, so that
// a batch costs what it assembles and an idle tick allocates nothing. It is
// not state: nothing in it outlives the call that filled it, and a checkpoint
// ignores it.
type batchScratch struct {
	jobs    []job                     // processBatch's job slab; every slot zero between batches
	emitted []metablocking.Comparison // what the strategy dequeued for the current batch
	dead    []uint64                  // dedup keys the window sweep is about to delete
}

// recycle empties buf for the next batch, or drops it once it outgrew
// scratchMax. A kept buffer goes back with every used slot zeroed: a job holds
// two *profile.Profile, and a slot left filled would keep an evicted profile
// reachable until some later batch happened to overwrite it.
func recycle[T any](buf []T) []T {
	if cap(buf) > scratchMax {
		return nil
	}
	clear(buf)
	return buf[:0]
}

// liveCounters are the loop-local result fields accumulated during a run.
type liveCounters struct {
	Profiles    int
	Matches     int
	NewLinks    int
	Interrupted bool
}

// ErrStopped is returned by Push after Stop or Interrupt closed the stream.
var ErrStopped = errors.New("stream: Live.Push called after Stop")

// Live is a running real-time PIER pipeline. Feed it increments with Push;
// the pipeline goroutine interleaves ingestion with progressive matching and
// keeps working on the best remaining comparisons while the stream is idle.
// Close the stream with Stop to collect the result, or Interrupt to end it
// without draining (the state stays checkpointable either way).
type Live struct {
	cfg      LiveConfig
	strategy core.Strategy
	incoming chan []*profile.Profile
	// prepped is the bounded hand-off between the prep stage — which
	// tokenizes and interns each increment's blocking keys — and the
	// pipeline goroutine, which indexes and weighs it. The small capacity
	// lets preparation of increment N+1 overlap indexing of increment N
	// without letting prepared-but-unindexed data grow unboundedly.
	prepped chan preppedInc
	// pushed counts increments acknowledged by Push; the loop counts how
	// many it has ingested, and the checkpoint/interrupt drain runs the
	// difference down so acknowledged data is always in the index before a
	// snapshot is written.
	pushed atomic.Int64
	ctrl   chan ckptReq
	intr   chan struct{}
	done   chan struct{}
	result *LiveResult
	reg    *obsv.Registry
	m      *liveMetrics

	st *liveState // owned by the loop goroutine until done closes

	mu          sync.Mutex // guards closed/interrupted/batchErr and serializes Push against Stop
	closed      bool
	interrupted bool
	batchErr    error // first batch-voiding panic, for Err()
}

type ckptReq struct {
	w     io.Writer
	reply chan ckptRes
}

type ckptRes struct {
	bytes int64
	err   error
}

// LiveRun starts a real-time pipeline with the given strategy. The returned
// Live must be finished with Stop (or Interrupt).
func LiveRun(strategy core.Strategy, cfg LiveConfig) *Live {
	l := newLive(strategy, cfg)
	postCfg, dedupCfg := splitStorage(cfg.Storage)
	st := &liveState{
		col:      blocking.NewCollectionStorage(cfg.CleanClean, cfg.MaxBlockSize, l.cfg.Keyer, cfg.Shards, postCfg),
		clusters: cluster.New(),
		rec:      metrics.NewRecorder(l.cfg.GroundTruth, 500),
		executed: storage.NewDedupStore(dedupCfg),
		res:      &liveCounters{},
		start:    time.Now(),
	}
	// Publish the empty index before the first increment; this also switches
	// the collection into snapshot-tracking mode (see blocking.PublishSnapshot).
	st.col.PublishSnapshot()
	l.start(st)
	return l
}

// start runs the pipeline on st. Its matcher numbers tokens in the
// collection's table under token blocking, whose keys are the tokens, so each
// is interned once; under any other keyer in a fresh table no checkpoint saves.
func (l *Live) start(st *liveState) {
	tab := st.col.Table()
	if l.cfg.Keyer != nil {
		tab = intern.New(0)
	}
	l.cfg.Matcher = l.cfg.Matcher.WithTable(tab)
	l.strategy.ShareExecuted(st.executed)
	l.st = st
	go l.prep(st.col)
	go l.loop(st)
}

// preppedInc is one increment after the prep stage: the profiles plus their
// interned blocking-key symbols, ready for AddBatchPrepared.
type preppedInc struct {
	inc  []*profile.Profile
	syms [][]intern.Sym
}

// prep is the ingest pipeline's first stage: it tokenizes and interns each
// pushed increment against the collection's symbol table (concurrency-safe,
// append-only — the only collection state this goroutine touches), computes
// each profile's matcher form (under token blocking, from the symbols just
// interned), and hands the increment to the pipeline goroutine over the
// bounded prepped channel. Increments flow through strictly in push order, so
// ingestion order — and therefore every result — is identical to the
// unpipelined pipeline's. When Push's channel closes (Stop or Interrupt),
// prep flushes what remains and closes prepped; once the loop has exited,
// nothing receives from prepped, so prep returns instead of waiting there.
func (l *Live) prep(col *blocking.Collection) {
	defer close(l.prepped)
	for inc := range l.incoming {
		syms := col.PrepareBatch(inc)
		if l.cfg.ContextMatcher == nil {
			for i, p := range inc {
				if l.cfg.Keyer == nil {
					l.cfg.Matcher.PrepareSyms(p, syms[i])
				} else {
					l.cfg.Matcher.Prepare(p)
				}
			}
		}
		select {
		case l.prepped <- preppedInc{inc: inc, syms: syms}:
		case <-l.done:
			return
		}
	}
}

// newLive applies config defaults and builds the Live shell (no goroutine).
func newLive(strategy core.Strategy, cfg LiveConfig) *Live {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 50 * time.Millisecond
	}
	if cfg.K == nil {
		cfg.K = core.NewAdaptiveK()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsv.NewRegistry()
	}
	l := &Live{
		cfg:      cfg,
		strategy: strategy,
		incoming: make(chan []*profile.Profile, 64),
		prepped:  make(chan preppedInc, 2),
		ctrl:     make(chan ckptReq),
		intr:     make(chan struct{}),
		done:     make(chan struct{}),
		reg:      cfg.Metrics,
		m:        newLiveMetrics(cfg.Metrics),
	}
	l.m.k.Set(int64(cfg.K.Current()))
	return l
}

// Push feeds one data increment to the pipeline. It blocks only when the
// pipeline's input buffer is full — the natural backpressure of the paper's
// data-reading stage slowing down the sources. Push after Stop or Interrupt
// returns ErrStopped (it used to panic; the error return lets stream sources
// race benignly with shutdown).
func (l *Live) Push(increment []*profile.Profile) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrStopped
	}
	// The send happens under l.mu so a concurrent Stop cannot close the
	// channel mid-send; the pipeline goroutine keeps draining, so a full
	// buffer still makes progress. The acknowledgment counter rises before
	// the send: by the time Push returns, the increment is both counted and
	// in flight, so a later checkpoint drain knows to wait for it.
	l.pushed.Add(1)
	l.incoming <- increment
	return nil
}

// Stats returns the current comparison and match counters. It reads the same
// instruments the final Summary is built from, so the two always agree.
func (l *Live) Stats() (comparisons, matches int) {
	return int(l.m.cmps.Value()), int(l.m.matches.Value())
}

// Err returns the first abnormal condition observed so far, or nil: a
// batch-voiding worker panic (as a *pool.PanicError; not fatal — the batch's
// comparisons were requeued and the pipeline keeps running), a spill file
// that could not be written (not fatal either — the store keeps its state
// resident and stops spilling), or a Drive that lost increments to a
// concurrent shutdown (wrapping ErrStopped). Embedders may want to log or
// alert on it.
func (l *Live) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.batchErr
}

func (l *Live) setErr(err error) {
	l.mu.Lock()
	if l.batchErr == nil {
		l.batchErr = err
	}
	l.mu.Unlock()
}

// observeStorage reports the storage backends after a publication: the
// spill counters advance by the index's disk traffic since the previous
// call, the resident gauge is set, and the first failed spill write of
// either store goes to Err once. A no-op without a storage budget.
func (l *Live) observeStorage(st *liveState) {
	if !l.cfg.Storage.Enabled() {
		return
	}
	now := st.col.StorageStats()
	l.m.spillFaultIns.Add(int(now.FaultIns - st.spillSeen.FaultIns))
	l.m.spillSegWrites.Add(int(now.SegmentWrites - st.spillSeen.SegmentWrites))
	l.m.spillSegBytes.Add(int(now.SegmentBytes - st.spillSeen.SegmentBytes))
	st.spillSeen = now
	l.m.storageResident.Set(st.col.StorageResidentBytes())
	if st.storageErrSeen {
		return
	}
	err := st.col.StorageErr()
	if err == nil {
		err = st.executed.Err()
	}
	if err != nil {
		st.storageErrSeen = true
		l.setErr(err)
	}
}

// Snapshot returns a point-in-time view of the pipeline's internals. It is
// safe to call from any goroutine, while the pipeline runs or after Stop.
func (l *Live) Snapshot() LiveSnapshot {
	return LiveSnapshot{
		Profiles:        int(l.m.profiles.Value()),
		Increments:      int(l.m.increments.Value()),
		Comparisons:     int(l.m.cmps.Value()),
		Matches:         int(l.m.matches.Value()),
		NewLinks:        int(l.m.newLinks.Value()),
		SkippedEvicted:  int(l.m.skipped.Value()),
		WindowEvictions: int(l.m.evictions.Value()),
		K:               int(l.m.k.Value()),
		Pending:         int(l.m.pending.Value()),
		RetryPending:    int(l.m.retryPending.Value()),
		DedupEntries:    int(l.m.dedup.Value()),
	}
}

// Registry returns the metrics registry the pipeline reports into — either
// LiveConfig.Metrics or the private registry created for this run. Serve it
// over HTTP with Registry().Handler() or publish it via PublishExpvar.
func (l *Live) Registry() *obsv.Registry { return l.reg }

// Stop closes the stream, waits for the pipeline to drain all remaining
// prioritized work, and returns the result. Stop is idempotent: further calls
// return the same result.
func (l *Live) Stop() *LiveResult {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.incoming)
	}
	l.mu.Unlock()
	<-l.done
	return l.result
}

// Interrupt ends the run without draining: queued comparisons are left where
// they are, the result is marked Interrupted, and the pipeline state stays
// intact — Checkpoint still works afterwards, which is how a controlled
// shutdown (or the fault harness's simulated crash) preserves an in-flight
// run. Increments already acknowledged by Push are folded into the index
// before the loop exits, so a post-Interrupt checkpoint never loses
// acknowledged data (Pushes racing with Interrupt from other goroutines are
// not covered by that guarantee). Interrupt is idempotent and may follow
// Stop (aborting the drain).
func (l *Live) Interrupt() *LiveResult {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.incoming) // ends the prep goroutine
	}
	if !l.interrupted {
		l.interrupted = true
		close(l.intr)
	}
	l.mu.Unlock()
	<-l.done
	return l.result
}

// Close releases the pipeline's storage backends, removing any spill files.
// It must follow Stop or Interrupt (the state must be quiescent); it is a
// no-op for the default in-memory backends, so callers that never set
// LiveConfig.Storage may skip it. Close is idempotent but the state is not
// usable — not even checkpointable — afterwards.
func (l *Live) Close() error {
	select {
	case <-l.done:
	default:
		return errors.New("stream: Live.Close before Stop/Interrupt")
	}
	err := l.st.col.Close()
	if derr := l.st.executed.Close(); err == nil {
		err = derr
	}
	return err
}

// loop is the pipeline goroutine: a wall-clock analogue of Run operating on
// the hoisted state st.
func (l *Live) loop(st *liveState) {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.TickEvery)
	defer ticker.Stop()

	// ingested counts increments taken off the prep stage, monotonically
	// approaching l.pushed; only this goroutine touches it.
	var ingested int64

	ingest := func(pi preppedInc) {
		ingested++
		inc := pi.inc
		t0 := time.Now()
		st.col.AddBatchPrepared(inc, pi.syms, nil)
		st.res.Profiles += len(inc)
		if l.cfg.Window > 0 {
			for _, p := range inc {
				st.windowIDs = append(st.windowIDs, p.ID)
			}
		}
		if l.cfg.Window > 0 {
			for len(st.windowIDs) > l.cfg.Window {
				st.col.Remove(st.windowIDs[0])
				st.windowIDs = st.windowIDs[1:]
				st.evictedSinceSweep++
				l.m.evictions.Inc()
			}
			// Prune dedup entries of long-gone profiles once a full
			// window has turned over: without this the executed map
			// grows without bound on an unbounded stream. Sweeping
			// every Window evictions amortizes the O(|map|) scan to
			// O(1) per eviction while keeping the map proportional
			// to the profiles seen since the previous sweep.
			if st.evictedSinceSweep >= l.cfg.Window {
				st.evictedSinceSweep = 0
				// Collect first, delete after: DedupStore.Range does not
				// permit mutation from inside the callback.
				dead := st.scratch.dead
				st.executed.Range(func(key uint64) bool {
					x, y := profile.SplitPairKey(key)
					if st.col.Profile(x) == nil || st.col.Profile(y) == nil {
						dead = append(dead, key)
					}
					return true
				})
				for _, key := range dead {
					st.executed.Delete(key)
				}
				st.scratch.dead = recycle(dead)
			}
		}
		// One atomic publication per increment: queries switch from the
		// previous index version to this one, never observing a half-applied
		// increment. Publishing before UpdateIndex lets queries see the new
		// profiles while the strategy is still weighing.
		st.col.PublishSnapshot()
		l.observeStorage(st)
		l.strategy.UpdateIndex(st.col, inc)
		now := time.Now()
		if !st.lastArrival.IsZero() {
			l.cfg.K.ObserveArrival(now.Sub(st.lastArrival))
		}
		st.lastArrival = now
		l.m.profiles.Add(len(inc))
		l.m.increments.Inc()
		l.m.incSize.Observe(float64(len(inc)))
		l.m.ingestSec.Observe(time.Since(t0).Seconds())
		l.m.dedup.Set(int64(st.executed.Len()))
	}

	matchPool := pool.New(l.cfg.Parallelism).Instrument(l.m.matchBusy, nil)
	// serialPool runs batches under the fork grain inline on the pipeline
	// goroutine, with the same panic isolation TryForEach gives the fork.
	serialPool := pool.New(1)
	// prober, when the fallible matcher exposes its breaker, drives the
	// degraded mode: an open breaker caps K at core.KMin.
	var prober interface{ BreakerOpen() bool }
	if l.cfg.ContextMatcher != nil {
		prober, _ = l.cfg.ContextMatcher.(interface{ BreakerOpen() bool })
	}

	processBatch := func() { l.processBatch(st, matchPool, serialPool, prober) }

	// drainBuffered folds every increment acknowledged by Push — whether
	// it is still in the incoming channel, inside the prep stage, or parked
	// on the prepped channel — into the index. Push acknowledged them, so a
	// snapshot taken now — via Checkpoint or after Interrupt — must contain
	// them: acknowledged data survives a restore. Receiving from prepped
	// (blocking, up to the acknowledgment count observed on entry) is what
	// flushes the prep stage: its only other blocking operation is reading
	// incoming, so everything counted flows through here.
	drainBuffered := func() {
		target := l.pushed.Load()
		for ingested < target {
			pi, ok := <-l.prepped
			if !ok {
				return
			}
			ingest(pi)
		}
	}

	open := true
	for open {
		select {
		case pi, ok := <-l.prepped:
			if !ok {
				open = false
				break
			}
			ingest(pi)
			processBatch()
		case req := <-l.ctrl:
			drainBuffered()
			b, err := l.writeSnapshot(req.w, st)
			req.reply <- ckptRes{bytes: b, err: err}
		case <-l.intr:
			drainBuffered()
			st.res.Interrupted = true
			open = false
		case <-ticker.C:
			if l.strategy.Pending() == 0 {
				l.strategy.UpdateIndex(st.col, nil)
			}
			processBatch()
		}
	}
	// Stream closed: drain all remaining prioritized work — strategy queues
	// AND the retry backlog — unless the run was interrupted. A pass that
	// makes no progress (every job failing while the breaker is open) backs
	// off briefly so the drain doesn't spin against a recovering matcher.
	interrupted := func() bool {
		select {
		case <-l.intr:
			return true
		default:
			return false
		}
	}
	for !st.res.Interrupted {
		if interrupted() {
			st.res.Interrupted = true
			break
		}
		select {
		case req := <-l.ctrl:
			b, err := l.writeSnapshot(req.w, st)
			req.reply <- ckptRes{bytes: b, err: err}
		default:
		}
		beforeCmps := l.m.cmps.Value()
		beforeRetry := len(st.retryQ)
		processBatch()
		if l.strategy.Pending() > 0 {
			continue
		}
		if len(st.retryQ) > 0 {
			if l.m.cmps.Value() == beforeCmps && len(st.retryQ) >= beforeRetry {
				time.Sleep(time.Millisecond) // let a breaker cooldown elapse
			}
			continue
		}
		l.strategy.UpdateIndex(st.col, nil)
		if l.strategy.Pending() == 0 {
			break
		}
	}
	// The final drain faulted blocks in and may have sealed dedup segments
	// since the last publication.
	l.observeStorage(st)
	// The executed map is pruned under Window, so the counter — not the
	// map size — is the source of truth for total comparisons. It equals
	// len(executed) exactly when no pruning happened.
	res := &LiveResult{
		Profiles:    st.res.Profiles,
		Comparisons: int(l.m.cmps.Value()),
		Matches:     int(l.m.matches.Value()),
		NewLinks:    st.res.NewLinks,
		Clusters:    st.clusters.Clusters(2),
		Elapsed:     time.Since(st.start),
		Interrupted: st.res.Interrupted,
	}
	res.Curve = st.rec.Finish(res.Elapsed)
	if l.cfg.CheckInvariants {
		l.verifyAccounting(st)
		if c, m := l.Stats(); res.Comparisons != c || res.Matches != m {
			panic(fmt.Sprintf("stream: LiveResult (%d cmps, %d matches) disagrees with Stats() (%d, %d)",
				res.Comparisons, res.Matches, c, m))
		}
	}
	l.result = res
}

// job is one comparison prepared for the matcher.
type job struct {
	key      uint64
	px, py   *profile.Profile
	attempts int
	sim      float64
	ok       bool
	err      error
}

// processBatch executes one findK-sized batch: retry backlog first, then
// fresh strategy work; similarity in parallel with panic isolation; then the
// sequential classify/cluster/record phase. Failed comparisons are requeued,
// a panicked batch is voided and fully requeued. Its cost follows the
// comparisons it assembles, never K: a call that assembles none allocates
// nothing and touches neither pool.
func (l *Live) processBatch(st *liveState, matchPool, serialPool *pool.Pool, prober interface{ BreakerOpen() bool }) {
	k := l.cfg.K.K()
	l.m.k.Set(int64(k))
	jobs := l.assembleBatch(st, k)
	if len(jobs) > 0 {
		l.matchBatch(st, jobs, matchPool, serialPool)
	}
	st.scratch.jobs = recycle(jobs)
	l.finishBatch(st, prober)
}

// assembleBatch is phase 1 (sequential): it fills the scratch slab with up to
// k jobs. The retry backlog goes first — those pairs are already marked
// executed and must complete before new work competes for the matcher; then
// fresh strategy work up to k, which the strategy's Dequeue marked as it
// handed it out. The slab grows with what is assembled, not with k.
func (l *Live) assembleBatch(st *liveState, k int) []job {
	jobs := st.scratch.jobs
	nRetry := min(len(st.retryQ), k)
	for _, rj := range st.retryQ[:nRetry] {
		px, py := st.col.Profile(rj.x), st.col.Profile(rj.y)
		if px == nil || py == nil {
			// Evicted while waiting for retry: skipped, like any other
			// emitted comparison that lost its profiles, and removed from
			// the executed-pair set since it will never be counted.
			l.m.skipped.Inc()
			st.executed.Delete(rj.key)
			continue
		}
		jobs = append(jobs, job{key: rj.key, px: px, py: py, attempts: rj.attempts})
	}
	if nRetry > 0 {
		// Copied down in place; a queue that a failure storm grew past the
		// scratch bound is let go once it has emptied.
		st.retryQ = st.retryQ[:copy(st.retryQ, st.retryQ[nRetry:])]
		if len(st.retryQ) == 0 {
			st.retryQ = recycle(st.retryQ)
		}
	}

	emitted := core.AppendBatch(st.scratch.emitted, l.strategy, k-len(jobs))
	jobs = slices.Grow(jobs, len(emitted))
	// A comparison whose profile was evicted is skipped and unmarked: it
	// will never be counted, and the set must agree with the Stats()
	// counters.
	for _, c := range emitted {
		key := c.Key()
		px, py := st.col.Profile(c.X), st.col.Profile(c.Y)
		if px == nil || py == nil {
			l.m.skipped.Inc()
			st.executed.Delete(key)
			continue
		}
		jobs = append(jobs, job{key: key, px: px, py: py})
	}
	if len(emitted) > 0 || nRetry > 0 {
		l.m.batchSize.Observe(float64(len(jobs)))
		l.m.batchFill.Observe(float64(len(jobs)) / float64(k))
	}
	st.scratch.emitted = recycle(emitted)
	return jobs
}

// matchBatch runs phases 2 and 3 over a non-empty batch.
func (l *Live) matchBatch(st *liveState, jobs []job, matchPool, serialPool *pool.Pool) {
	// Phase 2: similarity computation — the expensive, possibly fallible
	// part — fanned out across the worker pool when the batch carries more
	// measured work than forkGrain, and run inline otherwise. Verdicts land
	// in the jobs slice indexed by batch position, so phase 3 sees the same
	// sequence regardless of worker count. Both paths recover worker panics;
	// a panicked batch is voided below.
	evaluate := func(i int) {
		j := &jobs[i]
		if l.cfg.ContextMatcher != nil {
			ok, err := l.cfg.ContextMatcher.Match(context.Background(), j.px, j.py)
			j.ok, j.err = ok, err
			if ok {
				j.sim = 1
			}
		} else {
			j.sim = l.cfg.Matcher.Similarity(j.px, j.py)
			j.ok = j.sim >= l.cfg.Matcher.Threshold
		}
	}
	workers, sec := serialPool, l.m.seqSec
	if forkBatch(len(jobs), matchPool.Workers(), l.cfg.K.ServiceTime()) {
		workers, sec = matchPool, l.m.parSec
	}
	t0 := time.Now()
	if err := workers.TryForEach(len(jobs), evaluate); err != nil {
		// A worker panicked: the batch fails deterministically as a whole.
		// Partial verdicts are void (there is no record of which workers
		// finished), nothing is counted, and every job is requeued — the
		// panic poisons the batch, not the comparisons.
		l.m.batchFailures.Inc()
		l.setErr(err)
		for _, j := range jobs {
			l.requeue(st, j)
		}
		return
	}
	// Service time per comparison as the matcher stage sees it: wall time
	// divided by batch size (workers overlap). The same clock read stamps
	// every comparison of the batch on the progress curve.
	end := time.Now()
	elapsed := end.Sub(t0)
	l.cfg.K.ObserveService(elapsed / time.Duration(len(jobs)))
	sec.Observe(elapsed.Seconds())
	at := end.Sub(st.start)

	// Phase 3 (sequential): classification, clustering, reporting. Failed
	// comparisons are requeued, not classified — the matcher returned no
	// verdict, and inventing one would corrupt both PC accounting and the
	// cluster graph.
	for _, j := range jobs {
		if j.err != nil {
			l.m.matchFailures.Inc()
			l.requeue(st, j)
			continue
		}
		l.m.cmps.Inc()
		if j.ok {
			l.m.matches.Inc()
			st.res.Matches++
			if st.clusters.Merge(j.px.ID, j.py.ID) {
				st.res.NewLinks++
				l.m.newLinks.Inc()
			}
			if l.cfg.OnMatch != nil {
				l.cfg.OnMatch(LiveMatch{X: j.px, Y: j.py, Similarity: j.sim, At: time.Now()})
			}
		}
		st.rec.Observe(at, j.key)
		if l.cfg.OnExecuted != nil {
			l.cfg.OnExecuted(j.key)
		}
	}
}

// forkGrain is the least matcher work a batch must carry — its job count
// times the measured per-comparison service time — before matchBatch forks
// it over the match pool; lighter batches run inline on the pipeline
// goroutine. Measured with pool.TryForEach over 2 workers on 2 vCPUs (Go
// 1.24.0, Intel Xeon), medians of three 2000x runs, each fork following
// 55 µs of serial work on the calling goroutine the way the live loop's
// forks follow emission: batches of 0.4 µs tasks took 37 µs forked against
// 24 µs inline at 64 tasks, 119 against 104 µs at 256 and 161 against
// 144 µs at 384, then won: 150 against 202 µs at 512 and 166 against
// 255 µs at 640. A back-to-back fork/join costs only 1.1–1.3 µs more than
// the inline loop, but a fork that finds the second worker's thread parked
// pays for waking it. With the grain at 50 µs, burst-default (Jaccard) ran
// 10% slower than with the fork off. The fork pays from about 200 µs.
const forkGrain = 250 * time.Microsecond

// forkBatch reports whether a batch of n jobs is worth forking over workers
// when one comparison has been measured to take svc. Before the first
// measurement svc is zero, so the first batch runs inline and measures it.
// Near the grain a forked batch reads a lower per-comparison wall time and
// the next batch may run inline again; both sides cost about the same there.
func forkBatch(n, workers int, svc time.Duration) bool {
	return workers > 1 && n > 1 && time.Duration(n)*svc > forkGrain
}

// requeue places a failed job back on the retry queue, or abandons it once
// RetryBudget is exhausted. An abandoned pair stays marked executed, so a
// leftover scan never emits it again; the accounting counts it apart.
func (l *Live) requeue(st *liveState, j job) {
	attempts := j.attempts + 1
	if l.cfg.RetryBudget > 0 && attempts > l.cfg.RetryBudget {
		l.m.abandoned.Inc()
		return
	}
	l.m.requeues.Inc()
	st.retryQ = append(st.retryQ, retryJob{key: j.key, x: j.px.ID, y: j.py.ID, attempts: attempts})
}

// finishBatch updates the per-batch gauges, drives the degraded-mode cap off
// the matcher's breaker, and runs the accounting invariants.
func (l *Live) finishBatch(st *liveState, prober interface{ BreakerOpen() bool }) {
	if prober != nil {
		if prober.BreakerOpen() {
			if !l.cfg.K.Capped() {
				l.cfg.K.SetCap(core.KMin)
				l.m.degraded.Set(1)
			}
		} else if l.cfg.K.Capped() {
			l.cfg.K.ClearCap()
			l.m.degraded.Set(0)
		}
	}
	l.m.pending.Set(int64(l.strategy.Pending()))
	l.m.retryPending.Set(int64(len(st.retryQ)))
	l.m.dedup.Set(int64(st.executed.Len()))
	if l.cfg.CheckInvariants {
		l.verifyAccounting(st)
	}
}

// verifyAccounting checks the pipeline's dedup/counter invariants between
// batches (LiveConfig.CheckInvariants). It runs on the pipeline goroutine, so
// the executed-pair set, retry queue, and counters are mutually consistent
// at the call point.
func (l *Live) verifyAccounting(st *liveState) {
	cmps := int(l.m.cmps.Value())
	matches := int(l.m.matches.Value())
	if matches > cmps {
		panic(fmt.Sprintf("stream: %d matches exceed %d comparisons", matches, cmps))
	}
	// Every marked pair was counted exactly once, is awaiting retry, or was
	// abandoned; pruning under Window only ever removes entries, so the set
	// can fall below the sum but never above it — and with pruning disabled
	// the two are equal.
	abandoned := int(l.m.abandoned.Value())
	if st.executed.Len() > cmps+len(st.retryQ)+abandoned {
		panic(fmt.Sprintf("stream: dedup map holds %d pairs but only %d comparisons were counted (+%d retrying, +%d abandoned)",
			st.executed.Len(), cmps, len(st.retryQ), abandoned))
	}
	if l.cfg.Window <= 0 && st.executed.Len() != cmps+len(st.retryQ)+abandoned {
		panic(fmt.Sprintf("stream: dedup map holds %d pairs but %d comparisons were counted, %d are retrying and %d were abandoned (no pruning active)",
			st.executed.Len(), cmps, len(st.retryQ), abandoned))
	}
	if g := int(l.m.dedup.Value()); g != st.executed.Len() {
		panic(fmt.Sprintf("stream: dedup gauge %d disagrees with map size %d", g, st.executed.Len()))
	}
}

// Drive pushes the dataset increments into a live pipeline at the given rate
// (increments per second; <= 0 pushes as fast as possible), respecting ctx
// cancellation — including during the inter-increment pause — then stops the
// pipeline and returns the result. Cancellation interrupts rather than
// drains: the result comes back promptly with Interrupted set, and the
// pipeline remains checkpointable. stream's tests drive runs with it.
func Drive(ctx context.Context, l *Live, incs [][]*profile.Profile, rate float64) *LiveResult {
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	for i, inc := range incs {
		select {
		case <-ctx.Done():
			return l.Interrupt()
		default:
		}
		if err := l.Push(inc); err != nil {
			// The stream was closed under us (a concurrent Stop or
			// Interrupt). The remaining increments are lost — record that,
			// or the truncated run would be indistinguishable from a clean
			// completion through Err().
			l.setErr(fmt.Errorf("stream: Drive: push increment %d of %d: %w", i+1, len(incs), err))
			return l.Stop()
		}
		if interval > 0 && i < len(incs)-1 {
			// A timer + select instead of time.Sleep so cancellation
			// interrupts the pause instead of waiting it out.
			t := time.NewTimer(interval)
			select {
			case <-ctx.Done():
				t.Stop()
				return l.Interrupt()
			case <-t.C:
			}
		}
	}
	return l.Stop()
}

// ---------------------------------------------------------------------------
// Checkpoint / restore

// liveMeta is the snapshot's identity section: the restore-time configuration
// must reproduce it exactly, because strategy state and window accounting are
// only meaningful under the configuration that produced them.
type liveMeta struct {
	Strategy     string
	CleanClean   bool
	Window       int
	MaxBlockSize int
}

// Accounting is the snapshot image of the pipeline's bookkeeping: the
// executed-pair set, window order, retry backlog, and the cumulative
// counters. Since format v4 the accounting section is its flat image
// (AppendImage, DecodeAccounting); formats v2 and v3 wrote it with gob, which
// RestoreLive still decodes into the same type.
type Accounting struct {
	// Executed is the executed-pair set, strictly ascending in the flat
	// image.
	Executed          []uint64
	WindowIDs         []int
	EvictedSinceSweep int
	Retry             []retryImage

	Profiles   int64
	Increments int64
	Cmps       int64
	Matches    int64
	NewLinks   int64
	Skipped    int64
	Evictions  int64
	// Abandoned pairs stay in Executed; images from before that rule
	// deleted them and decode this as 0.
	Abandoned int64

	ElapsedNS int64
}

type retryImage struct {
	Key      uint64
	X, Y     int
	Attempts int
}

// AppendImage appends the flat image of a to buf: the executed pairs as a
// snapshot key set, the window order as a posting run, then the sweep count,
// the retry backlog and the counters as varints.
func (a *Accounting) AppendImage(buf []byte) []byte {
	buf = snapshot.AppendSet(buf, a.Executed)
	buf = storage.AppendRun(buf, a.WindowIDs)
	buf = binary.AppendVarint(buf, int64(a.EvictedSinceSweep))
	buf = binary.AppendUvarint(buf, uint64(len(a.Retry)))
	for _, r := range a.Retry {
		buf = binary.AppendUvarint(buf, r.Key)
		buf = binary.AppendVarint(buf, int64(r.X))
		buf = binary.AppendVarint(buf, int64(r.Y))
		buf = binary.AppendVarint(buf, int64(r.Attempts))
	}
	for _, v := range a.counters() {
		buf = binary.AppendVarint(buf, *v)
	}
	return buf
}

// counters lists the image's int64 fields in their order in the flat image.
func (a *Accounting) counters() [9]*int64 {
	return [9]*int64{&a.Profiles, &a.Increments, &a.Cmps, &a.Matches, &a.NewLinks,
		&a.Skipped, &a.Evictions, &a.Abandoned, &a.ElapsedNS}
}

// DecodeAccounting reads an image AppendImage wrote. Every count is checked
// against the bytes left before anything is allocated for it, and an image it
// accepts re-encodes to data.
func DecodeAccounting(data []byte) (Accounting, error) {
	d := snapshot.NewDecoder(data)
	a := Accounting{Executed: d.Set()}
	if d.Err() == nil {
		ids, rest, err := storage.ReadRun(d.Unread())
		if err != nil {
			d.Failf("window order: %v", err)
		} else {
			a.WindowIDs = ids
			d.Advance(rest)
		}
	}
	a.EvictedSinceSweep = d.Int()
	// A retry entry takes at least four bytes, one per field.
	if n := d.Count(4); n > 0 {
		a.Retry = make([]retryImage, n)
		for i := range a.Retry {
			a.Retry[i] = retryImage{Key: d.Uvarint(), X: d.Int(), Y: d.Int(), Attempts: d.Int()}
		}
	}
	for _, v := range a.counters() {
		*v = d.Varint()
	}
	if err := d.Finish(); err != nil {
		return Accounting{}, fmt.Errorf("stream: accounting image: %w", err)
	}
	return a, nil
}

// Checkpoint writes a consistent snapshot of the entire pipeline state to w
// and returns the number of bytes written. While the pipeline is running, the
// write is serviced by the pipeline goroutine between batches, so no batch is
// ever split by a checkpoint; after Stop or Interrupt it runs directly. The
// strategy must implement core.Persistent or Checkpoint fails.
func (l *Live) Checkpoint(w io.Writer) (int64, error) {
	select {
	case <-l.done:
		return l.writeSnapshot(w, l.st)
	default:
	}
	req := ckptReq{w: w, reply: make(chan ckptRes, 1)}
	select {
	case l.ctrl <- req:
		select {
		case r := <-req.reply:
			return r.bytes, r.err
		case <-l.done:
			// The loop exited while holding the request; it may have
			// answered just before closing, otherwise write directly.
			select {
			case r := <-req.reply:
				return r.bytes, r.err
			default:
				return l.writeSnapshot(w, l.st)
			}
		}
	case <-l.done:
		return l.writeSnapshot(w, l.st)
	}
}

// writeSnapshot serializes st to w. Called either on the pipeline goroutine
// (running pipeline) or on the caller's after done closed (quiescent state —
// the channel close is the happens-before edge).
func (l *Live) writeSnapshot(w io.Writer, st *liveState) (int64, error) {
	p, ok := l.strategy.(core.Persistent)
	if !ok {
		return 0, fmt.Errorf("stream: strategy %s does not support checkpointing", l.strategy.Name())
	}
	t0 := time.Now()
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return 0, err
	}
	meta := liveMeta{
		Strategy:     l.strategy.Name(),
		CleanClean:   l.cfg.CleanClean,
		Window:       l.cfg.Window,
		MaxBlockSize: l.cfg.MaxBlockSize,
	}
	sw.Gob("meta", &meta)
	col, err := st.col.AppendImage(nil)
	if err != nil {
		l.observeStorage(st) // the failed read goes to Err
		return sw.Bytes(), err
	}
	sw.Flat("collection", col)
	sw.Section("strategy", p.SaveState)
	kst := l.cfg.K.State()
	sw.Gob("findk", &kst)
	cst := st.clusters.State()
	sw.Gob("clusters", &cst)
	rst := st.rec.State()
	sw.Gob("recorder", &rst)
	acc := Accounting{
		Executed:          make([]uint64, 0, st.executed.Len()),
		WindowIDs:         st.windowIDs,
		EvictedSinceSweep: st.evictedSinceSweep,
		Retry:             make([]retryImage, 0, len(st.retryQ)),
		Profiles:          int64(l.m.profiles.Value()),
		Increments:        int64(l.m.increments.Value()),
		Cmps:              int64(l.m.cmps.Value()),
		Matches:           int64(l.m.matches.Value()),
		NewLinks:          int64(l.m.newLinks.Value()),
		Skipped:           int64(l.m.skipped.Value()),
		Evictions:         int64(l.m.evictions.Value()),
		Abandoned:         int64(l.m.abandoned.Value()),
		ElapsedNS:         int64(time.Since(st.start)),
	}
	if err := st.executed.Range(func(key uint64) bool {
		acc.Executed = append(acc.Executed, key)
		return true
	}); err != nil {
		l.observeStorage(st)
		return sw.Bytes(), fmt.Errorf("stream: checkpoint of the executed pairs: %w", err)
	}
	storage.SortKeys(acc.Executed, nil)
	for _, rj := range st.retryQ {
		acc.Retry = append(acc.Retry, retryImage{Key: rj.key, X: rj.x, Y: rj.y, Attempts: rj.attempts})
	}
	if err := sw.Flat("accounting", acc.AppendImage(col[:0])); err != nil {
		return sw.Bytes(), err
	}
	l.m.ckptTotal.Inc()
	l.m.ckptBytes.Set(sw.Bytes())
	l.m.ckptSec.Observe(time.Since(t0).Seconds())
	return sw.Bytes(), nil
}

// RestoreLive reconstructs a live pipeline from a checkpoint and resumes it.
// strategy must be a freshly constructed instance of the same strategy and
// configuration that wrote the snapshot (its state is loaded from the
// snapshot); cfg must reproduce the original CleanClean/Window/MaxBlockSize/
// Keyer, and should use a fresh metrics registry — the cumulative counters
// are restored by adding the checkpointed values, so a shared registry with
// prior counts would double-count. The restored pipeline continues exactly
// where the checkpoint was taken: same queue order, same dedup state, same
// retry backlog, same adaptive-K trajectory.
func RestoreLive(r io.Reader, strategy core.Strategy, cfg LiveConfig) (*Live, error) {
	t0 := time.Now()
	p, ok := strategy.(core.Persistent)
	if !ok {
		return nil, fmt.Errorf("stream: strategy %s does not support checkpointing", strategy.Name())
	}
	cr := &countingReader{r: r}
	sr, err := snapshot.NewReader(cr)
	if err != nil {
		return nil, err
	}
	var meta liveMeta
	if err := sr.Gob("meta", &meta); err != nil {
		return nil, err
	}
	if meta.Strategy != strategy.Name() {
		return nil, fmt.Errorf("stream: snapshot was written by strategy %s, restoring into %s", meta.Strategy, strategy.Name())
	}
	if meta.CleanClean != cfg.CleanClean || meta.Window != cfg.Window || meta.MaxBlockSize != cfg.MaxBlockSize {
		return nil, fmt.Errorf("stream: snapshot configuration (cleanClean=%v window=%d maxBlockSize=%d) does not match restore configuration (cleanClean=%v window=%d maxBlockSize=%d)",
			meta.CleanClean, meta.Window, meta.MaxBlockSize, cfg.CleanClean, cfg.Window, cfg.MaxBlockSize)
	}
	postCfg, dedupCfg := splitStorage(cfg.Storage)
	flat := sr.Version() >= 4
	var col *blocking.Collection
	if flat {
		data, err := sr.Flat("collection")
		if err == nil {
			col, err = blocking.DecodeImage(data, cfg.Keyer, cfg.Shards, postCfg)
		}
		if err != nil {
			return nil, err
		}
	} else if err := sr.Section("collection", func(r io.Reader) error {
		var err error
		col, err = blocking.DecodeGobImage(r, cfg.Keyer, cfg.Shards, postCfg)
		return err
	}); err != nil {
		return nil, err
	}
	// From here on a failure must release the collection's spill files.
	fail := func(err error) (*Live, error) {
		col.Close()
		return nil, err
	}
	if err := sr.Section("strategy", p.LoadState); err != nil {
		return fail(err)
	}
	var kst core.KState
	if err := sr.Gob("findk", &kst); err != nil {
		return fail(err)
	}
	if err := kst.Check(); err != nil {
		return fail(err)
	}
	// Non-nil maps bound what a damaged gob count can allocate (DESIGN.md §9).
	cst := cluster.State{Parent: map[int]int{}, Size: map[int]int{}}
	if err := sr.Gob("clusters", &cst); err != nil {
		return fail(err)
	}
	if cfg.Assigned != nil {
		for id := range cst.Parent {
			if !cfg.Assigned(id) {
				return fail(fmt.Errorf("stream: snapshot clusters name profile %d, which was never assigned", id))
			}
		}
		for _, id := range col.ProfileIDs() {
			if !cfg.Assigned(id) {
				return fail(fmt.Errorf("stream: snapshot collection holds profile %d, which was never assigned", id))
			}
		}
	}
	clusters, err := cluster.Restore(cst)
	if err != nil {
		return fail(err)
	}
	var rst metrics.RecorderState
	if err := sr.Gob("recorder", &rst); err != nil {
		return fail(err)
	}
	var acc Accounting
	if flat {
		data, err := sr.Flat("accounting")
		if err == nil {
			acc, err = DecodeAccounting(data)
		}
		if err != nil {
			return fail(err)
		}
	} else {
		if err := sr.Gob("accounting", &acc); err != nil {
			return fail(err)
		}
		slices.Sort(acc.Executed)
		acc.Executed = slices.Compact(acc.Executed)
	}

	l := newLive(strategy, cfg)
	l.cfg.K.RestoreState(kst)
	l.m.profiles.Add(int(acc.Profiles))
	l.m.increments.Add(int(acc.Increments))
	l.m.cmps.Add(int(acc.Cmps))
	l.m.matches.Add(int(acc.Matches))
	l.m.newLinks.Add(int(acc.NewLinks))
	l.m.skipped.Add(int(acc.Skipped))
	l.m.evictions.Add(int(acc.Evictions))
	l.m.abandoned.Add(int(acc.Abandoned))
	l.m.k.Set(int64(l.cfg.K.Current()))

	st := &liveState{
		col:               col,
		clusters:          clusters,
		rec:               metrics.RestoreRecorder(rst, l.cfg.GroundTruth),
		executed:          storage.LoadDedupStore(dedupCfg, acc.Executed),
		windowIDs:         acc.WindowIDs,
		evictedSinceSweep: acc.EvictedSinceSweep,
		res: &liveCounters{
			Profiles: int(acc.Profiles),
			Matches:  int(acc.Matches),
			NewLinks: int(acc.NewLinks),
		},
		start: time.Now().Add(-time.Duration(acc.ElapsedNS)),
	}
	for _, ri := range acc.Retry {
		st.retryQ = append(st.retryQ, retryJob{key: ri.Key, x: ri.X, y: ri.Y, attempts: ri.Attempts})
	}
	l.m.dedup.Set(int64(st.executed.Len()))
	l.m.retryPending.Set(int64(len(st.retryQ)))
	// Republish the restored index so post-restore queries see it from the
	// first call, exactly as after LiveRun.
	st.col.PublishSnapshot()
	l.observeStorage(st)
	l.m.restoreBytes.Set(cr.n)
	l.m.restoreSec.Observe(time.Since(t0).Seconds())
	l.start(st)
	return l, nil
}

// countingReader counts the bytes read through it, for the restored
// checkpoint's size.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
