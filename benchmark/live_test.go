package benchmark

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"pier"
	"pier/internal/cluster"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/profile"
)

// This file drives one repetition of a workload through the public pier API
// with tracing off, from at most two goroutines — the caller pushes, one
// goroutine probes — and checks the outputs.

// matchRec is one pair reported through OnMatch, by stream position.
type matchRec struct{ x, y int }

// repResult is what one repetition measured.
type repResult struct {
	variant  int // which of the run's datasets the repetition ran on
	profiles int
	wall     time.Duration // first Push to Stop returning
	drain    time.Duration // last Push returning to Stop returning
	tPC80    time.Duration
	reached  bool // found pairs reached recallTarget of ground truth
	aucCmp   float64
	aucTime  float64
	pcFinal  float64
	ckpt     []float64 // s, one per checkpoint cycle
	restore  []float64 // s, one per checkpoint cycle

	queryBusy []float64 // us, successful queries beside the pushes
	queryIdle []float64 // us, successful queries after Stop

	// Operation counts: every Push, every Query and every output check is one
	// operation. refused counts Push and Query calls that returned an error;
	// failed counts those plus wrong query answers and failed output checks.
	attempted int
	failed    int
	refused   int
	rejected  int // queries refused by the admission gate (part of refused)
	tieCuts   int // probe answers that lost the probed profile to a top-K cut among equal weights
	problems  []string

	matches   []matchRec
	pushLate  []float64 // ms
	queryLate []float64 // us
	matchLag  []float64 // ms
	kSamples  []float64
	pendMax   int

	// Filled only on instrumented repetitions (traced runs).
	allocBytes uint64
	gcCPU      float64
	heapPeak   uint64
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check counts one output check and records its failure.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// repConfig selects what a repetition does beyond the timed protocol.
type repConfig struct {
	// increments limits the repetition to a prefix of the stream (warm-up);
	// 0 pushes everything.
	increments int
	// reference, when set, is the matched-pair set the repetition's own must
	// equal (spill-burst against its budget-0 twin).
	reference map[uint64]struct{}
	// instrument reads runtime counters around the repetition.
	instrument bool
	// seed varies the probe picker between repetitions.
	seed int64
}

// prober is the open-loop query generator that runs beside the pushes.
type prober struct {
	in     *inputs
	p      *pier.Pipeline
	picker *dataset.ZipfPicker
	window int
	// pushed is the number of increments whose Push has returned.
	pushed atomic.Int64
	stop   atomic.Bool
	done   chan struct{}

	lat       []float64
	late      []float64
	attempted int
	refused   int
	rejected  int
	tieCuts   int // answers that lost the probed profile to a cut among equals
	wrong     []string
}

// pick draws a probe among the first n profiles, recent ones most often.
func (q *prober) pick(n int) int {
	k := q.picker.Pick()
	if k >= n {
		k %= n
	}
	return n - 1 - k
}

// query issues one probe for stream position pos and checks the answer:
// when the profile is certainly indexed — its increment was ingested before
// the query was sent, and no push that could evict it is within two
// increments — the answer must name it as a match, unless tieCut explains
// its absence.
func (q *prober) query(pos int) (time.Duration, time.Time, bool) {
	ingested := q.p.Snapshot().Increments
	pushed := int(q.pushed.Load())
	probe := q.in.flat[pos]
	if q.in.w.Options.CleanClean {
		// Presented as the other source's record, so that the profile it
		// copies is itself an eligible candidate.
		probe.SourceB = !probe.SourceB
	}
	sent := time.Now()
	res, err := q.p.Query(probe)
	end := time.Now()
	q.attempted++
	if err != nil {
		q.refused++
		if errors.Is(err, pier.ErrOverloaded) || errors.Is(err, pier.ErrRateLimited) {
			q.rejected++
		}
		return 0, end, false
	}
	indexed := q.in.incOf(pos) < ingested
	if q.window > 0 && pos < q.in.incEnd(min(pushed+2, len(q.in.incs)-1))-q.window {
		indexed = false
	}
	switch {
	case !indexed || names(res, probe.Key):
	case tieCut(res):
		q.tieCuts++
	default:
		q.wrong = append(q.wrong, fmt.Sprintf("probe %s not among its %d candidates as a match (ingested %d, pushed %d)",
			probe.Key, len(res.Candidates), ingested, pushed))
	}
	return end.Sub(sent), end, true
}

// tieCut reports whether the answer was cut to its top K among candidates of
// one and the same weight. The probed profile shares every live block of its
// copy, so no candidate outweighs it; when block purging leaves the probe so
// few live blocks that more than K candidates tie at that weight, the cut —
// ties go to the lower ID — may drop the profile itself. That is the
// documented ranking, not a wrong answer.
func tieCut(res *pier.QueryResult) bool {
	n := len(res.Candidates)
	return n > 0 && res.Considered > n && res.Candidates[n-1].Weight == res.Candidates[0].Weight
}

func names(res *pier.QueryResult, key string) bool {
	for _, c := range res.Candidates {
		if c.Match && c.Profile.Key == key {
			return true
		}
	}
	return false
}

// run is the generator goroutine: query i is due i/rate after t0. A query is
// timed from its due time when the generator was still inside an earlier
// query at that moment — the wait a stall imposes on later requests counts —
// and otherwise from the moment it was sent, so the sleeping generator's own
// timer overshoot stays out of the latency and is reported as lateness.
func (q *prober) run(t0 time.Time, rate float64) {
	defer close(q.done)
	interval := time.Duration(float64(time.Second) / rate)
	var prevEnd time.Time
	for i := 1; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		for {
			if q.stop.Load() {
				return
			}
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			time.Sleep(min(wait, 2*time.Millisecond))
		}
		pushed := int(q.pushed.Load())
		if pushed == 0 {
			continue
		}
		n := q.in.incEnd(pushed - 1)
		busyAtDue := !prevEnd.Before(due)
		sentAt := time.Now()
		lat, end, ok := q.query(q.pick(n))
		prevEnd = end
		if !ok {
			continue
		}
		if busyAtDue {
			lat = end.Sub(due)
		} else {
			q.late = append(q.late, float64(sentAt.Sub(due))/1e3)
		}
		q.lat = append(q.lat, float64(lat)/1e3)
	}
}

var (
	gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	heapSample  = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
)

func readGCCPU() float64 {
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUSample[0].Value.Float64()
}

func readHeap() uint64 {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapSample[0].Value.Uint64()
}

// ckptBuf is reused across repetitions so that, after the first, checkpoint_s
// times the checkpoint and not the growth of the buffer it lands in.
var ckptBuf bytes.Buffer

// runRep runs one repetition: push the stream beside the probe generator,
// Stop, probe the idle index, checkpoint and restore, check the outputs.
func runRep(in *inputs, cfg repConfig) (*repResult, error) {
	w := in.w
	incs := in.incs
	if cfg.increments > 0 && cfg.increments < len(incs) {
		incs = incs[:cfg.increments]
	}
	nProfiles := in.incEnd(len(incs) - 1)
	full := len(incs) == len(in.incs)
	r := &repResult{profiles: nProfiles}

	// Recall bookkeeping, written only by the pipeline goroutine inside
	// OnMatch and read after Stop.
	var (
		p         *pier.Pipeline
		t0        time.Time
		found     = make(map[uint64]struct{})
		foundAt   []float64 // seconds since t0
		foundCmp  []float64 // executed comparisons when found
		pushTimes = make([]time.Time, len(incs))
		target    = int(math.Ceil(recallTarget * float64(len(in.truth))))
	)
	opt := w.Options
	opt.OnMatch = func(m pier.Match) {
		x, okx := idOf(m.X)
		y, oky := idOf(m.Y)
		if !okx || !oky {
			r.matches = append(r.matches, matchRec{-1, -1}) // fails the re-score check
			return
		}
		now := time.Now()
		r.matches = append(r.matches, matchRec{x, y})
		if later := in.incOf(max(x, y)); later < len(pushTimes) {
			r.matchLag = append(r.matchLag, float64(now.Sub(pushTimes[later]))/1e6)
		}
		key := profile.PairKey(x, y)
		if _, ok := in.truth[key]; !ok {
			return
		}
		if _, dup := found[key]; dup {
			return
		}
		found[key] = struct{}{}
		cmps, _ := p.Stats()
		foundAt = append(foundAt, now.Sub(t0).Seconds())
		foundCmp = append(foundCmp, float64(cmps))
		if len(found) == target {
			r.tPC80, r.reached = now.Sub(t0), true
		}
	}
	var err error
	p, err = pier.NewPipeline(opt)
	if err != nil {
		return nil, err
	}

	var mem0 runtime.MemStats
	var gc0 float64
	if cfg.instrument {
		runtime.ReadMemStats(&mem0)
		gc0 = readGCCPU()
	}

	q := &prober{
		in: in, p: p, window: w.Options.Window, done: make(chan struct{}),
		picker: dataset.NewZipfPicker(len(in.flat), 1.1, cfg.seed),
	}
	t0 = time.Now()
	go q.run(t0, queryRate)

	// The push loop. Closed (Period 0): back-to-back. Open: increment k is
	// stamped with its due time and sent no earlier.
	for k, inc := range incs {
		if w.Period > 0 {
			due := t0.Add(time.Duration(k) * w.Period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			r.pushLate = append(r.pushLate, float64(time.Since(due))/1e6)
		}
		pushTimes[k] = time.Now()
		r.attempted++
		if err := p.Push(inc); err != nil {
			r.refused++
			r.fail("Push of increment %d: %v", k, err)
		}
		q.pushed.Store(int64(k + 1))
		s := p.Snapshot()
		r.kSamples = append(r.kSamples, float64(s.K))
		r.pendMax = max(r.pendMax, s.Pending)
		if cfg.instrument {
			r.heapPeak = max(r.heapPeak, readHeap())
		}
	}
	lastPush := time.Now()
	trailing := len(incs) - p.Snapshot().Increments
	summary := p.Stop()
	stopped := time.Now()
	q.stop.Store(true)
	<-q.done

	r.wall = stopped.Sub(t0)
	r.drain = stopped.Sub(lastPush)
	if cfg.instrument {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		r.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
		r.gcCPU = readGCCPU() - gc0
		r.heapPeak = max(r.heapPeak, readHeap())
	}

	// Idle phase: back-to-back probes against the quiescent index, all of
	// them for profiles still indexed, so every answer is checked.
	r.queryBusy, q.lat = q.lat, nil
	for i := 0; i < w.IdleQueries && full; i++ {
		if lat, _, ok := q.query(in.indexedProbe(i)); ok {
			q.lat = append(q.lat, float64(lat)/1e3)
		}
	}
	r.queryIdle, r.queryLate = q.lat, q.late
	r.attempted += q.attempted
	r.refused += q.refused
	r.rejected, r.tieCuts = q.rejected, q.tieCuts
	r.failed += q.refused
	for _, msg := range q.wrong {
		r.fail("%s", msg)
	}

	for i := 0; i < max(1, w.CheckpointCycles); i++ {
		r.checkpointCycle(p, w.Options, summary)
	}

	// Recall metrics.
	truth := float64(len(in.truth))
	r.pcFinal = float64(len(found)) / truth
	r.aucCmp = stepAUC(foundCmp, 1/truth, comparisonBudgetPerMatch*truth)
	r.aucTime = stepAUC(foundAt, 1/truth, w.horizon().Seconds())

	// Output checks.
	cmps, ms := p.Stats()
	r.check(summary.Comparisons == cmps && summary.Matches == ms && summary.Profiles == nProfiles && len(r.matches) == ms,
		"Summary %+v disagrees with Stats() (%d, %d), %d pushed profiles or %d reported matches",
		summary, cmps, ms, nProfiles, len(r.matches))
	weak := rescore(in, r.matches)
	r.check(weak == 0, "%d reported matches fall below the Jaccard threshold when re-scored", weak)
	r.check(clustersAgree(r.matches, p.Clusters()), "union-find of the reported matches differs from Clusters()")
	if cfg.reference != nil {
		diff := setDifference(matchedSet(r.matches), cfg.reference)
		r.check(diff <= 0.001, "matched-pair set differs from the budget-0 twin's by %.4f of its size", diff)
	}
	if err := p.Close(); err != nil {
		r.fail("Close: %v", err)
	}

	// Conditions under which the repetition measured something else than the
	// workload: every one of its operations then counts as failed.
	void := func(format string, args ...any) {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
		r.failed = r.attempted
	}
	if full && !r.reached {
		void("recall stopped at %.4f, below %.2f", r.pcFinal, recallTarget)
	}
	if w.Period > 0 {
		if late := percentile(sorted(r.pushLate), 0.9); late > float64(w.Period)/1e6 {
			void("push lateness p90 %.1f ms exceeds one period: the generator did not hold the schedule", late)
		}
		if trailing > 2 {
			void("ingest trailed the schedule by %d increments at its end: a backlog grew", trailing)
		}
	}
	return r, nil
}

// checkpointCycle checkpoints the stopped pipeline into memory, restores it,
// and stops the restored pipeline, which must land where the original did.
// Checkpoint and Restore each start from a collected heap, so that neither
// pays for the garbage of the phase before it.
func (r *repResult) checkpointCycle(p *pier.Pipeline, opt pier.Options, summary pier.Summary) {
	ckptBuf.Reset()
	runtime.GC()
	t0 := time.Now()
	_, err := p.Checkpoint(&ckptBuf)
	r.ckpt = append(r.ckpt, time.Since(t0).Seconds())
	r.check(err == nil, "Checkpoint: %v", err)
	if err != nil {
		return
	}
	runtime.GC()
	t0 = time.Now()
	// opt carries no OnMatch: the restored pipeline has nothing left to report.
	rp, err := pier.Restore(bytes.NewReader(ckptBuf.Bytes()), opt)
	r.restore = append(r.restore, time.Since(t0).Seconds())
	r.check(err == nil, "Restore: %v", err)
	if err != nil {
		return
	}
	rs := rp.Stop()
	if err := rp.Close(); err != nil {
		r.fail("Close of the restored pipeline: %v", err)
	}
	r.check(rs.Comparisons == summary.Comparisons && rs.Matches == summary.Matches,
		"restored pipeline stopped at %d comparisons, %d matches; the checkpointed one had %d, %d",
		rs.Comparisons, rs.Matches, summary.Comparisons, summary.Matches)
}

// rescore counts reported matches that do not clear the default Jaccard
// threshold when scored again outside the pipeline.
func rescore(in *inputs, ms []matchRec) int {
	m := match.NewMatcher(match.JS)
	bad := 0
	for _, rec := range ms {
		if rec.x < 0 || rec.x >= len(in.ds.Profiles) || rec.y < 0 || rec.y >= len(in.ds.Profiles) {
			bad++
			continue
		}
		if m.Similarity(in.ds.Profiles[rec.x], in.ds.Profiles[rec.y]) < m.Threshold {
			bad++
		}
	}
	return bad
}

// clustersAgree reports whether the transitive closure of the reported
// matches is exactly the partition Clusters() returned.
func clustersAgree(ms []matchRec, clusters [][]pier.Profile) bool {
	uf := cluster.New()
	for _, rec := range ms {
		uf.Merge(rec.x, rec.y)
	}
	want := uf.Clusters(2)
	got := make([][]int, 0, len(clusters))
	for _, members := range clusters {
		ids := make([]int, 0, len(members))
		for _, pr := range members {
			id, ok := idOf(pr)
			if !ok {
				return false
			}
			ids = append(ids, id)
		}
		sort.Ints(ids)
		got = append(got, ids)
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func matchedSet(ms []matchRec) map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(ms))
	for _, rec := range ms {
		set[profile.PairKey(rec.x, rec.y)] = struct{}{}
	}
	return set
}

// setDifference is the size of the symmetric difference of a and b as a share
// of b's size.
func setDifference(a, b map[uint64]struct{}) float64 {
	diff := 0
	for k := range a {
		if _, ok := b[k]; !ok {
			diff++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diff++
		}
	}
	return float64(diff) / float64(max(1, len(b)))
}
