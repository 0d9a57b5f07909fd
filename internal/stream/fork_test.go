package stream

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metrics"
	"pier/internal/obsv"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// inMatchBatchFrame reports whether its caller runs beneath matchBatch's own
// frame, i.e. inline on the pipeline goroutine; a forked comparison runs on
// a pool worker, whose stack starts in pool.TryForEach.
func inMatchBatchFrame() bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if f.Function == "pier/internal/stream.(*Live).matchBatch" {
			return true
		}
		if !more {
			return false
		}
	}
}

// spinMatcher is Jaccard behind a busy wait of d per comparison, counting the
// comparisons that ran forked (off the pipeline goroutine).
func spinMatcher(d time.Duration, forked *atomic.Int64) match.ContextMatcher {
	js := match.NewMatcher(match.JS)
	return match.ContextFunc(func(_ context.Context, a, b *profile.Profile) (bool, error) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
		if !inMatchBatchFrame() {
			forked.Add(1)
		}
		return js.Match(a, b), nil
	})
}

func TestForkBatchGrain(t *testing.T) {
	for _, c := range []struct {
		n, workers int
		svc        time.Duration
		want       bool
	}{
		{10, 2, 0, false},                      // nothing measured yet
		{10, 2, time.Microsecond, false},       // 10 µs of work
		{250, 2, time.Microsecond, false},      // exactly the grain
		{251, 2, time.Microsecond, true},       // just over it
		{2, 4, 200 * time.Microsecond, true},   // few slow comparisons
		{1, 4, time.Millisecond, false},        // one job has nothing to split
		{100, 1, time.Millisecond, false},      // a serial pool never forks
		{512, 2, 300 * time.Nanosecond, false}, // a full Jaccard batch stays inline
	} {
		if got := forkBatch(c.n, c.workers, c.svc); got != c.want {
			t.Errorf("forkBatch(%d, %d, %v) = %v, want %v", c.n, c.workers, c.svc, got, c.want)
		}
	}
}

// TestMatchBatchForksOnlyAboveGrain drives matchBatch directly with a
// service time seeded into K: below the grain every comparison runs inline
// on the calling goroutine and the fork pool starts no goroutine; above it
// the batch forks, and both paths count every comparison.
func TestMatchBatchForksOnlyAboveGrain(t *testing.T) {
	for _, c := range []struct {
		svc  time.Duration
		fork bool
	}{{time.Microsecond, false}, {time.Millisecond, true}} {
		t.Run(fmt.Sprintf("svc=%v", c.svc), func(t *testing.T) {
			var forked atomic.Int64
			k := core.NewAdaptiveK()
			k.ObserveService(c.svc)
			l := newLive(core.NewIPCS(core.DefaultConfig()), LiveConfig{
				ContextMatcher: spinMatcher(0, &forked),
				K:              k,
			})
			st := &liveState{
				col:      blocking.NewCollection(false, 0),
				clusters: cluster.New(),
				rec:      metrics.NewRecorder(nil, 500),
				executed: storage.NewDedupStore(storage.Config{}),
				res:      &liveCounters{},
				start:    time.Now(),
			}
			const n = 10
			jobs := make([]job, n)
			for i := range jobs {
				jobs[i] = job{
					key: profile.PairKey(2*i, 2*i+1),
					px:  profile.New(2*i, profile.SourceA, "", "t", "alpha beta"),
					py:  profile.New(2*i+1, profile.SourceA, "", "t", "alpha gamma"),
				}
			}
			// The fork pool counts the tasks it ran: zero means it started
			// no goroutine.
			tasks := obsv.NewRegistry().Counter("tasks", "")
			l.matchBatch(st, jobs, pool.New(2).Instrument(nil, tasks), pool.New(1))
			wantForked := int64(0)
			if c.fork {
				wantForked = n
			}
			if got := int64(tasks.Value()); got != wantForked {
				t.Errorf("fork pool ran %d tasks, want %d", got, wantForked)
			}
			if got := forked.Load(); got != wantForked {
				t.Errorf("%d of %d comparisons ran forked, want %d", got, n, wantForked)
			}
			if par, seq := l.m.parSec.Count(), l.m.seqSec.Count(); c.fork != (par == 1) || seq+par != 1 {
				t.Errorf("pier_match_par_seconds %d, pier_match_seq_seconds %d observations", par, seq)
			}
			if got := l.m.cmps.Value(); got != n {
				t.Errorf("counted %d comparisons, want %d", got, n)
			}
		})
	}
}

// TestCurveStampsOnceABatch pins the progress curve's clock: one read per
// batch. Under a ground truth naming every pair each comparison is sampled,
// so the curve has one point per comparison: times never decrease, the
// comparisons of one batch share one time, and none is lost.
func TestCurveStampsOnceABatch(t *testing.T) {
	var profs []*profile.Profile
	gt := map[uint64]struct{}{}
	for i := 0; i < 40; i++ {
		profs = append(profs, profile.New(i, profile.SourceA, "", "t", fmt.Sprintf("common g%d h%d", i%4, i%6)))
		for j := 0; j < i; j++ {
			gt[profile.PairKey(j, i)] = struct{}{}
		}
	}
	// batchOf[i] is the batch of the i-th counted comparison: a matcher call
	// after a counted comparison starts the next batch (Parallelism 1 runs
	// every call on the pipeline goroutine).
	var batchOf []int
	batch, counting := 0, false
	js := match.NewMatcher(match.JS)
	l := LiveRun(core.NewIPCS(core.DefaultConfig()), LiveConfig{
		ContextMatcher: match.ContextFunc(func(_ context.Context, a, b *profile.Profile) (bool, error) {
			if counting {
				batch, counting = batch+1, false
			}
			return js.Match(a, b), nil
		}),
		OnExecuted: func(uint64) {
			counting = true
			batchOf = append(batchOf, batch)
		},
		K:           core.NewFixedK(16),
		TickEvery:   time.Millisecond,
		GroundTruth: gt,
		Parallelism: 1,
	})
	for i := 0; i < len(profs); i += 8 {
		l.Push(profs[i : i+8])
	}
	res := l.Stop()
	samples := res.Curve.Samples
	if res.Comparisons == 0 || res.Curve.FinalComparisons != res.Comparisons || len(batchOf) != res.Comparisons {
		t.Fatalf("curve counted %d comparisons, pipeline %d, OnExecuted %d",
			res.Curve.FinalComparisons, res.Comparisons, len(batchOf))
	}
	if batch == 0 {
		t.Fatal("test data broken: the run took a single batch")
	}
	// Every comparison finds a new ground-truth pair, so sample i+1 is the
	// point recorded at comparison i+1 (sample 0 is the origin, if any).
	byCmp := map[int]time.Duration{}
	for i, s := range samples {
		if i > 0 && s.Time < samples[i-1].Time {
			t.Fatalf("sample %d at %v precedes sample %d at %v", i, s.Time, i-1, samples[i-1].Time)
		}
		if s.Comparisons > 0 && s.Comparisons <= res.Comparisons {
			if _, seen := byCmp[s.Comparisons]; !seen {
				byCmp[s.Comparisons] = s.Time
			}
		}
	}
	if len(byCmp) != res.Comparisons {
		t.Fatalf("%d of %d comparisons sampled", len(byCmp), res.Comparisons)
	}
	for i := 1; i < len(batchOf); i++ {
		same := batchOf[i] == batchOf[i-1]
		if eq := byCmp[i+1] == byCmp[i]; same && !eq {
			t.Fatalf("comparisons %d and %d of batch %d stamped %v and %v", i, i+1, batchOf[i], byCmp[i], byCmp[i+1])
		}
	}
}
