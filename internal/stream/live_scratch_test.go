package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/metrics"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// queueStrategy is a Strategy that emits a prepared list of comparisons in
// order: the batch-loop tests decide exactly how much work a batch finds.
type queueStrategy struct {
	q []metablocking.Comparison
	core.Executed
}

func (s *queueStrategy) Name() string { return "queue" }
func (s *queueStrategy) Pending() int { return len(s.q) }
func (s *queueStrategy) UpdateIndex(*blocking.Collection, []*profile.Profile) time.Duration {
	return 0
}
func (s *queueStrategy) Dequeue() (metablocking.Comparison, bool) {
	for len(s.q) > 0 {
		c := s.q[0]
		s.q = s.q[1:]
		if s.Mark(c.Key()) {
			return c, true
		}
	}
	return metablocking.Comparison{}, false
}

// batchBench is a pipeline without its goroutines: processBatch is called
// directly, so a test controls how many batches run and can measure one.
type batchBench struct {
	l      *Live
	st     *liveState
	serial *pool.Pool
}

// newBatchBench indexes n one-token profiles (no two share a block; the
// comparisons come from the queueStrategy, not from blocking) and returns the
// bench with every distinct pair queued.
func newBatchBench(n, k int) (*batchBench, *queueStrategy) {
	s := &queueStrategy{}
	l := newLive(s, LiveConfig{
		Matcher:         match.NewMatcher(match.JS),
		K:               core.NewFixedK(k),
		CheckInvariants: true,
	})
	st := &liveState{
		col:      blocking.NewCollectionStorage(false, 0, nil, 1, storage.Config{}),
		clusters: cluster.New(),
		rec:      metrics.NewRecorder(nil, 500),
		executed: storage.NewDedupStore(storage.Config{}),
		res:      &liveCounters{},
		start:    time.Now(),
	}
	s.ShareExecuted(st.executed)
	for i := 0; i < n; i++ {
		st.col.Add(&profile.Profile{ID: i, Attributes: []profile.Attribute{{Name: "t", Value: fmt.Sprintf("tok%d", i)}}})
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			s.q = append(s.q, metablocking.Comparison{X: x, Y: y})
		}
	}
	return &batchBench{l: l, st: st, serial: pool.New(1)}, s
}

func (b *batchBench) batch() { b.l.processBatch(b.st, b.serial, b.serial, nil) }

// TestIdleBatchAllocatesNothing pins the rule the batch loop is built on: a
// call that finds nothing to do — an empty tick — allocates nothing, whatever
// K is. At the parent commit each such call allocated K jobs: 12.8 MB here.
func TestIdleBatchAllocatesNothing(t *testing.T) {
	b, _ := newBatchBench(0, core.KMax)
	if allocs := testing.AllocsPerRun(50, b.batch); allocs != 0 {
		t.Errorf("idle processBatch on a fresh pipeline: %v allocs per call, want 0", allocs)
	}
	b, s := newBatchBench(20, core.KMax)
	b.batch() // all 190 pairs in one batch
	if cmps, _ := b.l.Stats(); cmps != 190 || s.Pending() != 0 {
		t.Fatalf("warm-up batch executed %d comparisons, %d pending; want 190, 0", cmps, s.Pending())
	}
	if allocs := testing.AllocsPerRun(50, b.batch); allocs != 0 {
		t.Errorf("idle processBatch after work: %v allocs per call, want 0", allocs)
	}
	if got := b.l.m.batchFill.Count(); got != 1 {
		t.Errorf("pier_batch_fill_ratio has %d observations, want 1: idle batches are not observed", got)
	}
}

// TestBatchBytesFollowWorkNotK runs one small generated burst twice, at
// K = 64 and at K = KMax, and compares the bytes the two runs allocate: the
// work is the same, so the totals may differ by a constant factor, not by K's
// ratio (3 125). The factor is not 1: the single KMax batch buys scratch for all
// 1 770 jobs at once, 88 B a job, where K = 64 reuses a 64-job slab — about 3x
// here, 8 allowed. Measured on the goroutine-free bench, one P, best of three,
// so that a goroutine left behind by another test cannot allocate into the
// count.
func TestBatchBytesFollowWorkNotK(t *testing.T) {
	const n, calls = 60, 64 // 1 770 pairs: 28 batches at K = 64, one at KMax; the rest are idle
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	burst := func(k int) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			b, s := newBatchBench(n, k)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				b.batch()
			}
			runtime.ReadMemStats(&after)
			if cmps, _ := b.l.Stats(); cmps != n*(n-1)/2 || s.Pending() != 0 {
				t.Fatalf("K=%d: %d comparisons executed, %d pending; want %d, 0", k, cmps, s.Pending(), n*(n-1)/2)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := burst(64), burst(core.KMax)
	t.Logf("%d comparisons in %d calls: %d B at K=64, %d B at K=%d", n*(n-1)/2, calls, small, large, core.KMax)
	if large > 8*small {
		t.Errorf("K=%d allocated %d B, more than 8x the %d B of K=64: batch cost follows K, not work", core.KMax, large, small)
	}
}

// TestScratchSlabZeroedAndBounded checks the two lifetime rules of the job
// slab: between batches no slot holds a profile (an evicted one would be kept
// alive by it), and a slab that outgrew scratchMax is not kept.
func TestScratchSlabZeroedAndBounded(t *testing.T) {
	t.Run("zeroed after a windowed run", func(t *testing.T) {
		d := dataset.DA(0.05, 41)
		l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
			CleanClean:   true,
			MaxBlockSize: DefaultMaxBlockSize,
			Matcher:      match.NewMatcher(match.JS),
			TickEvery:    time.Millisecond,
			Window:       20,
		})
		for _, inc := range d.Increments(12) {
			l.Push(inc)
		}
		l.Stop()
		if l.Snapshot().WindowEvictions == 0 {
			t.Fatal("windowed run recorded no evictions; scenario did not trigger")
		}
		slab := l.st.scratch.jobs
		if len(slab) != 0 || cap(slab) == 0 {
			t.Fatalf("slab after Stop has len %d cap %d; want an empty, used slab", len(slab), cap(slab))
		}
		for i, j := range slab[:cap(slab)] {
			if j != (job{}) {
				t.Fatalf("slab slot %d of %d still holds %+v after the batch", i, cap(slab), j)
			}
		}
	})
	t.Run("dropped past the bound", func(t *testing.T) {
		const n = 200 // 19 900 pairs: one batch larger than scratchMax
		b, _ := newBatchBench(n, core.KMax)
		b.batch()
		if cmps, _ := b.l.Stats(); cmps != n*(n-1)/2 || cmps <= scratchMax {
			t.Fatalf("batch executed %d comparisons, want %d (> scratchMax %d)", cmps, n*(n-1)/2, scratchMax)
		}
		if c := cap(b.st.scratch.jobs); c != 0 {
			t.Errorf("job slab of cap %d kept after a batch beyond scratchMax (%d)", c, scratchMax)
		}
		if c := cap(b.st.scratch.emitted); c != 0 {
			t.Errorf("emission buffer of cap %d kept after a batch beyond scratchMax (%d)", c, scratchMax)
		}
		b, _ = newBatchBench(20, core.KMax)
		// A retry queue that a failure storm grew past the bound, down to its
		// last entry: the pair is marked executed, as requeue leaves it.
		key := metablocking.Comparison{X: 0, Y: 1}.Key()
		b.st.executed.Add(key)
		b.st.retryQ = append(make([]retryJob, 0, scratchMax+1), retryJob{key: key, x: 0, y: 1, attempts: 1})
		b.batch()
		if cmps, _ := b.l.Stats(); cmps != 190 {
			t.Fatalf("batch executed %d comparisons, want 190 (one of them the retry)", cmps)
		}
		if c := cap(b.st.scratch.jobs); c == 0 || c > scratchMax {
			t.Errorf("job slab cap %d after a 190-job batch; want it kept for reuse", c)
		}
		if c := cap(b.st.retryQ); c != 0 {
			t.Errorf("emptied retry queue kept cap %d (> scratchMax %d)", c, scratchMax)
		}
	})
}
