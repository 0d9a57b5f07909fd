package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/cluster"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/fault"
	"pier/internal/match"
	"pier/internal/metrics"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/storage"
)

// faultCoreConfig is the strategy configuration the fault tests use:
// invariant checking everywhere.
func faultCoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CheckInvariants = true
	return cfg
}

// faultStrategies builds fresh instances of all three checkpointable
// strategies.
func faultStrategies() map[string]func() core.Strategy {
	return map[string]func() core.Strategy{
		"I-PCS": func() core.Strategy { return core.NewIPCS(faultCoreConfig()) },
		"I-PBS": func() core.Strategy { return core.NewIPBS(faultCoreConfig()) },
		"I-PES": func() core.Strategy { return core.NewIPES(faultCoreConfig()) },
	}
}

// faultLiveConfig is the shared live configuration; each test adds its own
// matcher and OnExecuted hook. A fresh registry per pipeline keeps restored
// counters exact.
func faultLiveConfig() LiveConfig {
	return LiveConfig{
		CleanClean:      true,
		MaxBlockSize:    DefaultMaxBlockSize,
		Matcher:         match.NewMatcher(match.JS),
		TickEvery:       time.Millisecond,
		CheckInvariants: true,
	}
}

// executedCollector counts how many times each pair key was reported
// executed. The pipeline goroutine calls it synchronously, so no locking is
// needed within one run; across a kill/restore sequence the two runs never
// overlap in time.
type executedCollector map[uint64]int

func (c executedCollector) hook() func(uint64) {
	return func(key uint64) { c[key]++ }
}

// assertExactlyOnce fails if any pair was counted more than once — the
// double-emission half of the recovery guarantee.
func assertExactlyOnce(t *testing.T, c executedCollector) {
	t.Helper()
	for key, n := range c {
		if n != 1 {
			x, y := profile.SplitPairKey(key)
			t.Fatalf("pair (%d,%d) executed %d times, want exactly once", x, y, n)
		}
	}
}

// baselineRun executes a fault-free run over incs and returns its result and
// executed set.
func baselineRun(t *testing.T, mk func() core.Strategy, incs [][]*profile.Profile) (*LiveResult, executedCollector) {
	t.Helper()
	set := executedCollector{}
	cfg := faultLiveConfig()
	cfg.OnExecuted = set.hook()
	l := LiveRun(mk(), cfg)
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			t.Fatalf("baseline Push: %v", err)
		}
	}
	res := l.Stop()
	assertExactlyOnce(t, set)
	if res.Comparisons != len(set) {
		t.Fatalf("baseline Comparisons %d != executed set size %d", res.Comparisons, len(set))
	}
	return res, set
}

// assertSameExecuted compares two executed sets, reporting a few missing and
// extra pairs on mismatch.
func assertSameExecuted(t *testing.T, want, got executedCollector) {
	t.Helper()
	if len(want) == len(got) {
		same := true
		for k := range want {
			if _, ok := got[k]; !ok {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	var missing, extra []uint64
	for k := range want {
		if _, ok := got[k]; !ok && len(missing) < 5 {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && len(extra) < 5 {
			extra = append(extra, k)
		}
	}
	t.Fatalf("executed sets differ: want %d pairs, got %d (missing e.g. %v, extra e.g. %v)",
		len(want), len(got), missing, extra)
}

// waitIngested blocks until the pipeline has ingested n increments (its input
// channel is buffered; Interrupt would otherwise drop buffered pushes and the
// comparison with the baseline would be vacuous).
func waitIngested(t *testing.T, l *Live, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for int(l.Snapshot().Increments) < n {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline ingested %d/%d increments before deadline", l.Snapshot().Increments, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCheckpointKillRestoreEquivalence is the recovery-equivalence oracle at
// the stream level: checkpoint → kill → restore → resume executes exactly the
// same comparison set as the uninterrupted run, for every checkpointable
// strategy, with nothing lost and nothing double-counted.
func TestCheckpointKillRestoreEquivalence(t *testing.T) {
	d := dataset.DA(0.05, 71)
	incs := d.Increments(8)
	for name, mk := range faultStrategies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			wantRes, wantSet := baselineRun(t, mk, incs)

			set := executedCollector{}
			cfg := faultLiveConfig()
			cfg.OnExecuted = set.hook()
			l := LiveRun(mk(), cfg)
			for _, inc := range incs[:4] {
				if err := l.Push(inc); err != nil {
					t.Fatalf("Push: %v", err)
				}
			}
			waitIngested(t, l, 4)
			res1 := l.Interrupt() // the simulated kill
			if !res1.Interrupted {
				t.Fatal("Interrupt did not mark the result interrupted")
			}
			var buf bytes.Buffer
			n, err := l.Checkpoint(&buf)
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if n <= 0 || int(n) != buf.Len() {
				t.Fatalf("Checkpoint reported %d bytes, buffer has %d", n, buf.Len())
			}

			cfg2 := faultLiveConfig()
			cfg2.OnExecuted = set.hook()
			l2, err := RestoreLive(&buf, mk(), cfg2)
			if err != nil {
				t.Fatalf("RestoreLive: %v", err)
			}
			for _, inc := range incs[4:] {
				if err := l2.Push(inc); err != nil {
					t.Fatalf("Push after restore: %v", err)
				}
			}
			res2 := l2.Stop()

			if res2.Interrupted {
				t.Error("resumed run still marked interrupted")
			}
			assertExactlyOnce(t, set)
			assertSameExecuted(t, wantSet, set)
			if res2.Comparisons != wantRes.Comparisons {
				t.Errorf("Comparisons after recovery = %d, want %d", res2.Comparisons, wantRes.Comparisons)
			}
			if res2.Matches != wantRes.Matches {
				t.Errorf("Matches after recovery = %d, want %d", res2.Matches, wantRes.Matches)
			}
			if res2.Profiles != wantRes.Profiles {
				t.Errorf("Profiles after recovery = %d, want %d", res2.Profiles, wantRes.Profiles)
			}
			if !reflect.DeepEqual(res2.Clusters, wantRes.Clusters) {
				t.Errorf("clusters after recovery differ from uninterrupted run")
			}
			if c, m := l2.Stats(); res2.Comparisons != c || res2.Matches != m {
				t.Errorf("restored LiveResult (%d, %d) disagrees with Stats() (%d, %d)", res2.Comparisons, res2.Matches, c, m)
			}
		})
	}
}

// TestCheckpointWhileRunning exercises the concurrent checkpoint path: the
// snapshot is serviced by the pipeline goroutine between batches while pushes
// are still arriving, and the result is restorable.
func TestCheckpointWhileRunning(t *testing.T) {
	d := dataset.DA(0.05, 72)
	incs := d.Increments(6)
	l := LiveRun(core.NewIPES(faultCoreConfig()), faultLiveConfig())
	for _, inc := range incs[:3] {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	waitIngested(t, l, 3)
	var buf bytes.Buffer
	n, err := l.Checkpoint(&buf)
	if err != nil {
		t.Fatalf("Checkpoint while running: %v", err)
	}
	if n <= 0 {
		t.Fatal("empty checkpoint")
	}
	for _, inc := range incs[3:] {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	res := l.Stop() // original keeps running to completion after a checkpoint

	l2, err := RestoreLive(&buf, core.NewIPES(faultCoreConfig()), faultLiveConfig())
	if err != nil {
		t.Fatalf("RestoreLive from mid-run checkpoint: %v", err)
	}
	want := 0
	for _, inc := range incs[:3] {
		want += len(inc)
	}
	if snap := l2.Snapshot(); snap.Increments != 3 || snap.Profiles != want {
		t.Errorf("restored %d increments, %d profiles; the checkpoint was taken after 3 increments, %d profiles", snap.Increments, snap.Profiles, want)
	}
	res2 := l2.Stop() // drain only what the checkpoint held
	if res2.Comparisons > res.Comparisons {
		t.Errorf("restored partial run executed %d comparisons, more than the full run's %d", res2.Comparisons, res.Comparisons)
	}
}

// TestRestoreRejectsMismatches: a snapshot must only restore into the
// configuration that wrote it.
func TestRestoreRejectsMismatches(t *testing.T) {
	d := dataset.DA(0.05, 73)
	l := LiveRun(core.NewIPCS(faultCoreConfig()), faultLiveConfig())
	l.Push(d.Increments(2)[0])
	l.Interrupt()
	var buf bytes.Buffer
	if _, err := l.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snap := buf.Bytes()

	if _, err := RestoreLive(bytes.NewReader(snap), core.NewIPES(faultCoreConfig()), faultLiveConfig()); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Errorf("restore into wrong strategy: err = %v", err)
	}
	wrongCfg := faultLiveConfig()
	wrongCfg.Window = 500
	if _, err := RestoreLive(bytes.NewReader(snap), core.NewIPCS(faultCoreConfig()), wrongCfg); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Errorf("restore with wrong window: err = %v", err)
	}
	if _, err := RestoreLive(bytes.NewReader([]byte("not a snapshot at all")), core.NewIPCS(faultCoreConfig()), faultLiveConfig()); err == nil {
		t.Error("restore from garbage succeeded")
	}
}

// TestDriveCancelInterruptsBetweenPushes is the regression test for the
// satellite fix: a cancelled Drive context must stop promptly mid-stream —
// not drain the whole backlog — mark the result interrupted, and leave the
// pipeline checkpointable.
func TestDriveCancelInterruptsBetweenPushes(t *testing.T) {
	d := dataset.DA(0.1, 74)
	incs := d.Increments(50)
	l := LiveRun(core.NewIPES(faultCoreConfig()), faultLiveConfig())
	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan *LiveResult, 1)
	go func() { resCh <- Drive(ctx, l, incs, 20) }() // 50ms between increments
	time.Sleep(120 * time.Millisecond)
	cancel()
	var res *LiveResult
	select {
	case res = <-resCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Drive did not return promptly after cancellation")
	}
	if !res.Interrupted {
		t.Error("cancelled Drive result not marked interrupted")
	}
	if res.Profiles >= len(incs)*len(incs[0]) {
		t.Error("cancelled Drive ingested the whole stream; cancellation had no effect")
	}
	var buf bytes.Buffer
	if _, err := l.Checkpoint(&buf); err != nil {
		t.Errorf("pipeline not checkpointable after cancelled Drive: %v", err)
	}
}

// TestFallibleMatcherNeverDropsOrDoubles injects a 30% matcher error rate
// under the retry/requeue machinery and checks the run converges to exactly
// the fault-free comparison set: injected failures delay comparisons but
// never lose them, and retries never double-count them.
func TestFallibleMatcherNeverDropsOrDoubles(t *testing.T) {
	d := dataset.DA(0.05, 75)
	incs := d.Increments(6)
	mk := func() core.Strategy { return core.NewIPES(faultCoreConfig()) }
	wantRes, wantSet := baselineRun(t, mk, incs)

	inj := fault.New(fault.Config{Seed: 75, MatcherErrorRate: 0.3})
	set := executedCollector{}
	cfg := faultLiveConfig()
	cfg.OnExecuted = set.hook()
	cfg.ContextMatcher = match.NewFallible(
		inj.Matcher(match.Infallible(cfg.Matcher)),
		match.FallibleConfig{MaxRetries: 1, BaseBackoff: 10 * time.Microsecond, MaxBackoff: time.Millisecond},
	)
	l := LiveRun(mk(), cfg)
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	res := l.Stop()

	if inj.InjectedErrors() == 0 {
		t.Fatal("no errors injected; test is vacuous")
	}
	assertExactlyOnce(t, set)
	assertSameExecuted(t, wantSet, set)
	if res.Comparisons != wantRes.Comparisons || res.Matches != wantRes.Matches {
		t.Errorf("faulted run = (%d cmps, %d matches), want (%d, %d)",
			res.Comparisons, res.Matches, wantRes.Comparisons, wantRes.Matches)
	}
	if !reflect.DeepEqual(res.Clusters, wantRes.Clusters) {
		t.Error("faulted run clusters differ from fault-free run")
	}
}

// TestWorkerPanicVoidsBatchAndRequeues injects worker panics under parallel
// matching: every panicked batch must be voided and requeued — the final
// result still equals the fault-free run — and the panic surfaces via Err().
func TestWorkerPanicVoidsBatchAndRequeues(t *testing.T) {
	d := dataset.DA(0.05, 76)
	incs := d.Increments(6)
	mk := func() core.Strategy { return core.NewIPES(faultCoreConfig()) }
	wantRes, wantSet := baselineRun(t, mk, incs)

	inj := fault.New(fault.Config{Seed: 76, PanicRate: 0.01})
	set := executedCollector{}
	cfg := faultLiveConfig()
	cfg.Parallelism = 4
	cfg.OnExecuted = set.hook()
	cfg.ContextMatcher = inj.Matcher(match.Infallible(cfg.Matcher))
	l := LiveRun(mk(), cfg)
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	res := l.Stop()

	if inj.InjectedPanics() == 0 {
		t.Fatal("no panics injected; test is vacuous")
	}
	if l.Err() == nil {
		t.Error("Err() nil after injected worker panics")
	}
	assertExactlyOnce(t, set)
	assertSameExecuted(t, wantSet, set)
	if res.Comparisons != wantRes.Comparisons || res.Matches != wantRes.Matches {
		t.Errorf("panicked run = (%d cmps, %d matches), want (%d, %d)",
			res.Comparisons, res.Matches, wantRes.Comparisons, wantRes.Matches)
	}
}

// gateMatcher fails every call while down is set — a matcher outage with a
// switch, for driving the breaker deterministically.
type gateMatcher struct {
	down  atomic.Bool
	inner match.Matcher
}

func (g *gateMatcher) Match(ctx context.Context, a, b *profile.Profile) (bool, error) {
	if g.down.Load() {
		return false, errors.New("matcher down")
	}
	return g.inner.Match(a, b), nil
}

// TestDegradedModeCapsKAndRecovers drives the pipeline into a full matcher
// outage: the breaker must trip, the pipeline must cap K at core.KMin
// (degraded mode), and once the matcher recovers the cap must lift and the
// run must still complete with the fault-free comparison set.
func TestDegradedModeCapsKAndRecovers(t *testing.T) {
	d := dataset.DA(0.05, 77)
	incs := d.Increments(6)
	mk := func() core.Strategy { return core.NewIPES(faultCoreConfig()) }
	wantRes, wantSet := baselineRun(t, mk, incs)

	gate := &gateMatcher{inner: match.NewMatcher(match.JS)}
	set := executedCollector{}
	cfg := faultLiveConfig()
	cfg.OnExecuted = set.hook()
	cfg.ContextMatcher = match.NewFallible(gate, match.FallibleConfig{
		BreakerThreshold: 4,
		BreakerCooldown:  5 * time.Millisecond,
	})
	l := LiveRun(mk(), cfg)
	reg := l.Registry()
	degraded := reg.Gauge("pier_degraded_mode", "")
	kGauge := reg.Gauge("pier_k", "")

	for _, inc := range incs[:3] {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	waitIngested(t, l, 3)

	gate.down.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for !(degraded.Value() == 1 && kGauge.Value() <= core.KMin) {
		if time.Now().After(deadline) {
			t.Fatalf("degraded mode never engaged (degraded=%d k=%d)", degraded.Value(), kGauge.Value())
		}
		time.Sleep(time.Millisecond)
	}

	gate.down.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for degraded.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("degraded mode never lifted after the matcher recovered")
		}
		time.Sleep(time.Millisecond)
	}

	for _, inc := range incs[3:] {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	res := l.Stop()
	assertExactlyOnce(t, set)
	assertSameExecuted(t, wantSet, set)
	if res.Comparisons != wantRes.Comparisons || res.Matches != wantRes.Matches {
		t.Errorf("degraded run = (%d cmps, %d matches), want (%d, %d)",
			res.Comparisons, res.Matches, wantRes.Comparisons, wantRes.Matches)
	}
}

// TestRetryBudgetAbandonsPoisonPair: with a matcher that permanently fails one specific
// pair, RetryBudget bounds the retries and the abandoned comparison is
// removed from the accounting (counted in pier_match_abandoned_total, not in
// Comparisons).
func TestRetryBudgetAbandonsPoisonPair(t *testing.T) {
	d := dataset.DA(0.05, 78)
	incs := d.Increments(4)
	mk := func() core.Strategy { return core.NewIPES(faultCoreConfig()) }
	_, wantSet := baselineRun(t, mk, incs)

	// Poison exactly one known-executed pair.
	var poison uint64
	for k := range wantSet {
		poison = k
		break
	}
	inner := match.NewMatcher(match.JS)
	poisoned := match.ContextFunc(func(_ context.Context, a, b *profile.Profile) (bool, error) {
		if profile.PairKey(a.ID, b.ID) == poison {
			return false, errors.New("poison pair")
		}
		return inner.Match(a, b), nil
	})
	cfg := faultLiveConfig()
	cfg.ContextMatcher = poisoned
	cfg.RetryBudget = 3
	l := LiveRun(mk(), cfg)
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	res := l.Stop()
	abandoned := l.Registry().Counter("pier_match_abandoned_total", "")
	if got := abandoned.Value(); got != 1 {
		t.Errorf("abandoned counter = %d, want 1", got)
	}
	if res.Comparisons != len(wantSet)-1 {
		t.Errorf("Comparisons = %d, want %d (baseline minus the abandoned pair)", res.Comparisons, len(wantSet)-1)
	}
}

// TestAbandonedPairNeverReemitted drives the batch loop by hand, with no
// goroutine or clock involved: a matcher that always fails one pair makes
// RetryBudget abandon it, a later increment moves the collection version so
// that the leftover scan restarts from the smallest block, and the drain
// revisits the abandoned pair's block. The pair must stay marked executed:
// the matcher sees it exactly RetryBudget+1 times, and the scan never hands
// it out again.
func TestAbandonedPairNeverReemitted(t *testing.T) {
	const budget = 2
	mkProfile := func(id int) *profile.Profile {
		return &profile.Profile{ID: id, Attributes: []profile.Attribute{{Name: "t", Value: fmt.Sprintf("shared tok%d", id)}}}
	}
	poison := profile.PairKey(0, 1)
	calls := 0
	inner := match.NewMatcher(match.JS)
	s := core.NewIPCS(faultCoreConfig())
	l := newLive(s, LiveConfig{
		ContextMatcher: match.ContextFunc(func(_ context.Context, a, b *profile.Profile) (bool, error) {
			if profile.PairKey(a.ID, b.ID) == poison {
				calls++
				return false, errors.New("poison pair")
			}
			return inner.Match(a, b), nil
		}),
		RetryBudget:     budget,
		K:               core.NewFixedK(core.KMin),
		CheckInvariants: true,
		OnExecuted: func(key uint64) {
			if key == poison {
				t.Fatal("the poison pair was counted as executed")
			}
		},
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
	serial := pool.New(1)
	batch := func() { l.processBatch(st, serial, serial, nil) }
	ingest := func(ids ...int) {
		var inc []*profile.Profile
		for _, id := range ids {
			p := mkProfile(id)
			st.col.Add(p)
			inc = append(inc, p)
		}
		s.UpdateIndex(st.col, inc)
	}
	// drain runs batches, then leftover-scan ticks, until neither the
	// strategy nor the retry queue holds work.
	drain := func() {
		for {
			batch()
			if s.Pending() > 0 || len(st.retryQ) > 0 {
				continue
			}
			if s.UpdateIndex(st.col, nil); s.Pending() == 0 {
				return
			}
		}
	}

	ingest(0, 1, 2, 3)
	drain()
	if got := l.m.abandoned.Value(); got != 1 {
		t.Fatalf("after the first drain: %d pairs abandoned, want 1", got)
	}
	ingest(4, 5)
	drain()
	if calls != budget+1 {
		t.Errorf("matcher saw the poison pair %d times, want %d: the leftover scan re-emitted an abandoned pair", calls, budget+1)
	}
	if cmps, _ := l.Stats(); cmps != 6*5/2-1 {
		t.Errorf("%d comparisons counted, want %d: every pair of the shared block but the abandoned one", cmps, 6*5/2-1)
	}
}
