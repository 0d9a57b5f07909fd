package stream

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/storage"
)

// TestLiveStatsAgreeWithSummaryUnderEviction is the regression test for the
// comparison-overcounting bug: emitted pairs whose profiles were evicted from
// the window used to be recorded as executed, inflating the final
// LiveResult.Comparisons past the Stats() counter.
func TestLiveStatsAgreeWithSummaryUnderEviction(t *testing.T) {
	d := dataset.DA(0.05, 41)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Second,
		Window:       20,
		// A small fixed K keeps the prioritized queue deep while the
		// window turns over, so comparisons referencing evicted
		// profiles are reliably emitted during the drain.
		K: core.NewFixedK(8),
	})
	for _, inc := range d.Increments(12) {
		l.Push(inc)
	}
	res := l.Stop()
	cmps, matches := l.Stats()
	if res.Comparisons != cmps {
		t.Errorf("Summary.Comparisons = %d, Stats() = %d — must agree", res.Comparisons, cmps)
	}
	if res.Matches != matches {
		t.Errorf("Summary.Matches = %d, Stats() = %d — must agree", res.Matches, matches)
	}
	snap := l.Snapshot()
	if snap.Comparisons != res.Comparisons || snap.Matches != res.Matches {
		t.Errorf("Snapshot (%d cmps, %d matches) disagrees with Summary (%d, %d)",
			snap.Comparisons, snap.Matches, res.Comparisons, res.Matches)
	}
	// The scenario is only a regression test if evicted pairs were actually
	// emitted and skipped: with a window of 20 over ~245 profiles and a
	// deep prioritized queue, that always happens.
	if snap.WindowEvictions == 0 {
		t.Fatal("windowed run recorded no evictions; scenario did not trigger")
	}
	if snap.SkippedEvicted == 0 {
		t.Fatal("no emitted comparison was skipped by eviction; scenario did not trigger")
	}
}

// TestLiveDedupMapBoundedUnderWindow is the regression test for unbounded
// dedup-map growth: on a windowed stream the executed map must be pruned as
// profiles are evicted, staying proportional to the window rather than to the
// whole stream.
func TestLiveDedupMapBoundedUnderWindow(t *testing.T) {
	const window = 20
	d := dataset.DA(0.1, 42) // ~490 profiles: many windows turn over
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		Window:       window,
	})
	for _, inc := range d.Increments(24) {
		l.Push(inc)
	}
	res := l.Stop()
	snap := l.Snapshot()
	if snap.WindowEvictions < 5*window {
		t.Fatalf("only %d evictions; stream too short to exercise pruning", snap.WindowEvictions)
	}
	// Between sweeps at most Window profiles are evicted, so the map holds
	// pairs among at most 2*Window profiles: <= 2*Window^2 entries, stream
	// length notwithstanding.
	bound := 2 * window * window
	if snap.DedupEntries > bound {
		t.Errorf("dedup map has %d entries after %d evictions, want <= %d",
			snap.DedupEntries, snap.WindowEvictions, bound)
	}
	if snap.DedupEntries >= res.Comparisons {
		t.Errorf("dedup map (%d) was never pruned below total comparisons (%d)",
			snap.DedupEntries, res.Comparisons)
	}
}

// TestLivePushAfterStopErrors covers the stream layer's guard: Push after
// Stop must fail with ErrStopped, not "send on closed channel".
func TestLivePushAfterStopErrors(t *testing.T) {
	d := dataset.DA(0.02, 43)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
	})
	if err := l.Push(d.Increments(2)[0]); err != nil {
		t.Fatalf("Push on a running pipeline = %v", err)
	}
	l.Stop()
	if err := l.Push(d.Increments(2)[1]); !errors.Is(err, ErrStopped) {
		t.Fatalf("Push after Stop = %v, want ErrStopped", err)
	}
}

// TestLiveStopIdempotent verifies repeated Stop calls return the same result
// instead of re-closing the channel.
func TestLiveStopIdempotent(t *testing.T) {
	d := dataset.DA(0.02, 44)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
	})
	for _, inc := range d.Increments(3) {
		l.Push(inc)
	}
	first := l.Stop()
	second := l.Stop()
	if first != second {
		t.Error("second Stop returned a different result")
	}
}

// TestDriveCancelDuringSleep is the regression test for Drive ignoring ctx
// cancellation inside the inter-increment pause: with a 5s interval and a
// cancellation after 50ms, Drive must return promptly, not after the sleep.
func TestDriveCancelDuringSleep(t *testing.T) {
	d := dataset.DA(0.02, 45)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	res := Drive(ctx, l, d.Increments(5), 0.2) // 5s between increments
	if res == nil {
		t.Fatal("Drive returned nil")
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Errorf("Drive took %v after cancellation; still sleeping through the interval", elapsed)
	}
}

// TestLiveSnapshotAndSharedRegistry checks Snapshot's gauge plumbing and that
// a caller-supplied registry receives the pipeline's instruments.
func TestLiveSnapshotAndSharedRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	d := dataset.DA(0.05, 46)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		Metrics:      reg,
	})
	if l.Registry() != reg {
		t.Fatal("Registry() did not return the caller-supplied registry")
	}
	incs := d.Increments(6)
	for _, inc := range incs {
		l.Push(inc)
	}
	res := l.Stop()
	snap := l.Snapshot()
	if snap.Profiles != d.NumProfiles() || snap.Increments != len(incs) {
		t.Errorf("snapshot profiles/increments = %d/%d, want %d/%d",
			snap.Profiles, snap.Increments, d.NumProfiles(), len(incs))
	}
	if snap.K <= 0 {
		t.Errorf("snapshot K = %d, want > 0", snap.K)
	}
	if snap.Pending != 0 {
		t.Errorf("snapshot pending = %d after a drained Stop, want 0", snap.Pending)
	}
	if snap.Comparisons != res.Comparisons {
		t.Errorf("snapshot comparisons = %d, summary %d", snap.Comparisons, res.Comparisons)
	}
	if got := reg.Counter("pier_comparisons_total", "").Value(); int(got) != res.Comparisons {
		t.Errorf("shared registry counter = %d, summary %d", got, res.Comparisons)
	}
	if reg.Histogram("pier_increment_size", "", nil).Count() != uint64(len(incs)) {
		t.Error("increment-size histogram did not record every push")
	}
	// One fill ratio per non-idle batch, next to its size: jobs / K, so in
	// (0, 1] on average for a run that executed comparisons.
	fill := reg.Histogram("pier_batch_fill_ratio", "", nil)
	if n := reg.Histogram("pier_batch_size", "", nil).Count(); fill.Count() == 0 || fill.Count() != n {
		t.Errorf("pier_batch_fill_ratio has %d observations, pier_batch_size %d; want equal and > 0", fill.Count(), n)
	}
	if mean := fill.Mean(); mean <= 0 || mean > 1 {
		t.Errorf("pier_batch_fill_ratio mean = %v, want in (0, 1]", mean)
	}
}

// TestRestoreInstruments checks that RestoreLive records how long the restore
// took and how large the checkpoint was on the restoring config's registry,
// beside the checkpoint's own instruments.
func TestRestoreInstruments(t *testing.T) {
	l, _ := spillRun(t, storage.Config{}, nil)
	snap := checkpoint(t, l)
	reg := obsv.NewRegistry()
	r, err := RestoreLive(bytes.NewReader(snap), core.NewIPCS(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Hour,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if n := reg.Histogram("pier_restore_seconds", "", nil).Count(); n != 1 {
		t.Errorf("pier_restore_seconds has %d observations after one restore, want 1", n)
	}
	if got := reg.Gauge("pier_restore_bytes", "").Value(); got != int64(len(snap)) {
		t.Errorf("pier_restore_bytes = %d, the checkpoint holds %d", got, len(snap))
	}
}
