package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
)

func TestLiveRunFindsDuplicates(t *testing.T) {
	d := dataset.DA(0.05, 3)
	var mu sync.Mutex
	var events []LiveMatch
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		GroundTruth:  d.GroundTruth,
		OnMatch: func(m LiveMatch) {
			mu.Lock()
			events = append(events, m)
			mu.Unlock()
		},
	})
	for _, inc := range d.Increments(10) {
		l.Push(inc)
	}
	res := l.Stop()
	if res.Profiles != d.NumProfiles() {
		t.Errorf("Profiles = %d, want %d", res.Profiles, d.NumProfiles())
	}
	if res.Curve.FinalPC() < 0.8 {
		t.Errorf("live PC = %.3f, want >= 0.8", res.Curve.FinalPC())
	}
	if res.Matches == 0 || len(events) != res.Matches {
		t.Errorf("Matches = %d, OnMatch events = %d", res.Matches, len(events))
	}
	for _, m := range events {
		if m.X == nil || m.Y == nil || m.Similarity < match.DefaultThreshold {
			t.Fatalf("bad match event %+v", m)
		}
	}
	if res.Comparisons == 0 || res.Elapsed <= 0 {
		t.Error("live run recorded no work")
	}
}

func TestLiveStatsProgress(t *testing.T) {
	d := dataset.DA(0.05, 5)
	l := LiveRun(core.NewIPCS(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
	})
	for _, inc := range d.Increments(4) {
		l.Push(inc)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c, _ := l.Stats(); c > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no comparisons after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	res := l.Stop()
	if res.Comparisons == 0 {
		t.Error("no comparisons recorded")
	}
}

func TestDriveRespectsContext(t *testing.T) {
	d := dataset.DA(0.05, 7)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel immediately: Drive must stop after at most one push
	res := Drive(ctx, l, d.Increments(10), 1000)
	if res == nil {
		t.Fatal("Drive returned nil")
	}
	if res.Profiles > d.NumProfiles()/5 {
		t.Errorf("Drive ingested %d profiles after cancellation", res.Profiles)
	}
}

func TestDriveFullStream(t *testing.T) {
	d := dataset.DA(0.05, 9)
	l := LiveRun(core.NewIPBS(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		GroundTruth:  d.GroundTruth,
	})
	res := Drive(context.Background(), l, d.Increments(5), 0)
	if res.Profiles != d.NumProfiles() {
		t.Errorf("Profiles = %d, want %d", res.Profiles, d.NumProfiles())
	}
	if res.Curve.FinalPC() < 0.7 {
		t.Errorf("PC = %.3f", res.Curve.FinalPC())
	}
}

// TestLiveParallelMatchingEquivalent is the match fork's determinism test:
// with a matcher slow enough that batches cross the fork grain, runs at
// Parallelism 1, 2 and 4 execute the same pairs and find the same matches,
// ground-truth pairs and clusters, and the parallel runs really fork.
func TestLiveParallelMatchingEquivalent(t *testing.T) {
	d := dataset.DA(0.02, 21)
	type outcome struct {
		res      *LiveResult
		executed map[uint64]struct{}
		forked   int64
	}
	run := func(parallelism int) outcome {
		var forked atomic.Int64
		executed := map[uint64]struct{}{}
		l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
			CleanClean:     true,
			MaxBlockSize:   DefaultMaxBlockSize,
			ContextMatcher: spinMatcher(130*time.Microsecond, &forked),
			TickEvery:      time.Millisecond,
			GroundTruth:    d.GroundTruth,
			Parallelism:    parallelism,
			OnExecuted:     func(k uint64) { executed[k] = struct{}{} },
		})
		for _, inc := range d.Increments(5) {
			l.Push(inc)
		}
		return outcome{l.Stop(), executed, forked.Load()}
	}
	seq := run(1)
	if seq.forked != 0 || seq.res.Comparisons == 0 {
		t.Fatalf("serial run forked %d of %d comparisons", seq.forked, seq.res.Comparisons)
	}
	for _, par := range []int{2, 4} {
		got := run(par)
		if got.forked == 0 {
			t.Errorf("parallelism %d never forked a batch", par)
		}
		if len(got.executed) != len(seq.executed) {
			t.Errorf("parallelism %d executed %d pairs, serial %d", par, len(got.executed), len(seq.executed))
		}
		for k := range seq.executed {
			if _, ok := got.executed[k]; !ok {
				t.Fatalf("parallelism %d never executed pair %v", par, k)
			}
		}
		if got.res.Matches != seq.res.Matches || got.res.Curve.FinalFound != seq.res.Curve.FinalFound {
			t.Errorf("parallelism %d: %d matches, %d found; serial %d, %d",
				par, got.res.Matches, got.res.Curve.FinalFound, seq.res.Matches, seq.res.Curve.FinalFound)
		}
		if fmt.Sprint(got.res.Clusters) != fmt.Sprint(seq.res.Clusters) {
			t.Errorf("parallelism %d: clusters differ from the serial run's", par)
		}
	}
}

func TestLiveWindowEviction(t *testing.T) {
	d := dataset.DA(0.05, 33)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		Window:       40,
	})
	for _, inc := range d.Increments(12) {
		l.Push(inc)
	}
	res := l.Stop()
	if res.Profiles != d.NumProfiles() {
		t.Errorf("Profiles = %d, want %d (eviction must not lose ingestion counts)", res.Profiles, d.NumProfiles())
	}
	// A windowed run still finds matches among co-resident profiles.
	if res.Matches == 0 {
		t.Error("windowed pipeline found no matches at all")
	}
}
