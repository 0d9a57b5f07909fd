package stream

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/profile"
	"pier/internal/storage"
)

// spillRun pushes a small Clean-Clean stream through a serial pipeline on the
// given storage backend and returns the pipeline, stopped but not closed,
// with the pair keys of every match it reported.
func spillRun(t *testing.T, scfg storage.Config, reg *obsv.Registry) (*Live, map[uint64]struct{}) {
	t.Helper()
	matched := make(map[uint64]struct{})
	l := LiveRun(core.NewIPCS(core.DefaultConfig()), LiveConfig{
		CleanClean:   true,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Hour,
		Parallelism:  1,
		Shards:       1,
		Metrics:      reg,
		Storage:      scfg,
		OnMatch: func(m LiveMatch) {
			matched[profile.PairKey(m.X.ID, m.Y.ID)] = struct{}{}
		},
	})
	for _, inc := range dataset.DA(0.05, 41).Increments(10) {
		if err := l.Push(inc); err != nil {
			t.Fatal(err)
		}
	}
	l.Stop()
	return l, matched
}

// TestLiveSpillWriteErrorIsNonFatal points the pipeline's spill directory at
// a regular file, so neither spill store can create its directory. The run
// must not panic: both stores keep their state resident, the match set
// equals the budget-0 run's, and Err reports the failure.
func TestLiveSpillWriteErrorIsNonFatal(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	ref, want := spillRun(t, storage.Config{}, nil)
	if err := ref.Err(); err != nil {
		t.Fatalf("budget-0 run: Err() = %v", err)
	}
	l, got := spillRun(t, storage.Config{Budget: 4 << 10, Dir: notDir}, nil)
	defer l.Close()
	if l.Err() == nil {
		t.Fatal("Err() is nil after every spill write failed")
	}
	if len(want) == 0 {
		t.Fatal("budget-0 run matched nothing; the comparison is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("run with failing spill writes matched %d pairs, budget-0 run %d", len(got), len(want))
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			x, y := profile.SplitPairKey(key)
			t.Fatalf("run with failing spill writes missed the match (%d, %d)", x, y)
		}
	}
}

// TestLiveSpillCountersMove checks the spill instruments: under a budget
// below the index the fault-in, segment-write and segment-byte counters
// advance and the resident gauge tracks the index; at budget 0 every one of
// them stays 0.
func TestLiveSpillCountersMove(t *testing.T) {
	for _, budget := range []int64{0, 4 << 10} {
		reg := obsv.NewRegistry()
		l, _ := spillRun(t, storage.Config{Budget: budget, Dir: t.TempDir()}, reg)
		faultIns := reg.Counter("pier_spill_faultins_total", "").Value()
		writes := reg.Counter("pier_spill_segment_writes_total", "").Value()
		written := reg.Counter("pier_spill_segment_bytes_total", "").Value()
		resident := reg.Gauge("pier_storage_resident_bytes", "").Value()
		if budget == 0 {
			if faultIns != 0 || writes != 0 || written != 0 || resident != 0 {
				t.Errorf("budget 0: fault-ins %d, writes %d, bytes %d, resident %d; want all 0", faultIns, writes, written, resident)
			}
		} else {
			if faultIns == 0 || writes == 0 || written == 0 {
				t.Errorf("budget %d: fault-ins %d, writes %d, bytes %d; want all > 0", budget, faultIns, writes, written)
			}
			if want := l.st.col.StorageResidentBytes(); resident != want {
				t.Errorf("budget %d: resident gauge %d, index holds %d", budget, resident, want)
			}
			if err := l.Err(); err != nil {
				t.Errorf("budget %d: Err() = %v", budget, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
