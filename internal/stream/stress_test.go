package stream

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/profile"
)

// stressIncSize is the number of profiles per sentinel increment in the
// torn-snapshot stress tests.
const stressIncSize = 8

// sentinelIncrement builds increment k for the torn-snapshot stress: every
// profile carries the two sentinel tokens snta<k> and sntb<k> — deliberately
// two tokens so their blocks usually land in *different* index shards — plus
// a unique token. A probe carrying both sentinels therefore only ever sees:
// no candidates (increment not yet published) or all of them with CBS weight
// exactly 2 (both blocks from one published version). A candidate with
// weight 1 would prove a torn read across shards; a partial member list
// would prove a torn read within a block.
func sentinelIncrement(k int) []*profile.Profile {
	out := make([]*profile.Profile, stressIncSize)
	for j := range out {
		id := k*stressIncSize + j
		val := fmt.Sprintf("snta%d sntb%d uniq%d", k, k, id)
		out[j] = profile.New(id, profile.SourceA, "", "attr", val)
	}
	return out
}

// sentinelProbe is the query probe for increment k: both sentinels, nothing
// else.
func sentinelProbe(k int) *profile.Profile {
	return profile.New(-1, profile.SourceA, "", "attr", fmt.Sprintf("snta%d sntb%d", k, k))
}

// assertUntorn checks one query answer against the all-or-none contract for
// increment k. It returns whether the increment was visible.
func assertUntorn(t *testing.T, k int, got []QueryCandidate) bool {
	t.Helper()
	if len(got) == 0 {
		return false
	}
	if len(got) != stressIncSize {
		t.Errorf("increment %d: query saw %d of %d members — torn snapshot", k, len(got), stressIncSize)
		return true
	}
	lo, hi := k*stressIncSize, (k+1)*stressIncSize
	for _, c := range got {
		if c.ID < lo || c.ID >= hi {
			t.Errorf("increment %d: candidate %d is not a member", k, c.ID)
		}
		if c.Weight != 2 {
			t.Errorf("increment %d: candidate %d weight %v, want 2 — sentinel blocks from different versions", k, c.ID, c.Weight)
		}
		if c.Profile == nil {
			t.Errorf("increment %d: candidate %d resolved no profile from the pinned view", k, c.ID)
		}
	}
	return true
}

// TestQueryIngestNoTornSnapshots is the -race mixed read/write stress test:
// reader goroutines hammer Query while the pipeline ingests sentinel
// increments and a third goroutine checkpoints the live state. Every answer
// must correspond to a fully published index version — an increment is
// either entirely visible (all members, cross-shard-consistent weights) or
// not at all.
func TestQueryIngestNoTornSnapshots(t *testing.T) {
	const nIncs = 40
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:  false,
		Matcher:     match.NewMatcher(match.JS),
		TickEvery:   time.Millisecond,
		Parallelism: 4,
		Shards:      8,
	})
	defer l.Stop()

	var pushed atomic.Int64 // increments handed to Push so far
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: probe a random already-pushed increment's sentinels.
	var visible atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := pushed.Load()
				if n == 0 {
					continue
				}
				k := int(rng.Int63n(n))
				ans, err := l.Query(context.Background(), sentinelProbe(k), QueryOptions{TopK: -1})
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if assertUntorn(t, k, ans.Candidates) {
					visible.Add(1)
				}
			}
		}(int64(r + 1))
	}

	// Checkpointer: serialize live state concurrently with queries+ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				if _, err := l.Checkpoint(io.Discard); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()

	// Writer (this goroutine): push all increments, pacing lightly so
	// readers interleave with many distinct publish points.
	for k := 0; k < nIncs; k++ {
		if err := l.Push(sentinelIncrement(k)); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
		pushed.Store(int64(k + 1))
		time.Sleep(2 * time.Millisecond)
	}
	for l.Snapshot().Increments < nIncs {
		time.Sleep(time.Millisecond)
	}
	// Let readers observe the fully-ingested state too, then stop.
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()

	if visible.Load() == 0 {
		t.Fatal("stress ran but no query ever observed a published increment — assertions were vacuous")
	}
	// After full ingest, every increment must be visible.
	for k := 0; k < nIncs; k++ {
		ans, err := l.Query(context.Background(), sentinelProbe(k), QueryOptions{TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		if !assertUntorn(t, k, ans.Candidates) {
			t.Fatalf("increment %d invisible after full ingest", k)
		}
	}
}
