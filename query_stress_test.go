package pier_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pier"
)

// stressIncSize is the number of profiles per sentinel increment.
const stressIncSize = 8

// stressIncrement builds increment k of the public-API stress test: every
// member carries two sentinel tokens tied to k, so a query probing both must
// see the increment all-or-none with a consistent cross-shard weight.
func stressIncrement(k int) []pier.Profile {
	out := make([]pier.Profile, stressIncSize)
	for j := range out {
		out[j] = pier.Profile{
			Key:        fmt.Sprintf("inc%d-%d", k, j),
			Attributes: pier.Attr("attr", fmt.Sprintf("snta%d sntb%d uniq%d-%d", k, k, k, j)),
		}
	}
	return out
}

// TestPipelineQueryUnderIngestStress hammers Pipeline.Query and QueryTenant
// from several goroutines while Push keeps ingesting, under -race. Admission
// rejections (ErrOverloaded, ErrRateLimited) are expected and tolerated; any
// admitted answer must be untorn: all candidates from one increment, every
// weight exactly 2 (both sentinel blocks from the same published version),
// and every candidate's Profile the value pushed, read from the registry
// while Push keeps appending to it.
func TestPipelineQueryUnderIngestStress(t *testing.T) {
	const nIncs = 30
	p, err := pier.NewPipeline(pier.Options{
		Algorithm:          pier.IPES,
		TickEvery:          time.Millisecond,
		Parallelism:        4,
		Shards:             8,
		QueryTopK:          -1,
		MaxInFlightQueries: 4, // small enough that readers really contend on admission
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	var pushed atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	var answered, rejected atomic.Int64
	pushedByKey := map[string]pier.Profile{}
	for k := 0; k < nIncs; k++ {
		for _, pr := range stressIncrement(k) {
			pushedByKey[pr.Key] = pr
		}
	}

	check := func(k int, res *pier.QueryResult) {
		if len(res.Candidates) == 0 {
			return
		}
		if len(res.Candidates) != stressIncSize {
			t.Errorf("increment %d: %d of %d members — torn snapshot", k, len(res.Candidates), stressIncSize)
			return
		}
		prefix := fmt.Sprintf("inc%d-", k)
		for _, c := range res.Candidates {
			if len(c.Profile.Key) < len(prefix) || c.Profile.Key[:len(prefix)] != prefix {
				t.Errorf("increment %d: candidate %q is not a member", k, c.Profile.Key)
			}
			if c.Weight != 2 {
				t.Errorf("increment %d: candidate %q weight %v, want 2", k, c.Profile.Key, c.Weight)
			}
			if !reflect.DeepEqual(c.Profile, pushedByKey[c.Profile.Key]) {
				t.Errorf("increment %d: candidate %+v is not the pushed profile", k, c.Profile)
			}
		}
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r + 1)))
			tenant := fmt.Sprintf("tenant%d", r%2)
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
				probe := pier.Profile{Attributes: pier.Attr("attr", fmt.Sprintf("snta%d sntb%d", k, k))}
				var res *pier.QueryResult
				var err error
				if r%2 == 0 {
					res, err = p.Query(probe)
				} else {
					res, err = p.QueryTenant(context.Background(), tenant, probe)
				}
				if err != nil {
					if errors.Is(err, pier.ErrOverloaded) || errors.Is(err, pier.ErrRateLimited) {
						rejected.Add(1)
						continue
					}
					t.Errorf("query: %v", err)
					return
				}
				answered.Add(1)
				check(k, res)
			}
		}(r)
	}

	for k := 0; k < nIncs; k++ {
		if err := p.Push(stressIncrement(k)); err != nil {
			t.Fatalf("push %d: %v", k, err)
		}
		pushed.Store(int64(k + 1))
		time.Sleep(2 * time.Millisecond)
	}
	for p.Snapshot().Increments < nIncs {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(done)
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no query was ever admitted — stress assertions were vacuous")
	}
	t.Logf("answered %d queries (%d admission rejections) during ingest of %d increments",
		answered.Load(), rejected.Load(), nIncs)

	// Quiescent sweep: after full ingest every increment must be visible.
	for k := 0; k < nIncs; k++ {
		res, err := p.Query(pier.Profile{Attributes: pier.Attr("attr", fmt.Sprintf("snta%d sntb%d", k, k))})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Candidates) != stressIncSize {
			t.Fatalf("increment %d: %d of %d members after full ingest", k, len(res.Candidates), stressIncSize)
		}
		check(k, res)
	}
}
