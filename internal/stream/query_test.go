package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// probeOf copies an indexed profile into a probe with the out-of-band ID -1.
func probeOf(p *profile.Profile) *profile.Profile {
	return &profile.Profile{
		ID:         -1,
		Source:     p.Source,
		EntityKey:  p.EntityKey,
		Attributes: append([]profile.Attribute(nil), p.Attributes...),
	}
}

func TestQueryFindsIndexedDuplicates(t *testing.T) {
	d := dataset.DA(0.05, 3)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean: true,
		Matcher:    match.NewMatcher(match.JS),
		TickEvery:  time.Millisecond,
	})
	incs := d.Increments(4)
	for _, inc := range incs {
		l.Push(inc)
	}
	defer l.Stop()
	for l.Snapshot().Increments < len(incs) {
		time.Sleep(time.Millisecond)
	}

	// Probing with a copy of an indexed profile must surface at least that
	// profile's co-blocked partners; with JS matching, the best-weighted
	// candidates include its true duplicates where ground truth has one.
	probe := probeOf(incs[0][0])
	ans, err := l.Query(context.Background(), probe, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Considered == 0 || len(ans.Candidates) == 0 {
		t.Fatalf("no candidates for an indexed profile's copy: %+v", ans)
	}
	if len(ans.Candidates) > DefaultQueryTopK {
		t.Errorf("default TopK not applied: %d candidates", len(ans.Candidates))
	}
	if ans.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	// Ranking is by descending weight.
	for i := 1; i < len(ans.Candidates); i++ {
		if ans.Candidates[i].Weight > ans.Candidates[i-1].Weight {
			t.Fatalf("candidates out of order at %d: %+v", i, ans.Candidates)
		}
	}
	for _, c := range ans.Candidates {
		if c.Profile == nil {
			t.Fatal("candidate without profile")
		}
		if c.Profile.Source == probe.Source {
			t.Fatalf("Clean-Clean query returned same-source candidate %d", c.ID)
		}
	}
	// Serving metrics moved.
	snap := l.Registry().Snapshot()
	if snap["pier_queries_total"].(uint64) != 1 {
		t.Errorf("pier_queries_total = %v", snap["pier_queries_total"])
	}
	if h := snap["pier_query_seconds"].(map[string]interface{}); h["count"].(uint64) != 1 {
		t.Errorf("pier_query_seconds count = %v", h["count"])
	}
}

func TestQueryTopKAndSchemes(t *testing.T) {
	d := dataset.DA(0.05, 11)
	incs := d.Increments(2)
	for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS} {
		l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
			CleanClean: true,
			Matcher:    match.NewMatcher(match.JS),
			Scheme:     scheme,
			TickEvery:  time.Millisecond,
		})
		for _, inc := range incs {
			l.Push(inc)
		}
		for l.Snapshot().Increments < len(incs) {
			time.Sleep(time.Millisecond)
		}
		probe := probeOf(incs[0][0])
		all, err := l.Query(context.Background(), probe, QueryOptions{TopK: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(all.Candidates) != all.Considered {
			t.Errorf("%v: TopK=-1 returned %d of %d considered", scheme, len(all.Candidates), all.Considered)
		}
		top3, err := l.Query(context.Background(), probe, QueryOptions{TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		if all.Considered >= 3 && len(top3.Candidates) != 3 {
			t.Errorf("%v: TopK=3 returned %d candidates", scheme, len(top3.Candidates))
		}
		// The top-3 are the same best-ranked prefix of the full answer.
		for i := range top3.Candidates {
			if top3.Candidates[i].ID != all.Candidates[i].ID {
				t.Errorf("%v: TopK prefix diverges at %d: %d vs %d",
					scheme, i, top3.Candidates[i].ID, all.Candidates[i].ID)
			}
		}
		for _, c := range all.Candidates {
			if scheme != metablocking.CBS && c.Weight < 0 {
				t.Errorf("%v: negative weight %v", scheme, c.Weight)
			}
		}
		l.Stop()
	}
}

// TestQueryWeightsMatchReference pins the probe path's weights to the
// reference weigher: on a quiescent pipeline, the last ingested profile
// re-sent as a probe sees exactly the partners that profile had when it
// arrived, so every candidate's Weight must equal — float bits — the weight
// metablocking.Candidates gives that profile against the same partner, for
// every scheme, Dirty and Clean-Clean.
func TestQueryWeightsMatchReference(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.Census(0.0005, 5), dataset.DA(0.05, 5)} {
		incs := d.Increments(3)
		last := incs[len(incs)-1]
		p := last[len(last)-1]
		for _, scheme := range []metablocking.Scheme{metablocking.CBS, metablocking.JSScheme, metablocking.ECBS, metablocking.ARCS} {
			l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
				CleanClean: d.CleanClean,
				Matcher:    match.NewMatcher(match.JS),
				Scheme:     scheme,
				TickEvery:  time.Millisecond,
			})
			for _, inc := range incs {
				l.Push(inc)
			}
			l.Interrupt() // indexes every pushed increment, skips the drain
			col := l.st.col
			want := make(map[int]float64)
			for _, c := range metablocking.Candidates(col, p, col.BlocksOf(p.ID), scheme) {
				want[c.Y] = c.Weight
			}
			ans, err := l.Query(context.Background(), probeOf(p), QueryOptions{TopK: -1})
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, c := range ans.Candidates {
				if c.ID == p.ID {
					continue // the probe's own indexed twin (Dirty only)
				}
				got++
				if w, ok := want[c.ID]; !ok || c.Weight != w {
					t.Errorf("%s %v: partner %d weighs %v in the query, %v (present=%v) in the reference",
						d.Name, scheme, c.ID, c.Weight, w, ok)
				}
			}
			if got == 0 || got != len(want) {
				t.Errorf("%s %v: query returned %d partners, reference %d", d.Name, scheme, got, len(want))
			}
		}
	}
}

func TestQueryAfterStopAndErrors(t *testing.T) {
	d := dataset.DA(0.05, 13)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean: true,
		Matcher:    match.NewMatcher(match.JS),
		TickEvery:  time.Millisecond,
	})
	incs := d.Increments(2)
	for _, inc := range incs {
		l.Push(inc)
	}
	l.Stop()

	// The quiescent index stays queryable after Stop.
	ans, err := l.Query(context.Background(), probeOf(incs[0][0]), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) == 0 {
		t.Error("no candidates after Stop")
	}

	if _, err := l.Query(context.Background(), nil, QueryOptions{}); !errors.Is(err, ErrNilProbe) {
		t.Errorf("nil probe: err = %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Query(cancelled, probeOf(incs[0][0]), QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v", err)
	}
	// A probe with no known tokens answers empty, not an error.
	empty, err := l.Query(context.Background(), &profile.Profile{
		ID:         -1,
		Attributes: []profile.Attribute{{Name: "t", Value: "zzqqxxyy zyzzyva"}},
	}, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Considered != 0 || len(empty.Candidates) != 0 {
		t.Errorf("junk probe found candidates: %+v", empty)
	}
}

func TestQueryConcurrentWithIngest(t *testing.T) {
	d := dataset.DA(0.1, 17)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean: true,
		Matcher:    match.NewMatcher(match.JS),
		TickEvery:  time.Millisecond,
	})
	incs := d.Increments(20)
	probes := make([]*profile.Profile, 0, 32)
	for i := 0; i < 32 && i < len(incs[0]); i++ {
		probes = append(probes, probeOf(incs[0][i]))
	}

	// Hammer queries from several goroutines while increments stream in.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var qmu sync.Mutex
	queries, answered := 0, 0
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ans, err := l.Query(context.Background(), probes[(w+i)%len(probes)], QueryOptions{TopK: 5})
				qmu.Lock()
				queries++
				if err == nil && len(ans.Candidates) > 0 {
					answered++
				}
				qmu.Unlock()
				if err != nil {
					t.Errorf("query under ingest: %v", err)
					return
				}
			}
		}()
	}
	for _, inc := range incs {
		l.Push(inc)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	res := l.Stop()
	if res.Profiles != d.NumProfiles() {
		t.Errorf("ingest lost profiles under query load: %d of %d", res.Profiles, d.NumProfiles())
	}
	if queries == 0 || answered == 0 {
		t.Errorf("no concurrent queries ran (ran %d, answered %d)", queries, answered)
	}
}

// TestQueryDoesNotPerturbStream is the isolation guarantee: an identically
// configured, identically fed run produces the identical result whether or
// not queries hammer it throughout.
func TestQueryDoesNotPerturbStream(t *testing.T) {
	d := dataset.DA(0.05, 19)
	incs := d.Increments(8)
	run := func(withQueries bool) *LiveResult {
		l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
			CleanClean:      true,
			Matcher:         match.NewMatcher(match.JS),
			Parallelism:     1,
			TickEvery:       time.Millisecond,
			CheckInvariants: true,
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if withQueries {
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						l.Query(context.Background(), probeOf(incs[i%len(incs)][0]), QueryOptions{})
					}
				}()
			}
		}
		for _, inc := range incs {
			l.Push(inc)
		}
		res := l.Stop()
		close(stop)
		wg.Wait()
		return res
	}
	quiet := run(false)
	noisy := run(true)
	if quiet.Comparisons != noisy.Comparisons || quiet.Matches != noisy.Matches ||
		quiet.NewLinks != noisy.NewLinks || len(quiet.Clusters) != len(noisy.Clusters) {
		t.Errorf("query load perturbed the stream: quiet {cmp %d, match %d, links %d, clusters %d} vs noisy {cmp %d, match %d, links %d, clusters %d}",
			quiet.Comparisons, quiet.Matches, quiet.NewLinks, len(quiet.Clusters),
			noisy.Comparisons, noisy.Matches, noisy.NewLinks, len(noisy.Clusters))
	}
}

func TestQueryFallibleMatcher(t *testing.T) {
	d := dataset.DA(0.05, 23)
	incs := d.Increments(1)

	// A matcher that always fails: query candidates carry the error, keep
	// their rank, and a single attempt is made per candidate (no retries).
	var mu sync.Mutex
	attempts := 0
	failing := match.NewFallible(match.ContextFunc(func(ctx context.Context, a, b *profile.Profile) (bool, error) {
		if a.ID < 0 || b.ID < 0 { // count the probe's attempts only, not the stream's
			mu.Lock()
			attempts++
			mu.Unlock()
		}
		return false, fmt.Errorf("backend down")
	}), match.FallibleConfig{Timeout: -1, MaxRetries: 3, BaseBackoff: 0})
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:     true,
		ContextMatcher: failing,
		TickEvery:      time.Hour, // keep the stream loop from consuming attempts
	})
	defer l.Interrupt()
	l.Push(incs[0])
	for l.Snapshot().Increments < 1 {
		time.Sleep(time.Millisecond)
	}
	ans, err := l.Query(context.Background(), probeOf(incs[0][0]), QueryOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	nCands := len(ans.Candidates)
	if nCands == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range ans.Candidates {
		if c.Err == nil || c.Match {
			t.Errorf("failing matcher produced verdict: %+v", c)
		}
	}
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != nCands {
		t.Errorf("%d attempts for %d candidates, want exactly one each (no retry loop)", got, nCands)
	}
}

func TestQueryBreakerFastFail(t *testing.T) {
	d := dataset.DA(0.05, 29)
	incs := d.Increments(1)
	failing := match.NewFallible(match.ContextFunc(func(ctx context.Context, a, b *profile.Profile) (bool, error) {
		return false, fmt.Errorf("backend down")
	}), match.FallibleConfig{Timeout: -1, BreakerThreshold: 1, BreakerCooldown: time.Hour})
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean:     true,
		ContextMatcher: failing,
		TickEvery:      time.Hour,
	})
	defer l.Interrupt()
	l.Push(incs[0])
	for l.Snapshot().Increments < 1 {
		time.Sleep(time.Millisecond)
	}
	ans, err := l.Query(context.Background(), probeOf(incs[0][0]), QueryOptions{TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) < 2 {
		t.Skip("need at least two candidates to observe the open breaker")
	}
	// The first candidate's failure trips the breaker; the rest fail fast
	// with ErrCircuitOpen instead of hitting the backend.
	if !errors.Is(ans.Candidates[1].Err, match.ErrCircuitOpen) {
		t.Errorf("second candidate err = %v, want ErrCircuitOpen", ans.Candidates[1].Err)
	}
}

// TestDriveRecordsPushError is the regression test for the swallowed Push
// error: a Drive racing a concurrent shutdown must leave the failure
// observable through Err(), not report a clean run.
func TestDriveRecordsPushError(t *testing.T) {
	d := dataset.DA(0.05, 31)
	l := LiveRun(core.NewIPES(core.DefaultConfig()), LiveConfig{
		CleanClean: true,
		Matcher:    match.NewMatcher(match.JS),
		TickEvery:  time.Millisecond,
	})
	l.Interrupt() // the stream closes before Drive pushes anything
	res := Drive(context.Background(), l, d.Increments(3), 0)
	if res == nil {
		t.Fatal("Drive returned nil result")
	}
	err := l.Err()
	if err == nil {
		t.Fatal("Drive swallowed the Push error: Err() is nil after a failed drive")
	}
	if !errors.Is(err, ErrStopped) {
		t.Errorf("Err() = %v, want wrapped ErrStopped", err)
	}
}
