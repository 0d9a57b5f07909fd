package stream

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"pier/internal/blocking"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// This file is the online serving path: Live.Query resolves one probe
// profile against the live blocking index from any goroutine, while the
// pipeline goroutine keeps ingesting. The query never writes pipeline state
// — candidates come from one pinned read view (the RCU snapshot the pipeline
// publishes after each increment), the probe's tokens are looked up without
// interning, and nothing the query does reaches the strategy, the cluster
// graph, the dedup map, or the adaptive-K controller — so a stream run
// produces bit-for-bit identical results whether or not queries hammer it.
// Because the whole query runs against a single published version, its answer
// can never mix state from two increments (no torn snapshots); see DESIGN.md
// §12. The one shared piece is the fallible matcher's circuit breaker:
// queries and stream batches protect the same downstream match service, so a
// breaker opened by either side throttles both. See DESIGN.md §11.

// DefaultQueryTopK is the number of top-ranked candidates a query matches
// when QueryOptions.TopK is zero.
const DefaultQueryTopK = 10

// ErrNilProbe is returned by Query for a nil probe profile.
var ErrNilProbe = errors.New("stream: Query with nil probe")

// QueryOptions tunes one Query call.
type QueryOptions struct {
	// TopK bounds how many top-ranked candidates are run through the
	// matcher. 0 means DefaultQueryTopK; negative means all candidates.
	TopK int
}

// QueryCandidate is one ranked candidate of a query answer.
type QueryCandidate struct {
	// ID is the candidate's profile ID in the pipeline.
	ID int
	// Profile is the candidate's registered profile.
	Profile *profile.Profile
	// Weight is the meta-blocking scheme weight of (probe, candidate).
	Weight float64
	// Similarity is the matcher's similarity, when the configured matcher
	// produces one (the fallible path reports 1 for a match, 0 otherwise).
	Similarity float64
	// Match reports the matcher's verdict.
	Match bool
	// Err is the matcher failure for this candidate, if any (timeout,
	// open breaker, backend error). A failed candidate keeps its rank;
	// its verdict is unknowable, not negative.
	Err error
}

// QueryAnswer is the result of one Query call.
type QueryAnswer struct {
	// Candidates are the matched top-K candidates, best weight first.
	Candidates []QueryCandidate
	// Considered is the number of distinct co-blocked partners found
	// before the top-K cut.
	Considered int
	// Elapsed is the end-to-end query latency.
	Elapsed time.Duration
}

// probeKernels pools the probe-side sweep scratch across queries: a kernel's
// dense epoch-stamped arrays replace the per-query partner map, so a warm
// query accumulates its candidates with zero allocation. Pool size is bounded
// by query concurrency (the admission gate's in-flight cap); kernels never
// touch the collection, only the member lists of the pinned posting views.
var probeKernels = sync.Pool{New: func() any { return new(metablocking.Kernel) }}

// Query resolves probe against the live index: tokenize the probe, look up
// its posting lists, rank the co-blocked partners with the configured
// weighting scheme, and run the matcher on the top-K. It is safe to call
// from any goroutine, concurrently with Push and with other queries, while
// the pipeline runs or after Stop (the quiescent index stays readable).
//
// The probe is never added to the index and its ID never collides with
// pipeline profiles (use a negative ID). For Clean-Clean tasks the probe's
// Source restricts candidates to the opposite source, like any ingested
// profile. Matching runs on the calling goroutine: a single attempt per
// candidate through the fallible matcher when one is configured (no retry
// loop — the stream's requeue machinery owns retries; a query wants an
// answer now), honoring ctx cancellation between candidates.
func (l *Live) Query(ctx context.Context, probe *profile.Profile, opt QueryOptions) (*QueryAnswer, error) {
	if probe == nil {
		return nil, ErrNilProbe
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	col := l.st.col

	// Pin one published snapshot for the whole query: every lookup below is
	// lock-free and observes the same version.
	view := col.ProbeView()
	syms := col.ProbeSyms(probe)
	postings := view.AppendPostings(make([]*blocking.Posting, 0, len(syms)), syms)

	// Aggregate per-partner statistics over the probe's posting copies —
	// shared-block count, ARCS reciprocal sum — exactly as incremental
	// candidate generation does for an arriving profile, except partners are
	// not restricted to smaller IDs: the probe is outside the stream, so
	// every indexed profile is a legitimate partner. The pooled sweep kernel
	// replaces the per-query partner map; it only ever reads the pinned
	// posting views, never the live collection.
	kern := probeKernels.Get().(*metablocking.Kernel)
	kern.BeginProbe()
	for _, p := range postings {
		inv := 1.0 / float64(max(1, p.Comparisons(l.cfg.CleanClean)))
		if l.cfg.CleanClean {
			if probe.Source == profile.SourceA {
				kern.Accumulate(p.B, inv)
			} else {
				kern.Accumulate(p.A, inv)
			}
		} else {
			kern.Accumulate(p.A, inv)
			kern.Accumulate(p.B, inv)
		}
	}

	// Weigh with the same Scheme.Weight as ingest-side generation; only the
	// denominators differ — they come from the pinned view, and |B(probe)| is
	// the probe's live posting count (the blocks it would occupy).
	scheme := l.cfg.Scheme
	partners := kern.Partners()
	cands := make([]QueryCandidate, 0, len(partners))
	for _, id := range partners {
		common, arcs := kern.ProbeStats(id)
		var by, total int
		if scheme.UsesCardinalities() {
			by, total = view.NumBlocksOf(id), view.NumBlocks()
		}
		cands = append(cands, QueryCandidate{
			ID:     id,
			Weight: scheme.Weight(common, arcs, len(postings), by, total),
		})
	}
	probeKernels.Put(kern)
	// Best weight first; ties by ascending partner ID so concurrent queries
	// for the same probe rank identically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Weight != cands[j].Weight {
			return cands[i].Weight > cands[j].Weight
		}
		return cands[i].ID < cands[j].ID
	})
	considered := len(cands)
	topK := opt.TopK
	if topK == 0 {
		topK = DefaultQueryTopK
	}
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}

	// Resolve profiles and match on the calling goroutine. Profiles come
	// from the same pinned view as the postings, so a candidate listed in a
	// posting always resolves against the registry of that same version
	// (a profile evicted in a *later* increment still answers here — the
	// answer is consistent as of the pinned version).
	out := cands[:0]
	for i := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cands[i]
		c.Profile = view.Profile(c.ID)
		if c.Profile == nil {
			continue
		}
		c.Match, c.Similarity, c.Err = l.queryMatch(ctx, probe, c.Profile)
		if c.Match {
			l.m.queryMatches.Inc()
		}
		out = append(out, c)
	}

	ans := &QueryAnswer{
		Candidates: out,
		Considered: considered,
		Elapsed:    time.Since(t0),
	}
	l.m.queries.Inc()
	l.m.queryCands.Observe(float64(considered))
	l.m.querySec.Observe(ans.Elapsed.Seconds())
	return ans, nil
}

// queryMatch classifies one (probe, candidate) pair on the caller's clock: a
// single attempt through the fallible matcher when configured — honoring its
// timeout and circuit breaker but never its retry/backoff loop — or the
// plain similarity matcher otherwise.
func (l *Live) queryMatch(ctx context.Context, probe, y *profile.Profile) (ok bool, sim float64, err error) {
	if l.cfg.ContextMatcher != nil {
		if f, isFallible := l.cfg.ContextMatcher.(*match.Fallible); isFallible {
			ok, err = f.MatchOnce(ctx, probe, y)
		} else {
			ok, err = l.cfg.ContextMatcher.Match(ctx, probe, y)
		}
		if err != nil {
			return false, 0, err
		}
		if ok {
			sim = 1
		}
		return ok, sim, nil
	}
	sim = l.cfg.Matcher.Similarity(probe, y)
	return sim >= l.cfg.Matcher.Threshold, sim, nil
}
