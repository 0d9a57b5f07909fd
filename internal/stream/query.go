package stream

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"pier/internal/blocking"
	"pier/internal/intern"
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

// probeScratch is one query's reusable scratch: the probe's symbols and
// posting views, the probe-side sweep kernel, whose dense epoch-stamped
// arrays replace a per-query partner map, and the top-K selection heap.
// probeScratches pools it across queries, so a warm query looks up,
// accumulates and ranks its partners without allocating. Pool size is
// bounded by query concurrency (the admission gate's in-flight cap); kernels
// never touch the collection, only the member lists of the pinned posting
// views.
type probeScratch struct {
	syms     []intern.Sym
	postings []*blocking.Posting
	kern     metablocking.Kernel
	top      []ranked
}

var probeScratches = sync.Pool{New: func() any { return new(probeScratch) }}

// ranked is one weighed partner: the (weight, ID) pair an answer is ordered
// by.
type ranked struct {
	w  float64
	id int
}

// before reports whether a ranks ahead of b: best weight first, ties by
// ascending partner ID so concurrent queries for the same probe rank
// identically.
func (a ranked) before(b ranked) bool {
	if a.w != b.w {
		return a.w > b.w
	}
	return a.id < b.id
}

// compareRanked is before as a slices.SortFunc comparison.
func compareRanked(a, b ranked) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// topK keeps the k best-ranked partners offered to it, k > 0: a heap of at
// most k entries with the worst survivor at the root, so a partner that does
// not beat the root costs one comparison and P offers cost O(P log k).
type topK []ranked

// offer adds r when fewer than k partners are kept or r ranks ahead of the
// worst of them, which it then evicts.
func (h *topK) offer(r ranked, k int) {
	t := *h
	if len(t) < k {
		t = append(t, r)
		for i := len(t) - 1; i > 0; { // sift up: a worse entry rises
			parent := (i - 1) / 2
			if !t[parent].before(t[i]) {
				break
			}
			t[parent], t[i] = t[i], t[parent]
			i = parent
		}
		*h = t
		return
	}
	if !r.before(t[0]) {
		return
	}
	t[0] = r
	for i := 0; ; { // sift down: the worse child replaces a better parent
		worst, l := i, 2*i+1
		if l < len(t) && t[worst].before(t[l]) {
			worst = l
		}
		if l+1 < len(t) && t[worst].before(t[l+1]) {
			worst = l + 1
		}
		if worst == i {
			return
		}
		t[i], t[worst] = t[worst], t[i]
		i = worst
	}
}

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
	sc := probeScratches.Get().(*probeScratch)
	sc.syms = col.AppendProbeSyms(sc.syms[:0], probe)
	postings := view.AppendPostings(sc.postings[:0], sc.syms)

	// Aggregate per-partner statistics over the probe's posting copies —
	// shared-block count, ARCS reciprocal sum — exactly as incremental
	// candidate generation does for an arriving profile, except partners are
	// not restricted to smaller IDs: the probe is outside the stream, so
	// every indexed profile is a legitimate partner. The pooled sweep kernel
	// replaces the per-query partner map; it only ever reads the pinned
	// posting views, never the live collection.
	kern := &sc.kern
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
	// the probe's live posting count (the blocks it would occupy). Only the
	// best k partners survive the weighing: with a cut below the partner
	// count, a bounded selection keeps them, and only they are sorted.
	scheme := l.cfg.Scheme
	partners := kern.Partners()
	considered := len(partners)
	k := opt.TopK
	if k == 0 {
		k = DefaultQueryTopK
	}
	if k < 0 || k > considered {
		k = considered
	}
	top := topK(sc.top[:0])
	for _, id := range partners {
		common, arcs := kern.ProbeStats(id)
		var by, total int
		if scheme.UsesCardinalities() {
			by, total = view.NumBlocksOf(id), view.NumBlocks()
		}
		r := ranked{w: scheme.Weight(common, arcs, len(postings), by, total), id: id}
		if k == considered {
			top = append(top, r) // every partner survives: nothing to select
		} else {
			top.offer(r, k)
		}
	}
	slices.SortFunc(top, compareRanked)
	cands := make([]QueryCandidate, len(top))
	for i, r := range top {
		cands[i] = QueryCandidate{ID: r.id, Weight: r.w}
	}
	clear(postings) // the pool must not pin posting views past this query
	sc.postings, sc.top = postings[:0], top

	// Resolve profiles and match on the calling goroutine. Profiles come
	// from the same pinned view as the postings, so a candidate listed in a
	// posting always resolves against the registry of that same version
	// (a profile evicted in a *later* increment still answers here — the
	// answer is consistent as of the pinned version).
	out := cands[:0]
	for _, c := range cands {
		if c.Profile = view.Profile(c.ID); c.Profile != nil {
			out = append(out, c)
		}
	}
	// The plain matcher weighs every candidate against one lookup-only form
	// of the probe, built once the candidates are prepared: under token
	// blocking, from the symbols looked up above (Matcher.ProbeSyms).
	var form match.Probe
	if l.cfg.ContextMatcher == nil && len(out) > 0 {
		for i := range out {
			l.cfg.Matcher.Prepare(out[i].Profile)
		}
		if l.cfg.Keyer == nil {
			form = l.cfg.Matcher.ProbeSyms(probe, sc.syms)
		} else {
			form = l.cfg.Matcher.Probe(probe)
		}
	}
	probeScratches.Put(sc)
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := &out[i]
		c.Match, c.Similarity, c.Err = l.queryMatch(ctx, probe, form, c.Profile)
		if c.Match {
			l.m.queryMatches.Inc()
		}
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
// plain similarity matcher on the probe's lookup-only form otherwise.
func (l *Live) queryMatch(ctx context.Context, probe *profile.Profile, form match.Probe, y *profile.Profile) (ok bool, sim float64, err error) {
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
	sim = form.Similarity(y)
	return sim >= l.cfg.Matcher.Threshold, sim, nil
}
