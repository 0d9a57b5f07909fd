// Package pier is a schema-agnostic entity-resolution library for streaming
// and incremental data, implementing the PIER algorithms of Gazzarri &
// Herschel, "Progressive Entity Resolution over Incremental Data" (EDBT
// 2023): progressive prioritization of comparisons over a global, incremental
// comparison index, with adaptive batch sizing between stream increments.
//
// The core abstraction is the Pipeline: callers push increments of entity
// profiles as they arrive; the pipeline blocks them schema-agnostically,
// prioritizes the most promising comparisons across *all* data seen so far,
// and reports duplicates as soon as they are found — filling idle time
// between increments with the best leftover comparisons instead of waiting.
//
//	p, _ := pier.NewPipeline(pier.Options{
//	        Algorithm:  pier.IPES,
//	        CleanClean: true,
//	        OnMatch:    func(m pier.Match) { fmt.Println(m.X.Key, "=", m.Y.Key) },
//	})
//	p.Push(increment1)
//	p.Push(increment2)
//	summary := p.Stop()
//
// For one-shot deduplication of a static dataset, use Resolve. For
// reproducing the paper's experiments, see cmd/pierbench and the root
// benchmark suite.
package pier

import (
	"context"
	"fmt"
	"time"

	"pier/internal/baseline"
	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
	"pier/internal/serve"
	"pier/internal/stream"
)

// Algorithm selects the comparison prioritization strategy of a pipeline.
type Algorithm string

// The available algorithms. IPES is the paper's overall best performer and
// the recommended default; the others exist for workloads with specific
// structure (IPBS for short relational records with highly informative small
// blocks) and for comparison (IBase and the batch adaptations).
const (
	// IPCS is comparison-centric prioritization: one bounded queue of the
	// globally best-weighted comparisons (paper Algorithm 2).
	IPCS Algorithm = "I-PCS"
	// IPBS is block-centric prioritization: smallest pending block first
	// (paper Algorithm 3).
	IPBS Algorithm = "I-PBS"
	// IPES is entity-centric prioritization: best entity first, one
	// comparison per entity per round (paper Algorithm 4).
	IPES Algorithm = "I-PES"
	// IBase is the non-progressive incremental baseline of the framework
	// the paper extends (Gazzarri & Herschel, ICDE 2021).
	IBase Algorithm = "I-BASE"
	// PPSGlobal and PBSGlobal are the batch progressive algorithms of
	// Simonini et al. (TKDE 2019) re-initialized on every increment;
	// PPSLocal prioritizes within each increment only.
	PPSGlobal Algorithm = "PPS-GLOBAL"
	PPSLocal  Algorithm = "PPS-LOCAL"
	PBSGlobal Algorithm = "PBS-GLOBAL"
	// BatchER is plain blocking-based batch ER with no prioritization.
	BatchER Algorithm = "BATCH"
	// Auto defers the choice between the PIER strategies until the first
	// increment arrives and picks by the data's characteristics (the
	// paper's future-work heuristic): I-PBS for short homogeneous records,
	// I-PES otherwise.
	Auto Algorithm = "AUTO"
)

// MatchFunc selects the similarity function of the matching step.
type MatchFunc int

const (
	// Jaccard similarity over token sets: cheap, the pipeline's default.
	Jaccard MatchFunc = iota
	// EditDistance is normalized Levenshtein similarity over the joined
	// attribute values: expensive, for high-precision matching of short
	// records.
	EditDistance
	// JaroWinkler similarity over the joined values: mid-cost, tuned for
	// person and organization names.
	JaroWinkler
)

// WeightScheme selects the meta-blocking weighting scheme used to rank
// comparisons.
type WeightScheme int

const (
	// CBS (Common Blocks Scheme) is the paper's default: the number of
	// blocks two profiles share.
	CBS WeightScheme = iota
	// JSWeight is the Jaccard coefficient of the profiles' block sets.
	JSWeight
	// ECBS is CBS with inverse block-frequency correction.
	ECBS
	// ARCS sums reciprocal block comparison counts.
	ARCS
)

// Blocking selects the blocking-key extractor of the pipeline.
type Blocking int

const (
	// TokenBlocking (default) blocks profiles by their value tokens.
	TokenBlocking Blocking = iota
	// QGramBlocking blocks by 3-grams of the tokens: robust against
	// character typos at the cost of a larger block collection.
	QGramBlocking
	// SuffixBlocking blocks by token suffixes (>= 4 runes): robust
	// against prefix corruptions.
	SuffixBlocking
)

// Attribute is one name/value pair of a profile. Attribute names carry no
// semantics (the pipeline is schema-agnostic); they are preserved for the
// caller's benefit.
type Attribute struct {
	Name  string
	Value string
}

// Profile is an entity profile as supplied by the caller. Key is an optional
// caller-side identifier reported back in matches; SourceB tags profiles of
// the second source in Clean-Clean (two duplicate-free sources) tasks and is
// ignored for Dirty (single-source) tasks.
type Profile struct {
	Key        string
	SourceB    bool
	Attributes []Attribute
}

// Attr is a convenience constructor for a profile from alternating
// name, value strings.
func Attr(nameValue ...string) []Attribute {
	if len(nameValue)%2 != 0 {
		panic("pier.Attr: odd number of name/value arguments")
	}
	out := make([]Attribute, 0, len(nameValue)/2)
	for i := 0; i < len(nameValue); i += 2 {
		out = append(out, Attribute{Name: nameValue[i], Value: nameValue[i+1]})
	}
	return out
}

// Match is one detected duplicate pair. X and Y are the values passed to
// Push, shared with the pipeline's registry: they must not be modified.
type Match struct {
	X, Y       Profile
	Similarity float64
}

// Snapshot is a point-in-time, thread-safe view of a running pipeline's
// internals: the same numbers pierrun's /metrics endpoint exposes, for
// embedders that want them without HTTP. Counters are cumulative for the
// pipeline's lifetime; K, Pending, and DedupEntries are instantaneous.
type Snapshot struct {
	// Profiles and Increments count ingested profiles and Push calls.
	Profiles   int
	Increments int
	// Comparisons and Matches are the executed-comparison and duplicate
	// counts — always equal to Stats() and, after Stop, to the Summary.
	Comparisons int
	Matches     int
	// NewLinks counts matches that connected two previously separate
	// entity clusters.
	NewLinks int
	// SkippedEvicted counts prioritized comparisons dropped because one
	// profile had already left the Options.Window.
	SkippedEvicted int
	// WindowEvictions counts profiles evicted under Options.Window.
	WindowEvictions int
	// K is the live adaptive batch size (the paper's findK).
	K int
	// Pending is the depth of the prioritized-comparison queue.
	Pending int
	// DedupEntries is the size of the executed-comparison dedup map.
	DedupEntries int
}

// Admission errors of the query path. Both reject fast — a rejected Query
// returns immediately, so callers can shed load or retry elsewhere.
var (
	// ErrOverloaded reports that Options.MaxInFlightQueries was reached.
	ErrOverloaded = serve.ErrOverloaded
	// ErrRateLimited reports that the tenant exceeded Options.QueryRate.
	ErrRateLimited = serve.ErrRateLimited
)

// QueryCandidate is one ranked candidate of a Query answer.
type QueryCandidate struct {
	// Profile is the indexed profile the probe was compared against: the
	// value passed to Push, shared with the pipeline's registry. It must not
	// be modified.
	Profile Profile
	// Weight is the meta-blocking scheme weight of (probe, candidate) —
	// the ranking key, comparable across candidates of one query.
	Weight float64
	// Similarity is the matcher's similarity score, when the configured
	// matcher produces one (a custom Matcher reports 1 for a match).
	Similarity float64
	// Match reports the matcher's verdict.
	Match bool
	// Err is the matcher failure for this candidate, if any (timeout, open
	// circuit breaker, backend error). A failed candidate keeps its rank:
	// its verdict is unknown, not negative.
	Err error
}

// QueryResult is the answer to one online point query.
type QueryResult struct {
	// Candidates are the top-ranked candidates, best weight first.
	Candidates []QueryCandidate
	// Considered is the number of distinct co-blocked partners found in
	// the index before the top-K cut.
	Considered int
	// Elapsed is the end-to-end query latency.
	Elapsed time.Duration
}

// Summary reports the totals of a finished pipeline.
type Summary struct {
	Profiles    int
	Comparisons int
	// Matches counts pairwise duplicate classifications; NewLinks counts
	// those that connected two previously separate entity clusters.
	Matches  int
	NewLinks int
	Elapsed  time.Duration
}

// Options configures a Pipeline or a Resolve call. The zero value is valid:
// Dirty ER with I-PES, Jaccard matching, and the paper's default tuning.
type Options struct {
	// Algorithm selects the prioritization strategy (default IPES).
	Algorithm Algorithm
	// CleanClean selects Clean-Clean ER: only pairs spanning the two
	// sources (SourceB false/true) are ever compared.
	CleanClean bool
	// MatchFunc selects the similarity function (default Jaccard).
	MatchFunc MatchFunc
	// MatchThreshold is the duplicate-classification threshold in (0, 1];
	// 0 means the default (0.5).
	MatchThreshold float64
	// Scheme selects the comparison weighting scheme (default CBS).
	Scheme WeightScheme
	// MaxBlockSize purges blocks larger than this many profiles; 0 means
	// the default (80), negative disables purging.
	MaxBlockSize int
	// Beta is the block-ghosting parameter in (0, 1]; 0 means the default
	// (0.2), negative disables ghosting.
	Beta float64
	// IndexCapacity bounds the comparison index; 0 means the default
	// (100000), negative means unbounded.
	IndexCapacity int
	// Matcher, when set, replaces MatchFunc with a caller-supplied pairwise
	// classifier that may fail — a remote model, a service call. The
	// pipeline wraps it in a fault envelope: per-comparison timeout
	// (MatchTimeout), exponential-backoff retries (MatchRetries), and a
	// circuit breaker that, while open, requeues in-flight comparisons and
	// tightens the emitted batch size until the matcher recovers. Failed
	// comparisons are retried until they succeed — never dropped.
	Matcher MatcherFunc
	// MatchTimeout bounds one Matcher attempt; 0 means the default (100ms),
	// negative disables the timeout. Ignored unless Matcher is set.
	MatchTimeout time.Duration
	// MatchRetries is the number of in-place retry attempts after a failed
	// Matcher call before the comparison goes back to the retry queue; 0
	// means the default (2), negative disables in-place retries. Ignored
	// unless Matcher is set.
	MatchRetries int
	// OnMatch, if set, is invoked synchronously for every detected
	// duplicate, as soon as it is found.
	OnMatch func(Match)
	// TickEvery is how often idle pipelines reconsider leftover
	// comparisons; 0 means the default (50ms).
	TickEvery time.Duration
	// Parallelism is the worker count of within-batch similarity
	// computation, the pipeline's only parallel stage. 0 (the default) or
	// negative uses one worker per CPU; 1 forces exact serial execution;
	// n > 1 uses n workers. A batch is forked over the workers only when
	// its comparison count times the measured per-comparison matcher time
	// is large enough to pay for the fork; lighter batches run inline.
	// Results are identical for every setting; only throughput changes.
	Parallelism int
	// Shards is the blocking index's shard count, rounded up to a power of
	// two and clamped to [1, 256]; 0 (the default) means one shard. Ingest
	// is serial, so the count only partitions the index and buys no
	// concurrency. It is never a semantic knob: the pipeline's results are
	// identical for every value.
	Shards int
	// Blocking selects the blocking-key extractor (default TokenBlocking).
	Blocking Blocking
	// Window bounds the number of profiles held in memory for unbounded
	// streams; the oldest are evicted. 0 keeps everything.
	Window int
	// Keyer, when set, overrides Blocking with a custom blocking-key
	// extractor.
	Keyer KeyerFunc
	// CheckInvariants enables runtime self-verification of the pipeline's
	// internal structures: the strategy's comparison index (heap order,
	// pending accounting) after every increment, and the live runner's
	// dedup/counter bookkeeping after every batch. Violations panic with a
	// description of the broken invariant. Intended for tests, debugging,
	// and canary deployments — the index checks cost O(index size) per
	// increment.
	CheckInvariants bool

	// QueryTopK bounds how many top-ranked candidates Query runs through
	// the matcher; 0 means the default (10), negative means all candidates.
	QueryTopK int
	// MaxInFlightQueries bounds concurrently admitted queries; excess
	// queries fail fast with ErrOverloaded. 0 means the default (64),
	// negative disables the bound.
	MaxInFlightQueries int
	// QueryRate enables a per-tenant token-bucket rate limit on queries, in
	// queries per second; queries over the limit fail fast with
	// ErrRateLimited. 0 (the default) disables rate limiting.
	QueryRate float64
	// QueryBurst is the per-tenant bucket capacity when QueryRate is set;
	// 0 means max(1, QueryRate) — one second of traffic.
	QueryBurst float64

	// StorageBudget bounds the resident memory, in bytes, of the pipeline's
	// two stream-proportional structures — the blocking index's posting
	// lists and the executed-pair dedup set. State beyond the budget spills
	// to temp files (the least recently used shard's blocks first) and is
	// read back transparently, block by block, on access. 0 (the default)
	// keeps everything in memory. The budget is a residency knob, never a
	// semantic one: every result, match, and query
	// answer is bit-identical for every setting. Pipelines with a budget
	// should be finished with Close after Stop so spill files are removed
	// promptly.
	StorageBudget int64
}

// KeyerFunc derives the blocking keys of a profile. Profiles that share at
// least one key become comparison candidates.
type KeyerFunc func(Profile) []string

// MatcherFunc is a caller-supplied pairwise duplicate classifier that may
// fail. It must respect ctx cancellation for the pipeline's per-comparison
// timeout to be effective; returning an error marks the attempt failed (the
// comparison is retried, never dropped).
type MatcherFunc func(ctx context.Context, x, y Profile) (bool, error)

// contextMatcher wraps Options.Matcher in the retry/timeout/breaker
// envelope, or returns nil when no custom matcher is configured. public
// resolves the internal profiles the matcher is handed (Pipeline.public).
func (o Options) contextMatcher(public func(*profile.Profile) Profile) match.ContextMatcher {
	if o.Matcher == nil {
		return nil
	}
	fcfg := match.DefaultFallibleConfig()
	if o.MatchTimeout > 0 {
		fcfg.Timeout = o.MatchTimeout
	} else if o.MatchTimeout < 0 {
		fcfg.Timeout = 0
	}
	if o.MatchRetries > 0 {
		fcfg.MaxRetries = o.MatchRetries
	} else if o.MatchRetries < 0 {
		fcfg.MaxRetries = 0
	}
	return match.NewFallible(customMatcher(o.Matcher, public), fcfg)
}

// customMatcher adapts a MatcherFunc to internal profiles through public.
func customMatcher(custom MatcherFunc, public func(*profile.Profile) Profile) match.ContextFunc {
	return func(ctx context.Context, a, b *profile.Profile) (bool, error) {
		return custom(ctx, public(a), public(b))
	}
}

// keyer resolves the blocking-key extractor; public resolves the internal
// profiles a custom Keyer is handed (Pipeline.public).
func (o Options) keyer(public func(*profile.Profile) Profile) blocking.Keyer {
	if o.Keyer != nil {
		custom := o.Keyer
		return func(p *profile.Profile) []string {
			return custom(public(p))
		}
	}
	switch o.Blocking {
	case QGramBlocking:
		return profile.QGramKeys
	case SuffixBlocking:
		return profile.SuffixKeys
	default:
		return nil
	}
}

// toPublicProfile converts an internal profile back to the API type (the
// caller's Key is stored as the internal EntityKey). Only a query's probe,
// which has no registry entry, needs it (Pipeline.public).
func toPublicProfile(p *profile.Profile) Profile {
	out := Profile{Key: p.EntityKey, SourceB: p.Source == profile.SourceB}
	out.Attributes = make([]Attribute, len(p.Attributes))
	for i, a := range p.Attributes {
		out.Attributes[i] = Attribute{Name: a.Name, Value: a.Value}
	}
	return out
}

// matcher builds the internal matcher from the options.
func (o Options) matcher() match.Matcher {
	kind := match.JS
	switch o.MatchFunc {
	case EditDistance:
		kind = match.ED
	case JaroWinkler:
		kind = match.JW
	}
	m := match.NewMatcher(kind)
	if o.MatchThreshold > 0 {
		m.Threshold = o.MatchThreshold
	}
	return m
}

// scheme maps the public weighting scheme to the internal one. It is shared
// by the strategy configuration and the live config's query-side ranking, so
// online queries rank candidates exactly as the stream prioritizes them.
func (o Options) scheme() metablocking.Scheme {
	switch o.Scheme {
	case JSWeight:
		return metablocking.JSScheme
	case ECBS:
		return metablocking.ECBS
	case ARCS:
		return metablocking.ARCS
	default:
		return metablocking.CBS
	}
}

// coreConfig builds the strategy configuration from the options.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = o.scheme()
	if o.Beta > 0 {
		cfg.Beta = o.Beta
	} else if o.Beta < 0 {
		cfg.Beta = 0
	}
	if o.IndexCapacity > 0 {
		cfg.IndexCapacity = o.IndexCapacity
	} else if o.IndexCapacity < 0 {
		cfg.IndexCapacity = 0
	}
	cfg.Parallelism = o.Parallelism
	cfg.CheckInvariants = o.CheckInvariants
	return cfg
}

// maxBlockSize resolves the block-purging threshold.
func (o Options) maxBlockSize() int {
	switch {
	case o.MaxBlockSize > 0:
		return o.MaxBlockSize
	case o.MaxBlockSize < 0:
		return 0
	default:
		return stream.DefaultMaxBlockSize
	}
}

// strategy instantiates the selected algorithm. reg, if non-nil, is the
// metrics registry the strategy's candidate generation reports into — the
// same registry the live pipeline uses, so one endpoint covers both.
func (o Options) strategy(reg *obsv.Registry) (core.Strategy, error) {
	cfg := o.coreConfig()
	cfg.Metrics = reg
	switch o.Algorithm {
	case "", IPES:
		return core.NewIPES(cfg), nil
	case Auto:
		return core.NewAuto(cfg), nil
	case IPCS:
		return core.NewIPCS(cfg), nil
	case IPBS:
		return core.NewIPBS(cfg), nil
	case IBase:
		return baseline.NewIBase(cfg), nil
	case PPSGlobal:
		return baseline.NewPPS(cfg, baseline.ScopeGlobal, ""), nil
	case PPSLocal:
		return baseline.NewPPS(cfg, baseline.ScopeLocal, ""), nil
	case PBSGlobal:
		return baseline.NewPBS(cfg, baseline.ScopeGlobal, ""), nil
	case BatchER:
		return baseline.NewBatch(cfg), nil
	default:
		return nil, fmt.Errorf("pier: unknown algorithm %q", o.Algorithm)
	}
}
