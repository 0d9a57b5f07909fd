package pier

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/profile"
	"pier/internal/serve"
	"pier/internal/storage"
	"pier/internal/stream"
)

// ErrStopped is returned by Push after Stop has closed the pipeline.
var ErrStopped = errors.New("pier: Push after Stop")

// Pipeline is a running incremental, progressive ER pipeline over a live
// stream. Create it with NewPipeline, feed it with Push from any goroutine
// (calls are serialized), and finish it with Stop. Matches are reported via
// Options.OnMatch as soon as they are classified — including between
// increments, when the pipeline works off the globally best leftover
// comparisons.
type Pipeline struct {
	mu   sync.Mutex // serializes Push against Stop; guards stopped, summary, clusters
	live *stream.Live
	gate *serve.Gate
	topK int // Query's matcher budget, from Options.QueryTopK
	// profiles is the profile registry: the caller's profiles by internal
	// ID, which match reports, query answers, clusters and a custom
	// Matcher or Keyer read. Push appends under mu and publishes the grown
	// header; readers load it once, without a lock. Registered profiles
	// are never modified, so a loaded header stays valid.
	profiles atomic.Pointer[[]Profile]
	stopped  bool
	summary  Summary
	clusters [][]Profile
}

// NewPipeline starts a pipeline with the given options. It returns an error
// only for an unknown Options.Algorithm.
func NewPipeline(opt Options) (*Pipeline, error) {
	p, strategy, cfg, err := build(opt)
	if err != nil {
		return nil, err
	}
	p.live = stream.LiveRun(strategy, cfg)
	return p, nil
}

// build assembles an unstarted pipeline from the options: the strategy, the
// live configuration (match reporting wired through the pipeline's profile
// registry), and the Pipeline shell. NewPipeline starts it fresh; Restore
// starts it from a checkpoint.
func build(opt Options) (*Pipeline, core.Strategy, stream.LiveConfig, error) {
	// One registry serves the strategy's candidate generation and the live
	// matcher, which report side by side.
	reg := obsv.NewRegistry()
	strategy, err := opt.strategy(reg)
	if err != nil {
		return nil, nil, stream.LiveConfig{}, err
	}
	p := &Pipeline{
		gate: serve.NewGate(reg, serve.Config{
			MaxInFlight: opt.MaxInFlightQueries,
			Rate:        opt.QueryRate,
			Burst:       opt.QueryBurst,
		}),
		topK: opt.QueryTopK,
	}
	p.profiles.Store(new([]Profile))
	cfg := stream.LiveConfig{
		CleanClean:     opt.CleanClean,
		MaxBlockSize:   opt.maxBlockSize(),
		Matcher:        opt.matcher(),
		ContextMatcher: opt.contextMatcher(p.public),
		Scheme:         opt.scheme(),
		TickEvery:      opt.TickEvery,
		Parallelism:    opt.Parallelism,
		Shards:         opt.Shards,
		Keyer:          opt.keyer(p.public),
		Window:         opt.Window,
		Metrics:        reg,
		Storage:        storage.Config{Budget: opt.StorageBudget},

		CheckInvariants: opt.CheckInvariants,
	}
	if f, ok := cfg.ContextMatcher.(*match.Fallible); ok {
		f.Instrument(reg) // retry/timeout/breaker counters on the shared endpoint
	}
	if opt.OnMatch != nil {
		onMatch := opt.OnMatch
		cfg.OnMatch = func(m stream.LiveMatch) {
			reg := p.registry()
			onMatch(Match{X: reg[m.X.ID], Y: reg[m.Y.ID], Similarity: m.Similarity})
		}
	}
	return p, strategy, cfg, nil
}

// Push feeds one increment of profiles to the pipeline. After Stop it
// returns ErrStopped.
func (p *Pipeline) Push(increment []Profile) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrStopped
	}
	reg := p.registry()
	internal := make([]*profile.Profile, len(increment))
	for i, pr := range increment {
		internal[i] = toInternal(len(reg), pr)
		reg = append(reg, pr)
	}
	p.profiles.Store(&reg)
	p.mu.Unlock()
	if err := p.live.Push(internal); err != nil {
		return ErrStopped
	}
	return nil
}

// registry returns the profile registry as of its latest publication. Every
// ID the stream reports was registered by Push before its increment reached
// the stream (or restored with the registry), so it indexes the result.
func (p *Pipeline) registry() []Profile { return *p.profiles.Load() }

// public resolves an internal profile to the caller's value: a registered
// profile is read from the registry, and a query's probe (ID -1), which is
// never registered, is converted.
func (p *Pipeline) public(ip *profile.Profile) Profile {
	if reg := p.registry(); 0 <= ip.ID && ip.ID < len(reg) {
		return reg[ip.ID]
	}
	return toPublicProfile(ip)
}

// toInternal converts a caller profile to the internal type under the given
// ID.
func toInternal(id int, pr Profile) *profile.Profile {
	src := profile.SourceA
	if pr.SourceB {
		src = profile.SourceB
	}
	attrs := make([]profile.Attribute, len(pr.Attributes))
	for i, a := range pr.Attributes {
		attrs[i] = profile.Attribute{Name: a.Name, Value: a.Value}
	}
	return &profile.Profile{ID: id, Source: src, EntityKey: pr.Key, Attributes: attrs}
}

// Query resolves one probe profile against the pipeline's live index
// without ingesting it: the probe is tokenized, its candidates are looked up
// in the blocking index and ranked with the configured weighting scheme, and
// the matcher classifies the top Options.QueryTopK of them. It is safe to
// call from any goroutine, concurrently with Push and with other queries,
// while the pipeline runs or after Stop — a query never changes what the
// stream will compute.
//
// Admission is bounded: when Options.MaxInFlightQueries are already running,
// Query fails fast with ErrOverloaded; with Options.QueryRate set it can
// also fail with ErrRateLimited. Query is QueryTenant with the empty tenant.
func (p *Pipeline) Query(probe Profile) (*QueryResult, error) {
	return p.QueryTenant(context.Background(), "", probe)
}

// QueryTenant is Query with a caller-supplied context and a tenant name for
// per-tenant rate limiting (Options.QueryRate). The context bounds the
// matching phase: cancellation between candidate comparisons returns the
// context's error.
func (p *Pipeline) QueryTenant(ctx context.Context, tenant string, probe Profile) (*QueryResult, error) {
	release, err := p.gate.Admit(tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	// The probe lives outside the pipeline's ID space: it is never
	// registered, and the negative ID cannot collide with (or be mistaken
	// for) an ingested profile.
	ans, err := p.live.Query(ctx, toInternal(-1, probe), stream.QueryOptions{TopK: p.topK})
	if err != nil {
		return nil, err
	}
	// Answers are read from the registry, loaded once: every candidate was
	// registered before the index version the query read was published.
	reg := p.registry()
	res := &QueryResult{
		Candidates: make([]QueryCandidate, len(ans.Candidates)),
		Considered: ans.Considered,
		Elapsed:    ans.Elapsed,
	}
	for i, c := range ans.Candidates {
		res.Candidates[i] = QueryCandidate{
			Profile:    reg[c.ID],
			Weight:     c.Weight,
			Similarity: c.Similarity,
			Match:      c.Match,
			Err:        c.Err,
		}
	}
	return res, nil
}

// Stats returns the number of comparisons executed and duplicates found so
// far; it may be called while the pipeline is running.
func (p *Pipeline) Stats() (comparisons, matches int) {
	return p.live.Stats()
}

// Snapshot returns a point-in-time view of the pipeline's internals — live K,
// queue depth, eviction counts, and the progress counters. It is safe to call
// from any goroutine, while the pipeline runs or after Stop.
func (p *Pipeline) Snapshot() Snapshot {
	s := p.live.Snapshot()
	return Snapshot{
		Profiles:        s.Profiles,
		Increments:      s.Increments,
		Comparisons:     s.Comparisons,
		Matches:         s.Matches,
		NewLinks:        s.NewLinks,
		SkippedEvicted:  s.SkippedEvicted,
		WindowEvictions: s.WindowEvictions,
		K:               s.K,
		Pending:         s.Pending,
		DedupEntries:    s.DedupEntries,
	}
}

// Stop closes the input, drains all remaining prioritized comparisons, and
// returns the run's summary. Stop is idempotent.
func (p *Pipeline) Stop() Summary {
	p.mu.Lock()
	if p.stopped {
		s := p.summary
		p.mu.Unlock()
		return s
	}
	p.stopped = true
	p.mu.Unlock()

	res := p.live.Stop()
	s := Summary{
		Profiles:    res.Profiles,
		Comparisons: res.Comparisons,
		Matches:     res.Matches,
		NewLinks:    res.NewLinks,
		Elapsed:     res.Elapsed,
	}
	p.mu.Lock()
	p.summary = s
	reg := p.registry()
	p.clusters = make([][]Profile, len(res.Clusters))
	for i, ids := range res.Clusters {
		members := make([]Profile, len(ids))
		for j, id := range ids {
			members[j] = reg[id]
		}
		p.clusters[i] = members
	}
	p.mu.Unlock()
	return s
}

// Close releases the pipeline's storage backends, removing any spill files
// created under Options.StorageBudget. It must follow Stop; it is a no-op
// for the default in-memory backends, so pipelines without a budget may skip
// it. The pipeline is not usable — not even checkpointable — after Close.
func (p *Pipeline) Close() error {
	return p.live.Close()
}

// Clusters returns the resolved entity clusters (groups of profiles believed
// to describe the same real-world entity, each with at least two members).
// Members are the values passed to Push, shared with the pipeline's
// registry: they must not be modified. It must be called after Stop; before
// Stop it returns nil.
func (p *Pipeline) Clusters() [][]Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clusters
}

// Resolve runs one-shot ER over a static dataset: every profile is pushed as
// a single increment, the pipeline drains, and all detected duplicates are
// returned. It is the batch convenience wrapper over Pipeline.
func Resolve(profiles []Profile, opt Options) ([]Match, Summary, error) {
	var mu sync.Mutex
	var matches []Match
	userCallback := opt.OnMatch
	opt.OnMatch = func(m Match) {
		mu.Lock()
		matches = append(matches, m)
		mu.Unlock()
		if userCallback != nil {
			userCallback(m)
		}
	}
	p, err := NewPipeline(opt)
	if err != nil {
		return nil, Summary{}, err
	}
	if err := p.Push(profiles); err != nil {
		return nil, Summary{}, err
	}
	summary := p.Stop()
	return matches, summary, nil
}
