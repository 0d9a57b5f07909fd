// Package stream implements the PIER pipeline runtimes. The primary runtime
// is a deterministic discrete-event simulator (Run): pipeline work — blocking
// a profile, maintaining the comparison index, executing a comparison —
// advances a virtual clock by a calibrated cost model, while increments
// arrive at configured wall-clock-equivalent times. This reproduces the
// paper's timing regimes (fast vs slow streams, cheap vs expensive matchers)
// deterministically at laptop scale; see DESIGN.md for the substitution
// argument. A goroutine-based real-time runtime for interactive use lives in
// live.go.
package stream

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/metrics"
	"pier/internal/profile"
	"pier/internal/storage"
)

// Increment is one stream input: a batch of profiles arriving together.
type Increment struct {
	Profiles []*profile.Profile
	// Arrival is the virtual time at which the increment becomes
	// available to the pipeline.
	Arrival time.Duration
}

// Schedule assigns arrival times to increments at the given input rate in
// increments per second (the paper's ΔD/s). rate <= 0 means all increments
// are available at time zero — the static/batch setting.
func Schedule(incs [][]*profile.Profile, rate float64) []Increment {
	out := make([]Increment, len(incs))
	for i, ps := range incs {
		var at time.Duration
		if rate > 0 {
			at = time.Duration(float64(i) / rate * float64(time.Second))
		}
		out[i] = Increment{Profiles: ps, Arrival: at}
	}
	return out
}

// Config parameterizes a simulated pipeline run.
type Config struct {
	// CleanClean selects the ER task type.
	CleanClean bool
	// MaxBlockSize enables block purging in the incremental blocking
	// stage; 0 disables it.
	MaxBlockSize int
	// Keyer selects the blocking-key extractor; nil is token blocking.
	Keyer blocking.Keyer
	// Matcher classifies emitted pairs; its Kind also selects the
	// comparison cost regime.
	Matcher match.Matcher
	// Costs is the virtual-time cost model.
	Costs match.CostModel
	// K is the emission batch-size policy (Algorithm 1's findK); nil
	// defaults to core.NewAdaptiveK.
	K *core.AdaptiveK
	// Budget is the virtual time budget; 0 runs until all work is done.
	Budget time.Duration
	// GroundTruth drives PC accounting.
	GroundTruth map[uint64]struct{}
	// SampleEvery is the PC-curve sampling stride in comparisons.
	SampleEvery int
	// TickCost is the fixed overhead charged for an empty-increment tick.
	TickCost time.Duration
	// OnExecuted, if set, is invoked for every distinct comparison the
	// matcher actually executes, in execution order, after profile
	// resolution. The correctness harness (internal/check) uses it to
	// capture the run's emission trace; nil disables tracing.
	OnExecuted func(c metablocking.Comparison)
}

// DefaultMaxBlockSize is the block-purging threshold used across the
// experiments: blocks larger than this yield too many comparisons to be
// informative and are dropped by the blocking stage.
const DefaultMaxBlockSize = 80

// DefaultConfig returns a runnable configuration for the given task.
func DefaultConfig(cleanClean bool, kind match.Kind, gt map[uint64]struct{}) Config {
	return Config{
		CleanClean:   cleanClean,
		MaxBlockSize: DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(kind),
		Costs:        match.DefaultCosts(),
		GroundTruth:  gt,
		SampleEvery:  500,
		TickCost:     2 * time.Microsecond,
	}
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Curve is the recorded PC progress.
	Curve *metrics.Curve
	// Comparisons is the number of distinct comparisons executed.
	Comparisons int
	// MatchesClassified counts pairs the matcher classified as duplicates
	// (as opposed to ground-truth pairs emitted, which the Curve tracks).
	MatchesClassified int
	// Elapsed is the total virtual time of the run.
	Elapsed time.Duration
	// StreamConsumed is the virtual time at which the last increment had
	// been ingested, 0 if the budget expired first.
	StreamConsumed time.Duration
	// Profiles is the number of profiles ingested.
	Profiles int
}

// Run executes the PIER pipeline of Algorithm 1 over the scheduled stream
// with the given prioritization strategy, under the discrete-event clock.
//
// The loop alternates ingestion and progressive work: every increment that
// has arrived is blocked and handed to the strategy's UpdateIndex; between
// arrivals the strategy emits batches of K comparisons to the matcher, K
// adapting to the observed rates. When the index runs dry the blocking stage
// sends empty-increment ticks so strategies can refill from leftover work,
// and when there is neither data nor work the clock jumps to the next
// arrival.
func Run(strategy core.Strategy, incs []Increment, cfg Config) *Result {
	col := blocking.NewCollectionStorage(cfg.CleanClean, cfg.MaxBlockSize, cfg.Keyer, 0, storage.Config{})
	kPolicy := cfg.K
	if kPolicy == nil {
		kPolicy = core.NewAdaptiveK()
	}
	rec := metrics.NewRecorder(cfg.GroundTruth, cfg.SampleEvery)
	executed := make(map[uint64]struct{})
	var batch []metablocking.Comparison // emission buffer, reused every round

	var now time.Duration
	var lastArrival time.Duration
	next := 0 // index of the next increment to ingest
	res := &Result{}

	budgetLeft := func() bool { return cfg.Budget <= 0 || now < cfg.Budget }

	for budgetLeft() {
		// One Algorithm-1 round: feed the prioritization component one
		// input — an arrived increment if available, otherwise (with an
		// empty index) an empty-increment tick — then emit a batch.
		if next < len(incs) && incs[next].Arrival <= now {
			inc := incs[next]
			for _, p := range inc.Profiles {
				now += cfg.Costs.Block(col.Add(p))
				res.Profiles++
			}
			now += strategy.UpdateIndex(col, inc.Profiles)
			if next > 0 {
				kPolicy.ObserveArrival(inc.Arrival - lastArrival)
			}
			lastArrival = inc.Arrival
			next++
			if next == len(incs) {
				res.StreamConsumed = now
				rec.MarkStreamConsumed(now)
			}
		} else if strategy.Pending() == 0 {
			// Empty-increment tick: let the strategy refill from
			// leftovers (Algorithm 2 lines 10-11, Algorithm 3's
			// b_min emission).
			now += cfg.TickCost + strategy.UpdateIndex(col, nil)
			if strategy.Pending() == 0 {
				if next >= len(incs) {
					break // no data, no work: done
				}
				// Idle until the next arrival.
				if incs[next].Arrival > now {
					now = incs[next].Arrival
				}
				continue
			}
		}

		batch = core.AppendBatch(batch[:0], strategy, kPolicy.K())
		for _, c := range batch {
			if !budgetLeft() {
				break
			}
			key := c.Key()
			if _, dup := executed[key]; dup {
				now += cfg.Costs.CompareBase
				continue
			}
			executed[key] = struct{}{}
			px, py := col.Profile(c.X), col.Profile(c.Y)
			if px == nil || py == nil {
				continue
			}
			if cfg.OnExecuted != nil {
				cfg.OnExecuted(c)
			}
			cost := cfg.Costs.Compare(cfg.Matcher.Kind, px, py)
			now += cost
			kPolicy.ObserveService(cost)
			if cfg.Matcher.Match(px, py) {
				res.MatchesClassified++
			}
			rec.Observe(now, key)
		}
	}

	res.Curve = rec.Finish(now)
	res.Comparisons = len(executed)
	res.Elapsed = now
	return res
}
