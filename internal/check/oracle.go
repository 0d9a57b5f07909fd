package check

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pier/internal/baseline"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/pool"
	"pier/internal/profile"
	"pier/internal/stream"
)

// NewBatchReference returns the batch ER baseline as the differential
// reference strategy: it enumerates every non-redundant block comparison with
// no prioritization and no probabilistic structures, so its completed
// executed set is exact by construction.
func NewBatchReference(cfg core.Config) core.Strategy { return baseline.NewBatch(cfg) }

// Differential runs two strategies to completion over the same stream and
// asserts they executed exactly the same pair set and classified the same
// number of matches. Pass a fresh instance of each; the run consumes them.
// Used strategy-vs-batch-baseline: on static-in-the-limit data, complete runs
// of blocking-equivalent methods may differ in *order* but never in *what*
// they compare.
func Differential(a, b core.Strategy, cleanClean bool, incs [][]*profile.Profile) error {
	nameA, nameB := a.Name(), b.Name()
	setA, resA := DrainedRun(a, incs, StreamConfig(cleanClean))
	setB, resB := DrainedRun(b, incs, StreamConfig(cleanClean))
	if err := diffSets(nameA, setA, nameB, setB); err != nil {
		return err
	}
	if resA.MatchesClassified != resB.MatchesClassified {
		return fmt.Errorf("check: %s classified %d matches but %s %d on identical executed sets",
			nameA, resA.MatchesClassified, nameB, resB.MatchesClassified)
	}
	return nil
}

// BruteForce runs the strategy to completion and asserts it executed exactly
// the non-redundant co-blocked pairs of the final collection — the absolute
// reference, independent of every strategy implementation.
func BruteForce(s core.Strategy, cleanClean bool, incs [][]*profile.Profile) error {
	name := s.Name()
	got, _ := DrainedRun(s, incs, StreamConfig(cleanClean))
	want := BlockPairs(FinalCollection(cleanClean, incs))
	return diffSets(name, got, "co-blocked reference", want)
}

// SplitInvariance asserts the metamorphic relation at the heart of
// *incremental* correctness: cutting the same stream into a different number
// of increments must not change what a completed run executed or how many
// matches it classified. mk constructs a fresh strategy per run.
func SplitInvariance(mk func() core.Strategy, ds *dataset.Dataset, splits []int) error {
	var ref map[uint64]struct{}
	var refMatches, refK int
	for i, k := range splits {
		s := mk()
		set, res := DrainedRun(s, ds.Increments(k), StreamConfig(ds.CleanClean))
		if i == 0 {
			ref, refMatches, refK = set, res.MatchesClassified, k
			continue
		}
		if err := diffSets(fmt.Sprintf("%s k=%d", s.Name(), refK), ref, fmt.Sprintf("k=%d", k), set); err != nil {
			return err
		}
		if res.MatchesClassified != refMatches {
			return fmt.Errorf("check: %s classified %d matches at k=%d but %d at k=%d",
				s.Name(), refMatches, refK, res.MatchesClassified, k)
		}
	}
	return nil
}

// IngestInvariance asserts the strict form of split invariance: the *exact*
// drain sequence ⟨X, Y, Weight⟩ — not just its set — is identical across
// splits. This holds only for strategies whose UpdateIndex is independent of
// index state: I-PCS and I-PES generate each profile's candidates
// against earlier profiles only, so increment boundaries are invisible. It
// does NOT hold for I-PBS, whose UpdateIndex emits blocks conditioned on the
// index being exhausted — there, only SplitInvariance (set level) applies.
func IngestInvariance(mk func() core.Strategy, ds *dataset.Dataset, splits []int) error {
	var ref []Trace
	var refK int
	for i, k := range splits {
		s := mk()
		tr := IngestTrace(s, ds.CleanClean, ds.Increments(k))
		if i == 0 {
			ref, refK = tr, k
			continue
		}
		if err := diffTraces(s.Name(), refK, ref, k, tr); err != nil {
			return err
		}
	}
	return nil
}

// PermutationInvariance asserts that shuffling profiles *within* each
// increment (the order inside an increment carries no meaning — the whole
// increment is blocked before the strategy sees it) leaves the completed
// run's executed set unchanged. Shuffling across increments is not invariant:
// profile IDs encode stream order.
func PermutationInvariance(mk func() core.Strategy, ds *dataset.Dataset, k int, seed int64) error {
	incs := ds.Increments(k)
	sBase := mk()
	name := sBase.Name()
	base, _ := DrainedRun(sBase, incs, StreamConfig(ds.CleanClean))
	rng := rand.New(rand.NewSource(seed))
	perm := make([][]*profile.Profile, len(incs))
	for i, inc := range incs {
		cp := append([]*profile.Profile(nil), inc...)
		rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
		perm[i] = cp
	}
	got, _ := DrainedRun(mk(), perm, StreamConfig(ds.CleanClean))
	return diffSets(name+" stream order", base, fmt.Sprintf("permuted order (seed=%d)", seed), got)
}

// forkSpin is how long MatchFork's matcher busy-waits per comparison: a
// batch of two comparisons then carries more measured work than the live
// pipeline's fork grain (250 µs), so runs with several workers really fork.
const forkSpin = 130 * time.Microsecond

// MatchFork asserts that the live pipeline's match fork changes nothing a
// drained run produces. For each parallelism it streams the increments
// through stream.LiveRun with a Jaccard matcher slowed by forkSpin, then
// stops. Every run must execute exactly the co-blocked pairs of the final
// collection, each once, and classify as many matches as the first run.
// A run with more than one worker must have forked at least one batch, so
// the oracle is never vacuous.
func MatchFork(mk func() core.Strategy, cleanClean bool, incs [][]*profile.Profile, parallelism []int) error {
	want := BlockPairs(FinalCollection(cleanClean, incs))
	js := match.NewMatcher(match.JS)
	slow := match.ContextFunc(func(_ context.Context, a, b *profile.Profile) (bool, error) {
		for t0 := time.Now(); time.Since(t0) < forkSpin; {
		}
		return js.Match(a, b), nil
	})
	refMatches := -1
	for _, par := range parallelism {
		got := map[uint64]int{}
		cfg := LiveConfigFor(cleanClean)
		cfg.ContextMatcher = slow
		cfg.Parallelism = par
		cfg.OnExecuted = func(k uint64) { got[k]++ }
		l := stream.LiveRun(mk(), cfg)
		for _, inc := range incs {
			if err := l.Push(inc); err != nil {
				return fmt.Errorf("check: push: %w", err)
			}
		}
		res := l.Stop()
		name := fmt.Sprintf("live parallelism=%d", par)
		if err := exactlyOnce(name, got); err != nil {
			return err
		}
		if err := diffSets(name, toSet(got), "co-blocked reference", want); err != nil {
			return err
		}
		if refMatches < 0 {
			refMatches = res.Matches
		} else if res.Matches != refMatches {
			return fmt.Errorf("check: %s classified %d matches, parallelism=%d %d",
				name, res.Matches, parallelism[0], refMatches)
		}
		forked := l.Registry().Histogram("pier_match_par_seconds", "", nil).Count()
		if pool.Resolve(par) > 1 && len(want) > 1 && forked == 0 {
			return fmt.Errorf("check: %s never forked a batch; oracle is vacuous", name)
		}
	}
	return nil
}

// Battery runs every applicable oracle for every PIER strategy over the
// dataset: brute-force and batch-differential completeness, set-level split
// invariance for all three block-based strategies, strict ingest-trace
// invariance for I-PCS/I-PES, and within-increment permutation invariance.
// The requested parallelism values sweep the one stage that runs in
// parallel, the live match fork (MatchFork). It returns the first failure.
func Battery(ds *dataset.Dataset, splits []int, parallelism []int) error {
	if len(splits) == 0 {
		splits = []int{1, 2, 5, 10}
	}
	if len(parallelism) == 0 {
		parallelism = []int{1}
	}
	midK := splits[len(splits)/2]
	cfg := CoreConfig()
	factories := map[string]func() core.Strategy{
		"I-PCS": func() core.Strategy { return core.NewIPCS(cfg) },
		"I-PBS": func() core.Strategy { return core.NewIPBS(cfg) },
		"I-PES": func() core.Strategy { return core.NewIPES(cfg) },
	}
	for name, mk := range factories {
		wrap := func(oracle string, err error) error {
			if err != nil {
				return fmt.Errorf("%s/%s (dataset=%s): %w", name, oracle, ds.Name, err)
			}
			return nil
		}
		if err := wrap("brute-force", BruteForce(mk(), ds.CleanClean, ds.Increments(midK))); err != nil {
			return err
		}
		if err := wrap("differential-batch", Differential(mk(), NewBatchReference(cfg), ds.CleanClean, ds.Increments(midK))); err != nil {
			return err
		}
		if err := wrap("split-invariance", SplitInvariance(mk, ds, splits)); err != nil {
			return err
		}
		if err := wrap("permutation-invariance", PermutationInvariance(mk, ds, midK, 42)); err != nil {
			return err
		}
		if err := wrap("match-fork", MatchFork(mk, ds.CleanClean, ds.Increments(midK), parallelism)); err != nil {
			return err
		}
		if name == "I-PBS" {
			continue
		}
		if err := wrap("ingest-invariance", IngestInvariance(mk, ds, splits)); err != nil {
			return err
		}
	}
	return nil
}
