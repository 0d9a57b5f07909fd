package check

import (
	"bytes"
	"fmt"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/fault"
	"pier/internal/match"
	"pier/internal/profile"
	"pier/internal/storage"
	"pier/internal/stream"
)

// This file holds the recovery-equivalence oracles: fault tolerance is only
// correct if a checkpoint → kill → restore → resume execution is
// indistinguishable from an uninterrupted one. Two levels are checked:
//
//   - RoundTrip snapshots a strategy mid-drive through core.Persistent and
//     asserts the restored copy's remaining emission *sequence* is identical
//     to the original's — the snapshot is byte-faithful, including heap
//     layouts and the strategy's private executed-pair set;
//   - RecoveryEquivalence kills a live pipeline under seeded matcher faults,
//     restores it from its checkpoint, and asserts the union of executed
//     pairs across the two process lifetimes equals the fault-free run's set
//     exactly — nothing lost to the crash or the injected failures, nothing
//     double-counted by the retry machinery.
//
// Like every oracle here, both hold under CoreConfig.

// LiveConfigFor returns the live-pipeline configuration under which the
// recovery oracles hold: no purging, no eviction window, deterministic
// Jaccard matching, invariant checking on.
func LiveConfigFor(cleanClean bool) stream.LiveConfig {
	return stream.LiveConfig{
		CleanClean:      cleanClean,
		Matcher:         match.NewMatcher(match.JS),
		TickEvery:       time.Millisecond,
		CheckInvariants: true,
	}
}

// RoundTrip ingests cut increments, dequeues drain comparisons, snapshots
// the strategy AND its block collection, restores both into fresh instances,
// and then continues the original and the restored copy over the remaining
// increments in lockstep. The two remaining emission sequences must be
// identical — trace-level, for every strategy: a restored snapshot is the
// same state, so even I-PBS (whose traces are not split-invariant) must
// continue identically.
func RoundTrip(mk func() core.Strategy, cleanClean bool, incs [][]*profile.Profile, cut, drain int) error {
	if cut < 1 || cut >= len(incs) {
		return fmt.Errorf("check: RoundTrip cut %d outside (0, %d)", cut, len(incs))
	}
	col := blocking.NewCollection(cleanClean, 0)
	s := mk()
	name := s.Name()
	p, ok := s.(core.Persistent)
	if !ok {
		return fmt.Errorf("check: strategy %s does not implement core.Persistent", name)
	}
	for _, inc := range incs[:cut] {
		for _, pr := range inc {
			col.Add(pr)
		}
		s.UpdateIndex(col, inc)
	}
	var pre []Trace
	for i := 0; i < drain; i++ {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		pre = append(pre, Trace{X: c.X, Y: c.Y, Weight: c.Weight})
	}

	var sbuf bytes.Buffer
	if err := p.SaveState(&sbuf); err != nil {
		return fmt.Errorf("check: %s SaveState: %w", name, err)
	}
	img, err := col.AppendImage(nil)
	if err != nil {
		return fmt.Errorf("check: %s collection save: %w", name, err)
	}
	s2 := mk()
	p2, ok := s2.(core.Persistent)
	if !ok {
		return fmt.Errorf("check: fresh %s does not implement core.Persistent", name)
	}
	col2, err := blocking.DecodeImage(img, nil, 0, storage.Config{})
	if err != nil {
		return fmt.Errorf("check: %s collection load: %w", name, err)
	}
	if err := p2.LoadState(&sbuf); err != nil {
		return fmt.Errorf("check: %s LoadState: %w", name, err)
	}
	if s.Pending() != s2.Pending() {
		return fmt.Errorf("check: %s restored with %d pending, original has %d", name, s2.Pending(), s.Pending())
	}

	a := continueTrace(s, col, incs[cut:])
	b := continueTrace(s2, col2, incs[cut:])
	if err := diffTraces(name+" original-vs-restored", cut, a, cut, b); err != nil {
		return fmt.Errorf("%w (after %d pre-drained comparisons)", err, len(pre))
	}
	return nil
}

// continueTrace resumes a mid-stream strategy: ingest the remaining
// increments, then drain to completion, returning the emission sequence.
func continueTrace(s core.Strategy, col *blocking.Collection, rest [][]*profile.Profile) []Trace {
	var out []Trace
	for _, inc := range rest {
		for _, p := range inc {
			col.Add(p)
		}
		s.UpdateIndex(col, inc)
	}
	for {
		c, ok := s.Dequeue()
		if !ok {
			s.UpdateIndex(col, nil)
			if s.Pending() == 0 {
				return out
			}
			continue
		}
		out = append(out, Trace{X: c.X, Y: c.Y, Weight: c.Weight})
	}
}

// RecoveryEquivalence is the live-pipeline recovery oracle. It first runs the
// stream fault-free to establish the reference executed set, then replays it
// through a pipeline whose matcher injects seeded faults (fcfg), killing and
// restoring the pipeline at fcfg.CrashAtIncrement: Interrupt (the simulated
// kill), Checkpoint, RestoreLive into a fresh strategy, resume the stream.
// It asserts the recovered run executed exactly the reference set — every
// pair exactly once across both process lifetimes — with identical final
// comparison and match counts.
func RecoveryEquivalence(mk func() core.Strategy, cleanClean bool, incs [][]*profile.Profile, fcfg fault.Config) error {
	want := map[uint64]int{}
	cfg := LiveConfigFor(cleanClean)
	cfg.OnExecuted = func(k uint64) { want[k]++ }
	l := stream.LiveRun(mk(), cfg)
	name := "recovery"
	for _, inc := range incs {
		if err := l.Push(inc); err != nil {
			return fmt.Errorf("check: baseline push: %w", err)
		}
	}
	res := l.Stop()
	if err := exactlyOnce("fault-free", want); err != nil {
		return err
	}

	inj := fault.New(fcfg)
	got := map[uint64]int{}
	fcfgLive := LiveConfigFor(cleanClean)
	fcfgLive.OnExecuted = func(k uint64) { got[k]++ }
	fcfgLive.ContextMatcher = match.NewFallible(
		inj.Matcher(match.Infallible(fcfgLive.Matcher)),
		match.FallibleConfig{MaxRetries: 1, BaseBackoff: 10 * time.Microsecond, MaxBackoff: time.Millisecond},
	)
	lf := stream.LiveRun(mk(), fcfgLive)
	killed := false
	for _, inc := range incs {
		if inj.NextIncrement() {
			ir := lf.Interrupt() // the simulated kill
			if !ir.Interrupted {
				return fmt.Errorf("check: %s: Interrupt did not mark the result interrupted", name)
			}
			var snap bytes.Buffer
			if _, err := lf.Checkpoint(&snap); err != nil {
				return fmt.Errorf("check: %s: checkpoint after kill: %w", name, err)
			}
			restored, err := stream.RestoreLive(&snap, mk(), fcfgLive)
			if err != nil {
				return fmt.Errorf("check: %s: restore: %w", name, err)
			}
			lf = restored
			killed = true
		}
		if err := lf.Push(inc); err != nil {
			return fmt.Errorf("check: %s push: %w", name, err)
		}
	}
	resF := lf.Stop()

	if fcfg.CrashAtIncrement > 0 && !killed {
		return fmt.Errorf("check: crash at increment %d never fired over %d increments; oracle is vacuous",
			fcfg.CrashAtIncrement, len(incs))
	}
	if fcfg.MatcherErrorRate > 0 && inj.InjectedErrors() == 0 {
		return fmt.Errorf("check: error rate %v injected nothing; oracle is vacuous", fcfg.MatcherErrorRate)
	}
	if err := exactlyOnce("recovered", got); err != nil {
		return err
	}
	if err := diffSets("fault-free", toSet(want), "recovered", toSet(got)); err != nil {
		return err
	}
	if resF.Comparisons != res.Comparisons || resF.Matches != res.Matches {
		return fmt.Errorf("check: recovered run counted (%d comparisons, %d matches), fault-free run (%d, %d)",
			resF.Comparisons, resF.Matches, res.Comparisons, res.Matches)
	}
	if resF.Interrupted {
		return fmt.Errorf("check: recovered run still marked interrupted after a clean Stop")
	}
	return nil
}

// exactlyOnce fails if any pair was counted other than exactly once — the
// lost-comparison and double-emission halves of the recovery guarantee.
func exactlyOnce(name string, set map[uint64]int) error {
	for k, n := range set {
		if n != 1 {
			x, y := profile.SplitPairKey(k)
			return fmt.Errorf("check: %s run executed pair (%d,%d) %d times, want exactly once", name, x, y, n)
		}
	}
	return nil
}

func toSet(m map[uint64]int) map[uint64]struct{} {
	out := make(map[uint64]struct{}, len(m))
	for k := range m {
		out[k] = struct{}{}
	}
	return out
}

// RecoveryBattery runs both recovery oracles for every checkpointable
// strategy over the dataset: a deterministic mid-drive RoundTrip and a
// RecoveryEquivalence with seeded matcher faults plus a crash halfway through
// the stream. It returns the first failure.
func RecoveryBattery(ds *dataset.Dataset, k int, seed int64) error {
	if k < 2 {
		k = 6
	}
	cfg := CoreConfig()
	incs := ds.Increments(k)
	for name, mk := range map[string]func() core.Strategy{
		"I-PCS": func() core.Strategy { return core.NewIPCS(cfg) },
		"I-PBS": func() core.Strategy { return core.NewIPBS(cfg) },
		"I-PES": func() core.Strategy { return core.NewIPES(cfg) },
	} {
		if err := RoundTrip(mk, ds.CleanClean, incs, k/2, 16); err != nil {
			return fmt.Errorf("%s/round-trip (dataset=%s): %w", name, ds.Name, err)
		}
		if err := RecoveryEquivalence(mk, ds.CleanClean, incs, fault.Config{
			Seed:             seed,
			MatcherErrorRate: 0.2,
			CrashAtIncrement: k / 2,
		}); err != nil {
			return fmt.Errorf("%s/recovery-equivalence (dataset=%s, seed=%d): %w", name, ds.Name, seed, err)
		}
	}
	return nil
}
