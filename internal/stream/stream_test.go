package stream

import (
	"testing"
	"time"

	"pier/internal/baseline"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
)

// smallDA is a shared, cached small clean-clean workload.
var smallDA = dataset.DA(0.1, 1) // ~262+229 profiles, 222 matches

func coreCfg() core.Config {
	return core.DefaultConfig()
}

func allStrategies() map[string]func() core.Strategy {
	return map[string]func() core.Strategy{
		"I-PCS":  func() core.Strategy { return core.NewIPCS(coreCfg()) },
		"I-PBS":  func() core.Strategy { return core.NewIPBS(coreCfg()) },
		"I-PES":  func() core.Strategy { return core.NewIPES(coreCfg()) },
		"I-BASE": func() core.Strategy { return baseline.NewIBase(coreCfg()) },
		"PPS":    func() core.Strategy { return baseline.NewPPS(coreCfg(), baseline.ScopeGlobal, "PPS") },
		"PBS":    func() core.Strategy { return baseline.NewPBS(coreCfg(), baseline.ScopeGlobal, "PBS") },
		"BATCH":  func() core.Strategy { return baseline.NewBatch(coreCfg()) },
	}
}

func TestScheduleRates(t *testing.T) {
	incs := smallDA.Increments(10)
	sched := Schedule(incs, 2) // 2 increments per second
	if sched[0].Arrival != 0 {
		t.Errorf("first arrival = %v", sched[0].Arrival)
	}
	if sched[4].Arrival != 2*time.Second {
		t.Errorf("arrival[4] = %v, want 2s", sched[4].Arrival)
	}
	static := Schedule(incs, 0)
	for _, inc := range static {
		if inc.Arrival != 0 {
			t.Fatal("static schedule must arrive at t=0")
		}
	}
}

// TestEventualQualityStatic checks the paper's eventual-quality conditions:
// run to completion on static data, every algorithm should approximate the
// batch result (PIER strategies prune, so "approximately").
func TestEventualQualityStatic(t *testing.T) {
	batchPC := 0.0
	{
		cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
		res := Run(baseline.NewBatch(coreCfg()), Schedule(smallDA.Increments(1), 0), cfg)
		batchPC = res.Curve.FinalPC()
		if batchPC < 0.9 {
			t.Fatalf("batch PC = %.3f; blocking config is broken", batchPC)
		}
	}
	for name, mkStrategy := range allStrategies() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
			incs := Schedule(smallDA.Increments(20), 0)
			res := Run(mkStrategy(), incs, cfg)
			pc := res.Curve.FinalPC()
			if pc < batchPC-0.15 {
				t.Errorf("%s eventual PC = %.3f, batch = %.3f; gap too large", name, pc, batchPC)
			}
			if res.StreamConsumed == 0 {
				t.Errorf("%s never consumed the stream", name)
			}
			if res.Profiles != smallDA.NumProfiles() {
				t.Errorf("%s ingested %d profiles, want %d", name, res.Profiles, smallDA.NumProfiles())
			}
		})
	}
}

func TestCurvesMonotone(t *testing.T) {
	cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
	res := Run(core.NewIPES(coreCfg()), Schedule(smallDA.Increments(10), 0), cfg)
	samples := res.Curve.Samples
	for i := 1; i < len(samples); i++ {
		if samples[i].Time < samples[i-1].Time ||
			samples[i].Comparisons < samples[i-1].Comparisons ||
			samples[i].Found < samples[i-1].Found {
			t.Fatalf("curve not monotone at %d: %+v then %+v", i, samples[i-1], samples[i])
		}
	}
	if res.Comparisons == 0 || res.Elapsed == 0 {
		t.Error("run recorded no work")
	}
}

func TestBudgetRespected(t *testing.T) {
	cfg := DefaultConfig(true, match.ED, smallDA.GroundTruth)
	cfg.Budget = 50 * time.Millisecond // tiny virtual budget
	res := Run(core.NewIPES(coreCfg()), Schedule(smallDA.Increments(10), 0), cfg)
	// The run may overshoot by at most one batch of work; allow slack.
	if res.Elapsed > cfg.Budget*20 {
		t.Errorf("Elapsed = %v far exceeds budget %v", res.Elapsed, cfg.Budget)
	}
}

// TestEarlyQualityFastStream reproduces the paper's headline claim at unit
// scale: on a fast stream with an expensive matcher, I-PES has better early
// quality than I-BASE at a mid-run time budget.
func TestEarlyQualityFastStream(t *testing.T) {
	incs := smallDA.Increments(50)
	mk := func(s core.Strategy, k *core.AdaptiveK) *Result {
		cfg := DefaultConfig(true, match.ED, smallDA.GroundTruth)
		cfg.K = k
		return Run(s, Schedule(incs, 200), cfg) // 200 ΔD/s: very fast stream
	}
	ibase := baseline.NewIBase(coreCfg())
	resBase := mk(ibase, ibase.KPolicy())
	resPES := mk(core.NewIPES(coreCfg()), nil)

	// Compare at the virtual time where I-BASE is halfway through its run.
	mid := resBase.Elapsed / 2
	pcBase, pcPES := resBase.Curve.PCAt(mid), resPES.Curve.PCAt(mid)
	if pcPES < pcBase {
		t.Errorf("early quality: I-PES %.3f < I-BASE %.3f at t=%v", pcPES, pcBase, mid)
	}
}

// TestDeterminism: identical runs must produce identical curves.
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
		return Run(core.NewIPES(coreCfg()), Schedule(smallDA.Increments(25), 10), cfg)
	}
	a, b := run(), run()
	if a.Comparisons != b.Comparisons || a.Elapsed != b.Elapsed ||
		a.Curve.FinalFound != b.Curve.FinalFound || len(a.Curve.Samples) != len(b.Curve.Samples) {
		t.Fatalf("non-deterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.Curve.Samples {
		if a.Curve.Samples[i] != b.Curve.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestDirtyERRuns(t *testing.T) {
	d := dataset.Census(0.001, 4) // ~2k dirty profiles
	cfg := DefaultConfig(false, match.JS, d.GroundTruth)
	res := Run(core.NewIPES(coreCfg()), Schedule(d.Increments(10), 0), cfg)
	if res.Curve.FinalPC() < 0.5 {
		t.Errorf("dirty ER PC = %.3f, want reasonable recall", res.Curve.FinalPC())
	}
	if res.MatchesClassified == 0 {
		t.Error("matcher classified nothing as duplicate")
	}
}

// TestSlowStreamIdleJump: with a very slow stream and no work, the clock must
// jump to the next arrival instead of spinning.
func TestSlowStreamIdleJump(t *testing.T) {
	incs := Schedule(smallDA.Increments(5), 0.5) // one increment every 2s
	cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
	res := Run(core.NewIPES(coreCfg()), incs, cfg)
	if res.StreamConsumed < 8*time.Second {
		t.Errorf("StreamConsumed = %v, want >= 8s (last arrival)", res.StreamConsumed)
	}
	if res.Curve.FinalPC() < 0.7 {
		t.Errorf("slow stream PC = %.3f", res.Curve.FinalPC())
	}
}

func TestExtensionStrategiesIntegration(t *testing.T) {
	// The AUTO selector must run end-to-end through the simulated pipeline
	// with sane quality.
	t.Run("AUTO", func(t *testing.T) {
		cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
		res := Run(core.NewAuto(coreCfg()), Schedule(smallDA.Increments(20), 0), cfg)
		if res.Curve.FinalPC() < 0.6 {
			t.Errorf("AUTO PC = %.3f, want >= 0.6", res.Curve.FinalPC())
		}
		if res.Profiles != smallDA.NumProfiles() {
			t.Errorf("AUTO ingested %d profiles", res.Profiles)
		}
	})
}

func TestBlockFilteringReducesComparisons(t *testing.T) {
	run := func(ratio float64) *Result {
		ccfg := coreCfg()
		ccfg.FilterRatio = ratio
		cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
		return Run(core.NewIPES(ccfg), Schedule(smallDA.Increments(10), 0), cfg)
	}
	full := run(0)
	filtered := run(0.3)
	// The PIER fallback scan eventually revisits all blocks, so compare the
	// comparisons needed to reach the filtered run's final PC instead of
	// totals: with filtering, early candidates are fewer but precise.
	if filtered.Curve.FinalPC() < 0.5 {
		t.Errorf("filtered PC = %.3f collapsed", filtered.Curve.FinalPC())
	}
	if full.Curve.FinalPC() < filtered.Curve.FinalPC()-0.05 {
		t.Errorf("unfiltered PC %.3f unexpectedly below filtered %.3f",
			full.Curve.FinalPC(), filtered.Curve.FinalPC())
	}
}

// TestComparisonsNeverExceedCandidateSpace: a structural invariant — the
// number of distinct executed comparisons can never exceed the cross-source
// pair space.
func TestComparisonsNeverExceedCandidateSpace(t *testing.T) {
	a, b := smallDA.SourceCounts()
	space := a * b
	for name, mk := range allStrategies() {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(true, match.JS, smallDA.GroundTruth)
			res := Run(mk(), Schedule(smallDA.Increments(10), 0), cfg)
			if res.Comparisons > space {
				t.Errorf("%s executed %d comparisons > pair space %d", name, res.Comparisons, space)
			}
			if pc := res.Curve.FinalPC(); pc < 0 || pc > 1 {
				t.Errorf("%s PC out of range: %v", name, pc)
			}
		})
	}
}

func TestRunEmptyStream(t *testing.T) {
	cfg := DefaultConfig(true, match.JS, nil)
	res := Run(core.NewIPES(coreCfg()), nil, cfg)
	if res.Profiles != 0 || res.Comparisons != 0 {
		t.Errorf("empty stream: %+v", res)
	}
	if res.Curve == nil {
		t.Fatal("nil curve")
	}
}

func TestRunSingleProfileIncrements(t *testing.T) {
	// One-profile increments: the finest granularity a stream can have.
	d := dataset.DA(0.02, 6)
	cfg := DefaultConfig(true, match.JS, d.GroundTruth)
	res := Run(core.NewIPES(coreCfg()), Schedule(d.Increments(d.NumProfiles()), 0), cfg)
	if res.Profiles != d.NumProfiles() {
		t.Errorf("Profiles = %d, want %d", res.Profiles, d.NumProfiles())
	}
	if res.Curve.FinalPC() < 0.7 {
		t.Errorf("per-profile increments PC = %.3f", res.Curve.FinalPC())
	}
}
