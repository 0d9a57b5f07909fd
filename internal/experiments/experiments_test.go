package experiments

import (
	"strings"
	"testing"
	"time"

	"pier/internal/baseline"
	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/stream"
)

// tiny returns options small enough for unit tests (a few hundred profiles).
func tiny() Options {
	return Options{
		DAScale:            0.05,
		MoviesScale:        0.01,
		CensusScale:        0.0005,
		WebScale:           0.0003,
		Seed:               1,
		BudgetDA:           10 * time.Millisecond,
		BudgetMovies:       15 * time.Millisecond,
		BudgetCensus:       20 * time.Millisecond,
		BudgetWeb:          25 * time.Millisecond,
		StreamBudgetFactor: 4,
		RateScale:          16,
	}
}

func TestTable1Output(t *testing.T) {
	var sb strings.Builder
	Table1(&sb, tiny())
	out := sb.String()
	for _, want := range []string{"dblp-acm", "movies", "census", "webdata", "Clean-Clean", "Dirty"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRunnersProduceSeries(t *testing.T) {
	opt := tiny()
	cases := []struct {
		name string
		run  func(sb *strings.Builder)
		want []string
	}{
		{"fig1", func(sb *strings.Builder) { Fig1(sb, opt) }, []string{"BATCH", "I-PES", "finalPC"}},
		{"fig2", func(sb *strings.Builder) { Fig2(sb, opt) }, []string{"PPS-GLOBAL", "PPS-LOCAL", "I-BASE", "I-PES", "fast stream"}},
		{"fig4", func(sb *strings.Builder) { Fig4(sb, opt) }, []string{"dblp-acm, JS", "webdata, ED", "I-PCS", "I-PBS"}},
		{"fig5", func(sb *strings.Builder) { Fig5(sb, opt) }, []string{"AUC", "movies", "census"}},
		{"fig6", func(sb *strings.Builder) { Fig6(sb, opt) }, []string{"I-PBS(", "I-PES(", "PC over comparisons"}},
		{"fig7", func(sb *strings.Builder) { Fig7(sb, opt) }, []string{"32 dD/s", "PBS-GLOBAL", "I-BASE"}},
		{"fig8", func(sb *strings.Builder) { Fig8(sb, opt) }, []string{"4 dD/s", "8 dD/s", "16 dD/s"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var sb strings.Builder
			tc.run(&sb)
			out := sb.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q", tc.name, want)
				}
			}
			// Every experiment must print at least one numeric PC cell.
			if !strings.Contains(out, "0.") && !strings.Contains(out, "1.000") {
				t.Errorf("%s output has no PC values:\n%s", tc.name, out)
			}
		})
	}
}

func TestBudgetFor(t *testing.T) {
	opt := tiny()
	s := newSuite(opt)
	if opt.budgetFor(s.DA()) != opt.BudgetDA {
		t.Error("budgetFor(DA) wrong")
	}
	if opt.budgetFor(s.Web()) != opt.BudgetWeb {
		t.Error("budgetFor(Web) wrong")
	}
}

// TestStaticBudgetsCalibrated pins what the Quick static budgets stand for:
// each is about twice the virtual time plain batch ER with JS needs to
// finish its dataset, so JS pipelines complete within the budget, while an
// ED run is cut off before it executes the comparisons the JS batch did.
func TestStaticBudgetsCalibrated(t *testing.T) {
	opt := Quick()
	s := newSuite(opt)
	for _, d := range []*dataset.Dataset{s.DA(), s.Movies(), s.Census(), s.Web()} {
		budget := opt.budgetFor(d)
		run := func(kind match.Kind, budget time.Duration) *stream.Result {
			cfg := stream.DefaultConfig(d.CleanClean, kind, d.GroundTruth)
			cfg.Budget = budget
			return stream.Run(baseline.NewBatch(core.DefaultConfig()), stream.Schedule(d.Increments(1), 0), cfg)
		}
		js := run(match.JS, 0)
		lo, hi := time.Duration(float64(budget)/2.5), time.Duration(float64(budget)/1.5)
		if js.Elapsed < lo || js.Elapsed > hi {
			t.Errorf("%s: JS batch completes in %v; budget %v wants it within [%v, %v]", d.Name, js.Elapsed, budget, lo, hi)
		}
		if ed := run(match.ED, budget); ed.Comparisons >= js.Comparisons {
			t.Errorf("%s: ED under the %v budget ran %d comparisons, not fewer than the JS batch's %d", d.Name, budget, ed.Comparisons, js.Comparisons)
		}
	}
}

func TestStreamBudgetAndRate(t *testing.T) {
	opt := tiny()
	if got := opt.streamBudget(32, 16); got != 8*time.Second {
		t.Errorf("streamBudget(32,16) = %v, want 8s (32/16*4)", got)
	}
	if got := opt.effectiveRate(2); got != 32 {
		t.Errorf("effectiveRate(2) = %v, want 32", got)
	}
	var zero Options
	if zero.effectiveRate(5) != 5 {
		t.Error("zero RateScale must pass rates through")
	}
	if zero.streamBudget(16, 2) != time.Duration(16.0/2*8)*time.Second {
		t.Error("zero StreamBudgetFactor must default to 8")
	}
}

func TestIncrementsHeuristic(t *testing.T) {
	s := newSuite(tiny())
	da := increments(s.DA())
	if da < 2 || da > s.DA().NumProfiles() {
		t.Errorf("increments(da) = %d", da)
	}
	// dblp-acm uses ~5 profiles per increment, movies ~50.
	perDA := s.DA().NumProfiles() / da
	if perDA < 3 || perDA > 8 {
		t.Errorf("per-increment profiles for da = %d, want ~5", perDA)
	}
}

func TestShortDur(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1.5m",
		1500 * time.Millisecond: "1.50s",
		2500 * time.Microsecond: "2.5ms",
		800 * time.Nanosecond:   "800ns",
	}
	for d, want := range cases {
		if got := shortDur(d); got != want {
			t.Errorf("shortDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestExperimentOutputDeterministic(t *testing.T) {
	opt := tiny()
	var a, b strings.Builder
	Fig1(&a, opt)
	Fig1(&b, opt)
	if a.String() != b.String() {
		t.Error("Fig1 output differs between identical runs")
	}
	a.Reset()
	b.Reset()
	Table1(&a, opt)
	Table1(&b, opt)
	if a.String() != b.String() {
		t.Error("Table1 output differs between identical runs")
	}
}

func TestFaultToleranceReportsThroughputAndOverhead(t *testing.T) {
	var sb strings.Builder
	FaultTolerance(&sb, tiny())
	out := sb.String()
	for _, want := range []string{"snapshot size", "checkpoint save", "checkpoint restore", "MB/s", "plain matcher", "fallible (default)", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("FaultTolerance output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "failed") {
		t.Errorf("FaultTolerance reported a failure:\n%s", out)
	}
}
