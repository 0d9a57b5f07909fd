package core

import (
	"math"
	"testing"
	"time"
)

// Table-driven edge cases for findK (AdaptiveK): degenerate rate
// observations, burst arrivals, and clamping at both bounds. The smooth
// steady-state behavior is covered by the AdaptiveK tests in core_test.go;
// these pin the boundary semantics.
func TestAdaptiveKEdgeCases(t *testing.T) {
	burst := func(a *AdaptiveK, arrival, service time.Duration, n int) {
		for i := 0; i < n; i++ {
			a.ObserveArrival(arrival)
			a.ObserveService(service)
			a.K()
		}
	}
	cases := []struct {
		name  string
		drive func(a *AdaptiveK)
		check func(t *testing.T, a *AdaptiveK)
	}{
		{
			// A zero or negative service sample carries no information (no
			// comparison can be free); it must be ignored, leaving K at the
			// default rather than exploding the interarrival/service ratio.
			name: "zero service rate ignored",
			drive: func(a *AdaptiveK) {
				a.ObserveArrival(time.Second)
				a.ObserveService(0)
				a.ObserveService(-time.Millisecond)
			},
			check: func(t *testing.T, a *AdaptiveK) {
				if got := a.K(); got != KDefault {
					t.Fatalf("K adapted on a degenerate service rate: %d", got)
				}
			},
		},
		{
			// Backlogged (non-positive) interarrivals mean the stream is
			// ahead of the pipeline: K must collapse to KMin so ingestion is
			// never starved by long emission batches.
			name: "burst arrivals drive K to KMin",
			drive: func(a *AdaptiveK) {
				burst(a, 0, time.Millisecond, 40)
			},
			check: func(t *testing.T, a *AdaptiveK) {
				if got := a.K(); got != KMin {
					t.Fatalf("K = %d after a backlog burst, want KMin = %d", got, KMin)
				}
			},
		},
		{
			// A slow matcher on a slow stream: target K below KMin clamps up.
			name: "clamped at KMin",
			drive: func(a *AdaptiveK) {
				burst(a, time.Millisecond, time.Second, 40)
			},
			check: func(t *testing.T, a *AdaptiveK) {
				if got := a.K(); got != KMin {
					t.Fatalf("K = %d, want clamp at KMin = %d", got, KMin)
				}
			},
		},
		{
			// A fast matcher on a slow stream: target K above KMax clamps
			// down.
			name: "clamped at KMax",
			drive: func(a *AdaptiveK) {
				burst(a, time.Hour, time.Nanosecond, 40)
			},
			check: func(t *testing.T, a *AdaptiveK) {
				if got := a.K(); got != KMax {
					t.Fatalf("K = %d, want clamp at KMax = %d", got, KMax)
				}
			},
		},
		{
			// Current() is a read-only probe: it must clamp like K() but
			// leave the trajectory untouched.
			name: "Current does not advance adaptation",
			drive: func(a *AdaptiveK) {
				burst(a, time.Second, time.Millisecond, 5)
			},
			check: func(t *testing.T, a *AdaptiveK) {
				before := a.Current()
				for i := 0; i < 10; i++ {
					if got := a.Current(); got != before {
						t.Fatalf("Current drifted from %d to %d without observations", before, got)
					}
				}
			},
		},
		{
			// FixedK is immune to every observation, including degenerate
			// ones.
			name:  "FixedK immune to observations",
			drive: func(a *AdaptiveK) {},
			check: func(t *testing.T, a *AdaptiveK) {
				f := NewFixedK(37)
				burst(f, 0, 0, 20)
				burst(f, time.Hour, time.Nanosecond, 20)
				if got := f.K(); got != 37 {
					t.Fatalf("FixedK(37) drifted to %d", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAdaptiveK()
			tc.drive(a)
			tc.check(t, a)
		})
	}
}

// TestDegradedModeCapAndRecovery pins the degraded-mode contract of findK:
// while the cap is set (the live runtime does this whenever the matcher's
// circuit breaker opens) the *emitted* K is bounded by the cap, but the
// underlying EMA state keeps tracking the observed rates — so after ClearCap
// the trajectory is exactly the one a fault-free twin followed.
func TestDegradedModeCapAndRecovery(t *testing.T) {
	const arrival, service = 100 * time.Millisecond, 100 * time.Microsecond // target K = 1000
	step := func(a *AdaptiveK) int {
		a.ObserveArrival(arrival)
		a.ObserveService(service)
		return a.K()
	}
	free, capped := NewAdaptiveK(), NewAdaptiveK()
	for i := 0; i < 20; i++ {
		step(free)
		step(capped)
	}

	capped.SetCap(KMin)
	if !capped.Capped() {
		t.Fatal("Capped() false after SetCap")
	}
	for i := 0; i < 30; i++ {
		step(free)
		if got := step(capped); got != KMin {
			t.Fatalf("emitted K = %d under a KMin cap, want %d", got, KMin)
		}
	}
	if got := capped.Current(); got != KMin {
		t.Fatalf("Current() = %d under the cap, want %d", got, KMin)
	}

	capped.ClearCap()
	if capped.Capped() {
		t.Fatal("Capped() still true after ClearCap")
	}
	// Sustained matcher failure shrank only the *emitted* K; the smoothed
	// state saw the same observations as the fault-free twin, so recovery is
	// immediate and exact — not a slow climb back from KMin.
	gotK, wantK := step(capped), step(free)
	if gotK != wantK {
		t.Fatalf("first K after recovery = %d, want the fault-free trajectory's %d", gotK, wantK)
	}
	if gotK <= KMin {
		t.Fatalf("K = %d right after recovery; cap leaked into the adaptation state", gotK)
	}

	// The cap is runtime condition, not checkpoint state: a snapshot taken
	// in degraded mode restores uncapped (the breaker re-trips if the
	// matcher is still down).
	capped.SetCap(KMin)
	restored := NewAdaptiveK()
	restored.RestoreState(capped.State())
	if restored.Capped() {
		t.Error("restored AdaptiveK kept the degraded-mode cap")
	}
	if got, want := restored.Current(), capped.State().K; float64(got) < want-1 || float64(got) > want+1 {
		t.Errorf("restored Current() = %d, want ~%.0f", got, want)
	}
}

// TestKStateCheck: a restored findk image with a NaN or infinite field would
// make K return a negative batch size, so Check rejects it.
func TestKStateCheck(t *testing.T) {
	a := NewAdaptiveK()
	a.ObserveArrival(time.Millisecond)
	if err := a.State().Check(); err != nil {
		t.Errorf("a live state fails Check: %v", err)
	}
	for _, bad := range []KState{{K: math.NaN()}, {K: 10, Interarrival: math.Inf(1)}, {K: 10, Service: math.NaN()}} {
		if bad.Check() == nil {
			t.Errorf("Check accepts %+v", bad)
		}
	}
}
