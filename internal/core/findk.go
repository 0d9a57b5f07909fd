package core

import (
	"fmt"
	"math"
	"time"
)

// AdaptiveK implements findK() of Algorithm 1: the number K of comparisons
// emitted per index update adapts to the ratio between the observed increment
// interarrival time and the observed per-comparison service time of the
// matcher. A fast matcher (JS) yields a large K — the system fills idle time
// between increments with progressive work; a slow matcher (ED) yields a
// small K so the stream keeps being consumed.
//
// Both observations are tracked as exponential moving averages of their
// latest measurements, as the paper prescribes ("the average of their latest
// measurements"), and K chases the target interarrival/service with smoothed
// multiplicative updates.
type AdaptiveK struct {
	kMin, kMax float64
	k          float64
	alpha      float64 // EMA smoothing factor

	interarrival float64 // seconds, EMA
	service      float64 // seconds per comparison, EMA

	// cap, when positive, is a temporary ceiling on K imposed from outside
	// the arrival/service adaptation — the degraded mode of the fault-
	// tolerant runtime: while the matcher's circuit breaker is open, the
	// pipeline tightens K so a recovering matcher is not immediately hit
	// with a full-size batch. The underlying EMA state keeps adapting, so
	// clearing the cap returns K to the trajectory the rates dictate.
	cap float64
}

// Default bounds for K. KDefault is used until both rates have been observed.
const (
	KMin     = 8
	KMax     = 200_000
	KDefault = 512
)

// NewAdaptiveK returns an adaptive K policy with the default bounds.
func NewAdaptiveK() *AdaptiveK {
	return &AdaptiveK{kMin: KMin, kMax: KMax, k: KDefault, alpha: 0.3}
}

// NewFixedK returns a degenerate policy pinned to k, for ablations and for
// the non-adaptive baselines.
func NewFixedK(k int) *AdaptiveK {
	return &AdaptiveK{kMin: float64(k), kMax: float64(k), k: float64(k), alpha: 0.3}
}

// ObserveArrival records the time elapsed since the previous increment. A
// non-positive interarrival means the next increment was already waiting
// (backlog or static data); it is recorded as an extremely fast arrival so K
// shrinks and ingestion is not starved by long emission batches.
func (a *AdaptiveK) ObserveArrival(interarrival time.Duration) {
	sample := interarrival.Seconds()
	if interarrival <= 0 {
		sample = 1e-9
	}
	a.interarrival = a.ema(a.interarrival, sample)
}

// ObserveService records the measured cost of one executed comparison.
func (a *AdaptiveK) ObserveService(perComparison time.Duration) {
	if perComparison <= 0 {
		return
	}
	a.service = a.ema(a.service, perComparison.Seconds())
}

// ServiceTime returns the smoothed per-comparison service time, zero before
// the first observation.
func (a *AdaptiveK) ServiceTime() time.Duration {
	return time.Duration(a.service * float64(time.Second))
}

func (a *AdaptiveK) ema(cur, sample float64) float64 {
	if cur == 0 {
		return sample
	}
	return (1-a.alpha)*cur + a.alpha*sample
}

// SetCap imposes a temporary ceiling on K (degraded mode); k <= 0 is
// ignored. The EMA adaptation keeps running underneath, so ClearCap restores
// the rate-driven trajectory.
func (a *AdaptiveK) SetCap(k int) {
	if k > 0 {
		a.cap = float64(k)
	}
}

// ClearCap removes the degraded-mode ceiling.
func (a *AdaptiveK) ClearCap() { a.cap = 0 }

// Capped reports whether a degraded-mode ceiling is currently imposed.
func (a *AdaptiveK) Capped() bool { return a.cap > 0 }

// Current returns the present value of K without advancing the adaptation —
// a read-only probe for observability. K() both adapts and returns; calling
// it to inspect the trajectory would perturb the trajectory.
func (a *AdaptiveK) Current() int {
	k := a.k
	if k < a.kMin {
		k = a.kMin
	}
	if k > a.kMax {
		k = a.kMax
	}
	if a.cap > 0 && k > a.cap {
		k = a.cap
	}
	return int(k)
}

// KState is the gob-encodable image of the adaptation state: the smoothed K
// and the two rate estimators. Bounds and smoothing factor are configuration
// (reconstructed by the constructor), and the degraded-mode cap is runtime
// condition, not state — a restored pipeline starts with the cap cleared and
// re-trips its breaker if the matcher is still failing.
type KState struct {
	K            float64
	Interarrival float64
	Service      float64
}

// Check rejects a state no AdaptiveK holds: a non-finite K or rate, which
// K would convert into a negative batch size.
func (st KState) Check() error {
	for _, v := range []float64{st.K, st.Interarrival, st.Service} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: adaptive-K state %+v is not finite", st)
		}
	}
	return nil
}

// State returns the adaptation state for checkpointing.
func (a *AdaptiveK) State() KState {
	return KState{K: a.k, Interarrival: a.interarrival, Service: a.service}
}

// RestoreState replaces the adaptation state with a previously captured one,
// clamped to this instance's bounds.
func (a *AdaptiveK) RestoreState(st KState) {
	a.k = st.K
	if a.k < a.kMin {
		a.k = a.kMin
	}
	if a.k > a.kMax {
		a.k = a.kMax
	}
	a.interarrival = st.Interarrival
	a.service = st.Service
}

// K returns the current batch size: the smoothed number of comparisons the
// matcher can serve within one interarrival window, clamped to [KMin, KMax].
func (a *AdaptiveK) K() int {
	if a.interarrival > 0 && a.service > 0 {
		target := a.interarrival / a.service
		a.k = 0.5*a.k + 0.5*target
	}
	if a.k < a.kMin {
		a.k = a.kMin
	}
	if a.k > a.kMax {
		a.k = a.kMax
	}
	if a.cap > 0 && a.k > a.cap {
		// The cap bounds what is *emitted*, not the smoothed state: a.k
		// itself keeps tracking the rates so recovery is immediate.
		return int(a.cap)
	}
	return int(a.k)
}
