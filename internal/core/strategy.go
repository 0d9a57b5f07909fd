// Package core implements the paper's contribution: the incremental
// comparison prioritization component of the PIER pipeline (Algorithm 1) and
// its three strategies — comparison-centric I-PCS (Algorithm 2),
// block-centric I-PBS (Algorithm 3), and entity-centric I-PES (Algorithm 4) —
// together with the adaptive batch-size policy findK.
//
// A strategy maintains the global comparison index CmpIndex: the best
// unexecuted comparisons over *all* profiles seen so far (the paper's
// globality condition). The pipeline driver calls UpdateIndex for every data
// increment — including the periodic empty increments the blocking stage
// emits when the stream is idle — and then dequeues up to K comparisons for
// the matcher, with K chosen adaptively from the observed input and service
// rates.
package core

import (
	"slices"
	"time"

	"pier/internal/blocking"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
)

// Strategy is the IncrPrioritization plug-in of Algorithm 1. Implementations
// are not safe for concurrent use; the pipeline runners serialize access.
type Strategy interface {
	// Name returns the algorithm's paper name (e.g. "I-PES").
	Name() string
	// UpdateIndex integrates a data increment into the global comparison
	// index (updateCmpIndex in Algorithms 2–4). An empty delta is the
	// periodic tick blocking emits when no new data arrived; strategies
	// use it to refill the index from leftover work. The returned duration
	// is the modeled virtual cost of the maintenance performed.
	UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration
	// Dequeue removes and returns the best remaining comparison
	// (CmpIndex.dequeue in the paper), or ok == false if the index is
	// empty.
	Dequeue() (metablocking.Comparison, bool)
	// Pending returns the number of comparisons currently queued.
	Pending() int
}

// Config collects the tuning knobs shared by the PIER strategies.
type Config struct {
	// Scheme is the meta-blocking weighting scheme; the paper uses CBS.
	Scheme metablocking.Scheme
	// Beta is the block-ghosting parameter β (see blocking.Ghost);
	// <= 0 disables ghosting.
	Beta float64
	// FilterRatio applies block filtering before ghosting: each profile
	// keeps only this fraction of its smallest blocks (see
	// blocking.FilterTopRAppend); <= 0 or >= 1 disables filtering.
	FilterRatio float64
	// IndexCapacity bounds the main comparison index (I-PCS queue, I-PBS
	// queue, and the low-weight queue PQ of I-PES); <= 0 means unbounded.
	IndexCapacity int
	// PerEntityCapacity bounds each per-entity queue of I-PES; the paper
	// leaves them unbounded (0), relying on the insert() average-weight
	// pruning; a positive value enables the bounded-queue ablation.
	PerEntityCapacity int
	// Costs is the virtual-time cost model charged for maintenance work.
	Costs match.CostModel
	// Parallelism is the number of workers candidate generation fans the
	// increment's per-profile work out over: 0 (the default) or negative
	// uses one worker per CPU, 1 forces exact serial execution. Results are
	// merged in profile order, so every setting produces bit-for-bit the
	// same index state; only wall-clock time changes. The strategies'
	// index mutation itself stays single-writer per the Strategy contract.
	Parallelism int
	// Metrics, if set, is the registry candidate generation registers its
	// worker-pool instruments in (busy-workers gauge, task counter, stage
	// timers). Nil disables instrumentation.
	Metrics *obsv.Registry
	// ExactFilters replaces the strategies' scalable Bloom filters (the
	// executed-pair filter of the fallback scan, I-PBS's comparison filter
	// CF) with exact sets. Bloom false positives can silently *lose* a
	// comparison that was never executed; exact filters guarantee the
	// batch↔incremental equivalence the correctness harness
	// (internal/check) asserts, at the cost of memory linear in the number
	// of filtered pairs instead of constant.
	ExactFilters bool
	// CheckInvariants enables per-update self-verification of the
	// strategies' index structures (interval-heap order, I-PES pending
	// accounting, I-PBS CI/PI agreement). Violations panic with a
	// description. The checks cost O(index size) per UpdateIndex, so they
	// are for tests, debugging, and canary deployments, not steady-state
	// production.
	CheckInvariants bool
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		Scheme:            metablocking.CBS,
		Beta:              0.2,
		IndexCapacity:     100_000,
		PerEntityCapacity: 0,
		Costs:             match.DefaultCosts(),
	}
}

// AppendBatch implements the emission loop of Algorithm 1 (lines 3–8): it
// dequeues up to k comparisons from the strategy's index in priority order
// and appends them to dst, so a caller that emits every round can reuse one
// buffer. dst grows by at most min(k, s.Pending()) elements — by what is
// queued, never by what findK would allow.
func AppendBatch(dst []metablocking.Comparison, s Strategy, k int) []metablocking.Comparison {
	if k <= 0 {
		return dst
	}
	dst = slices.Grow(dst, min(k, s.Pending()))
	for end := len(dst) + k; len(dst) < end; {
		c, ok := s.Dequeue()
		if !ok {
			break
		}
		dst = append(dst, c)
	}
	return dst
}

// EmitBatch is AppendBatch into a fresh slice (nil when k <= 0).
func EmitBatch(s Strategy, k int) []metablocking.Comparison {
	return AppendBatch(nil, s, k)
}
