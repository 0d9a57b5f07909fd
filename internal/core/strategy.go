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
	// empty. It marks the returned pair in the executed-pair set and skips
	// queued pairs that are marked already.
	Dequeue() (metablocking.Comparison, bool)
	// Pending returns the number of comparisons currently queued.
	Pending() int
	// ShareExecuted makes set the executed-pair set that Dequeue marks and
	// leftover scans consult, in place of the strategy's private one. A
	// pipeline that keeps its own set lends it before the first
	// UpdateIndex, or right after LoadState on restore, so that one set
	// answers "was this pair compared?" for both.
	ShareExecuted(set PairSet)
}

// PairSet is an exact set of pair keys (profile.PairKey): the executed-pair
// set a strategy marks as Dequeue hands pairs to the matcher.
// storage.DedupStore is one; the owner may also delete keys, e.g. of pairs
// whose profiles left the window.
type PairSet interface {
	// Has reports whether key is in the set.
	Has(key uint64) bool
	// AddIfNew inserts key and reports whether it was absent.
	AddIfNew(key uint64) bool
}

// Executed is the executed-pair set a strategy embeds: Dequeue marks every
// pair it hands out, and leftover scans skip marked pairs. It is a private
// exact set until a pipeline lends its own through ShareExecuted. The zero
// value is ready to use.
type Executed struct {
	set  PairSet
	lent bool
}

// ShareExecuted implements Strategy.
func (e *Executed) ShareExecuted(set PairSet) { e.set, e.lent = set, true }

// Mark marks key and reports whether Dequeue may hand the pair out. Under a
// lent set that is whether the pair was unmarked: the lender relies on
// Dequeue never handing out a pair twice, and checks nothing itself. A
// private set only records, for leftover scans; a standalone caller that
// queues a pair twice gets it twice, and dedups what it runs itself, as
// stream.Run does.
func (e *Executed) Mark(key uint64) bool { return e.pairs().AddIfNew(key) || !e.lent }

// Marked reports whether key is marked.
func (e *Executed) Marked(key uint64) bool { return e.pairs().Has(key) }

func (e *Executed) pairs() PairSet {
	if e.set == nil {
		e.set = pairMap{}
	}
	return e.set
}

// pairMap is a strategy's private exact pair set.
type pairMap map[uint64]struct{}

func (m pairMap) Has(key uint64) bool {
	_, ok := m[key]
	return ok
}

// AddIfNew is one map assignment: the length tells whether it inserted.
func (m pairMap) AddIfNew(key uint64) bool {
	n := len(m)
	m[key] = struct{}{}
	return len(m) > n
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
	// Parallelism has no effect: candidate generation runs serially on the
	// caller, because its per-profile fan-out never beat the serial loop.
	// The field stays for existing callers.
	Parallelism int
	// Metrics, if set, is the registry candidate generation registers its
	// stage timer in. Nil disables instrumentation.
	Metrics *obsv.Registry
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
