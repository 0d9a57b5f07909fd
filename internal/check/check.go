// Package check is the differential and metamorphic correctness harness of
// the PIER reproduction. It cross-validates the incremental strategies
// against batch references and against each other, without trusting any
// single implementation:
//
//   - differential oracles run a strategy to completion over a stream and
//     compare its executed-pair set against the batch baseline's and against
//     a brute-force enumeration of the final block collection;
//   - metamorphic oracles re-run the same workload under input
//     transformations that must not change the outcome — cutting the stream
//     into a different number of increments, permuting profiles within an
//     increment — and compare final states;
//   - seeded randomized drivers (see CheckSeed) generate small workloads from
//     a single integer and shrink failures to a minimal stream prefix, so
//     every discovered divergence reproduces from a one-line seed.
//
// Every oracle returns an error instead of failing a testing.T, so the
// harness's own tests can inject mutations and assert that each failure mode
// actually fires.
//
// The equivalences the oracles assert hold under a specific configuration,
// returned by CoreConfig: CBS weighting, ghosting and block filtering
// disabled, unbounded indexes, and no block purging. Each knob matters:
// bounded indexes and purging legitimately drop work, and ghosting changes
// the candidate sets per increment boundary. Under that configuration a fully
// drained run of I-PCS, I-PBS, or I-PES executes exactly the non-redundant
// co-blocked pairs of the final collection — the same set as batch ER.
package check

import (
	"fmt"
	"sort"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/match"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/stream"
)

// CoreConfig returns the strategy configuration under which the harness's
// batch↔incremental equivalences hold exactly (see the package comment).
// Invariant self-checking is on, so every harness run also exercises the
// strategies' internal assertions.
func CoreConfig() core.Config {
	return core.Config{
		Scheme:          metablocking.CBS,
		Beta:            0, // no ghosting: candidate sets must not depend on increment cuts
		FilterRatio:     0, // no block filtering, same reason
		IndexCapacity:   0, // unbounded: bounded queues legitimately drop work
		Costs:           match.DefaultCosts(),
		Parallelism:     1,
		CheckInvariants: true,
	}
}

// StreamConfig returns the simulator configuration for drained harness runs:
// no budget, no block purging, cheap deterministic Jaccard matching.
func StreamConfig(cleanClean bool) stream.Config {
	return stream.Config{
		CleanClean:   cleanClean,
		MaxBlockSize: 0, // purging drops pairs by design; the oracles need all of them
		Matcher:      match.NewMatcher(match.JS),
		Costs:        match.DefaultCosts(),
		SampleEvery:  1 << 20,
		TickCost:     time.Microsecond,
	}
}

// DrainedRun executes the full discrete-event pipeline over the increments
// and runs it to completion (no budget), returning the set of pairs the
// matcher actually executed and the run result. The set is captured through
// stream.Config.OnExecuted, so it reflects the real driver loop, not a
// reimplementation.
func DrainedRun(s core.Strategy, incs [][]*profile.Profile, cfg stream.Config) (map[uint64]struct{}, *stream.Result) {
	executed := make(map[uint64]struct{})
	cfg.Budget = 0
	cfg.OnExecuted = func(c metablocking.Comparison) { executed[c.Key()] = struct{}{} }
	res := stream.Run(s, stream.Schedule(incs, 0), cfg)
	return executed, res
}

// FinalCollection blocks the whole stream into a fresh collection with
// purging disabled — the strategy-independent final blocking state every
// drained run converges to.
func FinalCollection(cleanClean bool, incs [][]*profile.Profile) *blocking.Collection {
	col := blocking.NewCollection(cleanClean, 0)
	for _, inc := range incs {
		for _, p := range inc {
			col.Add(p)
		}
	}
	return col
}

// BlockPairs enumerates every non-redundant co-blocked pair of the collection
// by brute force. This is the reference emission set of batch ER (the paper's
// F_batch): any blocking-equivalent method that runs to completion must
// execute exactly these pairs.
func BlockPairs(col *blocking.Collection) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for _, key := range col.SortedKeysByName() {
		b := col.Block(key)
		if b == nil {
			continue
		}
		if col.CleanClean() {
			for _, x := range b.A {
				for _, y := range b.B {
					out[profile.PairKey(x, y)] = struct{}{}
				}
			}
		} else {
			for i, x := range b.A {
				for _, y := range b.A[i+1:] {
					out[profile.PairKey(x, y)] = struct{}{}
				}
			}
		}
	}
	return out
}

// Trace is one emitted comparison of a drain sequence, reduced to the fields
// that are split-invariant. BSize is deliberately excluded: it records the
// block's size at generation time, which legitimately depends on where the
// stream was cut.
type Trace struct {
	X, Y   int
	Weight float64
}

// IngestTrace drives the strategy directly — UpdateIndex once per increment,
// then a full drain alternating Dequeue with empty-increment refills — and
// returns the exact emission sequence. Unlike DrainedRun it bypasses the
// simulator, isolating the strategy's own routing from driver behavior.
func IngestTrace(s core.Strategy, cleanClean bool, incs [][]*profile.Profile) []Trace {
	col := blocking.NewCollection(cleanClean, 0)
	for _, inc := range incs {
		for _, p := range inc {
			col.Add(p)
		}
		s.UpdateIndex(col, inc)
	}
	var out []Trace
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

// diffSets returns nil when the two pair sets are equal, or an error naming
// up to three sample pairs on each side of the symmetric difference.
func diffSets(nameA string, a map[uint64]struct{}, nameB string, b map[uint64]struct{}) error {
	onlyA := sampleMissing(a, b)
	onlyB := sampleMissing(b, a)
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return nil
	}
	return fmt.Errorf("check: executed sets diverge: %s has %d pairs (e.g. %v not in %s), %s has %d pairs (e.g. %v not in %s)",
		nameA, len(a), onlyA, nameB, nameB, len(b), onlyB, nameA)
}

// sampleMissing returns up to three (x,y) pairs present in a but not in b,
// smallest keys first for deterministic messages.
func sampleMissing(a, b map[uint64]struct{}) [][2]int {
	var keys []uint64
	for k := range a {
		if _, ok := b[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > 3 {
		keys = keys[:3]
	}
	out := make([][2]int, len(keys))
	for i, k := range keys {
		x, y := profile.SplitPairKey(k)
		out[i] = [2]int{x, y}
	}
	return out
}

// diffTraces returns nil when the two emission sequences are identical, or an
// error locating the first divergence.
func diffTraces(name string, kA int, a []Trace, kB int, b []Trace) error {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("check: %s drain sequences diverge at position %d: k=%d emitted %+v, k=%d emitted %+v",
				name, i, kA, a[i], kB, b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("check: %s drain sequences diverge in length: k=%d emitted %d comparisons, k=%d emitted %d",
			name, kA, len(a), kB, len(b))
	}
	return nil
}
