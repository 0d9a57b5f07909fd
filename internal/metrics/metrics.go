// Package metrics implements the paper's evaluation measures: Pair
// Completeness (PC) — the fraction of ground-truth duplicate pairs emitted by
// the blocking/prioritization step — tracked both over (virtual) time and
// over the number of executed comparisons, plus the derived quantities the
// experiment tables report (PC at a time budget, time to reach a PC level,
// normalized area under the PC-per-comparison curve).
package metrics

import (
	"sort"
	"time"
)

// Sample is one point of a PC progress curve.
type Sample struct {
	Time        time.Duration // virtual pipeline time
	Comparisons int           // comparisons executed so far
	Found       int           // distinct ground-truth pairs emitted so far
}

// Curve is the recorded progress of one pipeline run.
type Curve struct {
	// TotalMatches is |M|, the ground-truth match count PC normalizes by.
	TotalMatches int
	// Samples are monotone in Time, Comparisons and Found.
	Samples []Sample
	// StreamConsumed is the virtual time at which the last stream
	// increment had been ingested, or 0 if the run ended first. It is the
	// "×" marker of the paper's figures.
	StreamConsumed time.Duration
	// Final totals at the end of the run.
	FinalTime        time.Duration
	FinalComparisons int
	FinalFound       int
}

// FinalPC returns the eventual quality of the run.
func (c *Curve) FinalPC() float64 {
	if c.TotalMatches == 0 {
		return 0
	}
	return float64(c.FinalFound) / float64(c.TotalMatches)
}

// PCAt returns PC at virtual time t (the last sample at or before t).
func (c *Curve) PCAt(t time.Duration) float64 {
	if c.TotalMatches == 0 {
		return 0
	}
	idx := sort.Search(len(c.Samples), func(i int) bool { return c.Samples[i].Time > t })
	if idx == 0 {
		return 0
	}
	return float64(c.Samples[idx-1].Found) / float64(c.TotalMatches)
}

// PCAtComparisons returns PC after the first n executed comparisons.
func (c *Curve) PCAtComparisons(n int) float64 {
	if c.TotalMatches == 0 {
		return 0
	}
	idx := sort.Search(len(c.Samples), func(i int) bool { return c.Samples[i].Comparisons > n })
	if idx == 0 {
		return 0
	}
	return float64(c.Samples[idx-1].Found) / float64(c.TotalMatches)
}

// AUCComparisons returns the normalized area under the PC-over-comparisons
// curve: 1 means every match was found immediately, 0 means none were found.
// It summarizes how little effort an algorithm wastes on non-matching
// comparisons (the paper's Figure 5 reading).
func (c *Curve) AUCComparisons() float64 {
	if c.TotalMatches == 0 || c.FinalComparisons == 0 {
		return 0
	}
	area := 0.0
	prevCmp, prevFound := 0, 0
	for _, s := range c.Samples {
		area += float64(s.Comparisons-prevCmp) * float64(prevFound)
		prevCmp, prevFound = s.Comparisons, s.Found
	}
	area += float64(c.FinalComparisons-prevCmp) * float64(prevFound)
	return area / (float64(c.FinalComparisons) * float64(c.TotalMatches))
}

// Recorder builds a Curve during a run. It samples adaptively: every new
// ground-truth discovery produces a sample, and stretches without discoveries
// are sampled every SampleEvery comparisons so long flat segments stay cheap.
type Recorder struct {
	gt          map[uint64]struct{}
	found       map[uint64]struct{}
	comparisons int
	sampleEvery int
	lastSampled int
	curve       *Curve
}

// NewRecorder returns a recorder for the given ground truth. sampleEvery <= 0
// defaults to 1000 comparisons.
func NewRecorder(gt map[uint64]struct{}, sampleEvery int) *Recorder {
	if sampleEvery <= 0 {
		sampleEvery = 1000
	}
	return &Recorder{
		gt:          gt,
		found:       make(map[uint64]struct{}),
		sampleEvery: sampleEvery,
		lastSampled: -sampleEvery,
		curve:       &Curve{TotalMatches: len(gt)},
	}
}

// Observe records one executed comparison identified by its pair key at
// virtual time t, and reports whether the pair is a new ground-truth match.
func (r *Recorder) Observe(t time.Duration, key uint64) bool {
	r.comparisons++
	isNew := false
	if _, isGT := r.gt[key]; isGT {
		if _, dup := r.found[key]; !dup {
			r.found[key] = struct{}{}
			isNew = true
		}
	}
	if isNew || r.comparisons-r.lastSampled >= r.sampleEvery {
		r.sample(t)
	}
	return isNew
}

func (r *Recorder) sample(t time.Duration) {
	r.lastSampled = r.comparisons
	r.curve.Samples = append(r.curve.Samples, Sample{
		Time:        t,
		Comparisons: r.comparisons,
		Found:       len(r.found),
	})
}

// MarkStreamConsumed records the virtual time the stream was fully ingested.
func (r *Recorder) MarkStreamConsumed(t time.Duration) {
	if r.curve.StreamConsumed == 0 {
		r.curve.StreamConsumed = t
	}
}

// Finish seals and returns the curve.
func (r *Recorder) Finish(t time.Duration) *Curve {
	r.sample(t)
	r.curve.FinalTime = t
	r.curve.FinalComparisons = r.comparisons
	r.curve.FinalFound = len(r.found)
	return r.curve
}

// PQ returns Pair Quality, the precision counterpart of PC: the fraction of
// executed comparisons that uncovered a ground-truth match. Progressive
// methods with good comparison order score high; exhaustive ones low.
func (c *Curve) PQ() float64 {
	if c.FinalComparisons == 0 {
		return 0
	}
	return float64(c.FinalFound) / float64(c.FinalComparisons)
}
