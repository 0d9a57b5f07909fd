package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/queue"
)

// IPCS is Incremental Progressive Comparison Scheduling (Algorithm 2), the
// comparison-centric PIER strategy: a single bounded priority queue holds the
// globally best weighted comparisons, ordered purely by the weighting scheme.
// Its effectiveness therefore stands and falls with the scheme — with CBS,
// long profiles sharing many tokens get over-prioritized, the weakness the
// entity-centric I-PES corrects.
type IPCS struct {
	gen   *generator
	index *queue.Bounded[metablocking.Comparison]
}

// NewIPCS returns an I-PCS strategy with the given configuration.
func NewIPCS(cfg Config) *IPCS {
	return &IPCS{
		gen:   newGenerator(cfg),
		index: queue.NewBounded(cfg.IndexCapacity, metablocking.Compare),
	}
}

// Name implements Strategy.
func (s *IPCS) Name() string { return "I-PCS" }

// UpdateIndex implements Algorithm 2: generate the increment's weighted
// comparisons (ghosting + I-WNP), or — when both the increment and the index
// are empty — pull leftover comparisons from the block collection via
// GetComparisons, then enqueue everything into the bounded priority queue.
func (s *IPCS) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if s.gen.cfg.CheckInvariants {
		defer s.verify()
	}
	cmpList, cost := s.gen.candidates(col, delta)
	if len(delta) == 0 && s.index.Len() == 0 {
		// A leftover block into an empty index: one sort, not a heap
		// round-trip per comparison.
		leftovers, extra := s.gen.fallbackScan(col)
		s.index.PushAll(leftovers)
		return cost + extra
	}
	for _, c := range cmpList {
		s.index.Push(c)
	}
	return cost
}

// Dequeue implements Strategy.
func (s *IPCS) Dequeue() (metablocking.Comparison, bool) {
	for {
		c, ok := s.index.PopBest()
		if !ok || s.gen.Mark(c.Key()) {
			return c, ok
		}
	}
}

// ShareExecuted implements Strategy.
func (s *IPCS) ShareExecuted(set PairSet) { s.gen.ShareExecuted(set) }

// Pending implements Strategy.
func (s *IPCS) Pending() int { return s.index.Len() }
