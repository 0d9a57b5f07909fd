// Package baseline implements the comparison systems of the paper's
// evaluation: the incremental (non-progressive) baseline I-BASE from the
// ICDE'21 framework the paper extends [17], the batch progressive algorithms
// PBS and PPS from [36] (used on static data and, as GLOBAL/LOCAL
// adaptations, on incremental data), and plain batch ER. All of them satisfy
// core.Strategy so the same pipeline runner drives every algorithm.
package baseline

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// IBase is the incremental ER baseline of [17]: for every increment it
// generates the comparisons of the new profiles (block ghosting + I-WNP,
// exactly like the PIER strategies) but performs *no prioritization* — every
// generated comparison is queued FIFO and all of them are executed before the
// next increment is ingested (the paper pairs it with an effectively
// unbounded K). It neither reconsiders leftovers on empty increments nor
// adapts its workload to the input rate, which is what makes it stall on
// fast streams and expensive matchers.
type IBase struct {
	cfg   core.Config
	queue []metablocking.Comparison
	head  int

	// Executed is the executed-pair set Dequeue marks.
	core.Executed

	// Reusable per-profile generation scratch, mirroring the PIER strategies:
	// UpdateIndex is single-writer per the Strategy contract, so the buffers
	// are recycled across profiles and increments.
	kern     metablocking.Kernel
	blocks   []*blocking.Block
	filtered []*blocking.Block
	ghosted  []*blocking.Block
}

// NewIBase returns the I-BASE baseline strategy.
func NewIBase(cfg core.Config) *IBase {
	return &IBase{cfg: cfg}
}

// Name implements core.Strategy.
func (s *IBase) Name() string { return "I-BASE" }

// KPolicy returns the emission policy I-BASE is defined with: effectively
// unbounded batches, so each increment's comparisons are fully executed
// before the next ingestion.
func (s *IBase) KPolicy() *core.AdaptiveK { return core.NewFixedK(1 << 30) }

// UpdateIndex implements core.Strategy: generate and enqueue the increment's
// comparisons in generation order. Empty increments are ignored.
func (s *IBase) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	var cost time.Duration
	for _, p := range delta {
		s.blocks = col.AppendBlocksOf(p.ID, s.blocks[:0])
		blocks := s.blocks
		if r := s.cfg.FilterRatio; r > 0 && r < 1 && len(blocks) > 0 {
			s.filtered = blocking.FilterTopRAppend(s.filtered[:0], blocks, r)
			blocks = s.filtered
		}
		if s.cfg.Beta > 0 && len(blocks) > 0 {
			s.ghosted = blocking.GhostAppend(s.ghosted[:0], blocks, s.cfg.Beta)
			blocks = s.ghosted
		}
		cands := s.kern.Candidates(col, p, blocks, s.cfg.Scheme)
		cost += s.cfg.Costs.Generate(len(cands))
		s.queue = append(s.queue, metablocking.IWNP(cands)...)
	}
	return cost
}

// Dequeue implements core.Strategy (FIFO order).
func (s *IBase) Dequeue() (metablocking.Comparison, bool) {
	for s.head < len(s.queue) {
		c := s.queue[s.head]
		s.head++
		if s.head == len(s.queue) {
			// Fully drained: release the backing array.
			s.queue = s.queue[:0]
			s.head = 0
		}
		if s.Mark(c.Key()) {
			return c, true
		}
	}
	return metablocking.Comparison{}, false
}

// Pending implements core.Strategy.
func (s *IBase) Pending() int { return len(s.queue) - s.head }
