package baseline

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// Batch is plain batch ER (F_batch of the paper's definitions): token
// blocking followed by executing every non-redundant block comparison in an
// arbitrary — here, lexicographic-block — order, with no prioritization
// whatsoever. It exists as the reference point of Definitions 1–3 and for the
// Figure-1 mini-experiment; on static data its eventual quality upper-bounds
// every blocking-equivalent method.
type Batch struct {
	cfg core.Config

	emission []metablocking.Comparison
	head     int
	// Executed is the executed-pair set Dequeue marks; a rebuild skips
	// marked pairs.
	core.Executed
	lastVersion uint64
	initialized bool
}

// NewBatch returns the batch ER baseline.
func NewBatch(cfg core.Config) *Batch {
	return &Batch{cfg: cfg}
}

// Name implements core.Strategy.
func (s *Batch) Name() string { return "BATCH" }

// UpdateIndex implements core.Strategy: (re)generate the full comparison list
// in block-key order whenever new data arrived.
func (s *Batch) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if len(delta) == 0 || (s.initialized && col.Version() == s.lastVersion) {
		return 0
	}
	s.lastVersion = col.Version()
	s.emission = s.emission[:0]
	s.head = 0
	seen := make(map[uint64]struct{})
	generated := 0
	for _, key := range col.SortedKeysByName() {
		b := col.Block(key)
		emit := func(x, y int) {
			k := profile.PairKey(x, y)
			if _, dup := seen[k]; dup {
				return
			}
			if s.Marked(k) {
				return
			}
			seen[k] = struct{}{}
			generated++
			s.emission = append(s.emission, metablocking.Comparison{X: x, Y: y, BSize: b.Size()})
		}
		if col.CleanClean() {
			for _, x := range b.A {
				for _, y := range b.B {
					emit(x, y)
				}
			}
		} else {
			for i, x := range b.A {
				for _, y := range b.A[i+1:] {
					emit(x, y)
				}
			}
		}
	}
	s.initialized = true
	return s.cfg.Costs.Generate(generated)
}

// Dequeue implements core.Strategy.
func (s *Batch) Dequeue() (metablocking.Comparison, bool) {
	for s.head < len(s.emission) {
		c := s.emission[s.head]
		s.head++
		if s.Mark(c.Key()) {
			return c, true
		}
	}
	return metablocking.Comparison{}, false
}

// Pending implements core.Strategy.
func (s *Batch) Pending() int { return len(s.emission) - s.head }
