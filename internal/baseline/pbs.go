package baseline

import (
	"sort"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// PBS is Progressive Block Scheduling (Simonini et al., TKDE 2019), the
// block-centric batch progressive baseline: blocks are processed from the
// smallest to the largest, and within each block the comparisons are ordered
// by the weighting scheme, skipping pairs already emitted by an earlier
// (smaller) block. Its initialization only sorts the block collection, so it
// is far cheaper than PPS — the reason the paper finds its early quality best
// on large static datasets — but like PPS it does not extend to incremental
// data without rebuilding (ScopeGlobal) or ignoring history (ScopeLocal).
type PBS struct {
	cfg   core.Config
	scope Scope
	label string

	emission []metablocking.Comparison
	head     int
	// Executed is the executed-pair set Dequeue marks; a rebuild skips
	// marked pairs.
	core.Executed
	weigher     metablocking.Kernel
	lastVersion uint64
	initialized bool
}

// NewPBS returns a PBS baseline with the given adaptation scope. label may be
// empty, in which case the name is "PBS-GLOBAL" or "PBS-LOCAL".
func NewPBS(cfg core.Config, scope Scope, label string) *PBS {
	if label == "" {
		label = "PBS-" + scope.String()
	}
	return &PBS{cfg: cfg, scope: scope, label: label}
}

// Name implements core.Strategy.
func (s *PBS) Name() string { return s.label }

// UpdateIndex implements core.Strategy, rebuilding the block-ordered emission
// plan like PPS does (see PPS.UpdateIndex for the scope semantics).
func (s *PBS) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	switch s.scope {
	case ScopeLocal:
		if len(delta) == 0 {
			return 0
		}
		local := blocking.NewCollection(col.CleanClean(), 0)
		var cost time.Duration
		for _, p := range delta {
			cost += s.cfg.Costs.Block(local.Add(p))
		}
		return cost + s.build(local)
	default:
		if len(delta) == 0 || (s.initialized && col.Version() == s.lastVersion) {
			return 0
		}
		s.lastVersion = col.Version()
		return s.build(col)
	}
}

// build materializes the PBS emission plan: per ascending-size block, the
// block's fresh comparisons sorted by descending scheme weight.
func (s *PBS) build(col *blocking.Collection) time.Duration {
	s.emission = s.emission[:0]
	s.head = 0
	seen := make(map[uint64]struct{})
	generated := 0
	keys := col.SortedKeysBySize()
	for _, key := range keys {
		b := col.Block(key)
		if b == nil {
			continue
		}
		start := len(s.emission)
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
			s.emission = append(s.emission, metablocking.Comparison{
				X:      x,
				Y:      y,
				Weight: float64(s.weigher.SharedBlocks(col, x, y)),
				BSize:  b.Size(),
			})
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
		// Order within the block by descending weight.
		blk := s.emission[start:]
		sort.Slice(blk, func(i, j int) bool { return metablocking.Less(blk[j], blk[i]) })
	}
	s.initialized = true
	return s.cfg.Costs.Generate(generated) + s.cfg.Costs.Sort(len(keys)+generated)
}

// Dequeue implements core.Strategy.
func (s *PBS) Dequeue() (metablocking.Comparison, bool) {
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
func (s *PBS) Pending() int { return len(s.emission) - s.head }
