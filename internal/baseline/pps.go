package baseline

import (
	"sort"
	"time"

	"pier/internal/blocking"
	"pier/internal/core"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// Scope selects how a batch progressive algorithm is adapted to incremental
// data, following the paper's Figure-2 baselines.
type Scope int

const (
	// ScopeGlobal re-runs the full batch initialization over *all* data
	// seen so far on every increment. On static data (a single increment)
	// this is exactly the original batch algorithm; on streams the
	// repeated re-initialization is what makes the adaptation collapse.
	ScopeGlobal Scope = iota
	// ScopeLocal initializes over the profiles of the current increment
	// only, ignoring inter-increment comparisons — cheap but nearly
	// useless, as the paper's PPS-LOCAL curves show.
	ScopeLocal
)

// String returns the paper's suffix for the scope.
func (s Scope) String() string {
	if s == ScopeLocal {
		return "LOCAL"
	}
	return "GLOBAL"
}

// PPS is Progressive Profile Scheduling (Simonini et al., TKDE 2019), the
// entity-centric batch progressive baseline. Initialization materializes the
// full meta-blocking graph, aggregates per-profile duplication likelihoods,
// and precomputes the emission order: first the best comparison of each
// profile (globally sorted by weight), then each profile's remaining
// comparisons in likelihood order. That initialization — linear in the number
// of graph edges — is the pre-analysis overhead the paper's figures show as
// a long flat prefix, fatal when repeated per increment (PPS-GLOBAL).
type PPS struct {
	cfg   core.Config
	scope Scope
	// label overrides the reported name (e.g. "PPS" on static data).
	label string

	emission []metablocking.Comparison
	head     int
	// Executed is the executed-pair set Dequeue marks; a rebuild skips
	// marked pairs.
	core.Executed
	lastVersion uint64
	initialized bool
}

// NewPPS returns a PPS baseline with the given adaptation scope. label may
// be empty, in which case the name is "PPS-GLOBAL" or "PPS-LOCAL".
func NewPPS(cfg core.Config, scope Scope, label string) *PPS {
	if label == "" {
		label = "PPS-" + scope.String()
	}
	return &PPS{cfg: cfg, scope: scope, label: label}
}

// Name implements core.Strategy.
func (s *PPS) Name() string { return s.label }

// UpdateIndex implements core.Strategy. For ScopeGlobal it rebuilds the
// complete emission plan whenever new data arrived since the last build; for
// ScopeLocal it builds a plan over the increment's own profiles only.
func (s *PPS) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
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
		ids := make([]int, len(delta))
		for i, p := range delta {
			ids[i] = p.ID
		}
		sort.Ints(ids)
		return cost + s.build(local, ids)
	default:
		if len(delta) == 0 || (s.initialized && col.Version() == s.lastVersion) {
			return 0 // nothing new: keep the current plan
		}
		s.lastVersion = col.Version()
		return s.build(col, col.ProfileIDs())
	}
}

// build materializes the PPS emission plan over the given profiles and
// returns its modeled cost.
func (s *PPS) build(col *blocking.Collection, ids []int) time.Duration {
	edges := metablocking.Edges(col, ids, s.cfg.Scheme)
	order, _ := metablocking.ProfileLikelihoods(edges)

	// Group each profile's incident edges, sorted by descending weight
	// (Edges already returns a globally sorted slice, so per-profile
	// appends preserve that order).
	perProfile := make(map[int][]metablocking.Comparison, len(order))
	for _, e := range edges {
		perProfile[e.X] = append(perProfile[e.X], e)
		perProfile[e.Y] = append(perProfile[e.Y], e)
	}

	s.emission = s.emission[:0]
	s.head = 0
	seen := make(map[uint64]struct{}, len(edges))
	appendCmp := func(c metablocking.Comparison) {
		key := c.Key()
		if _, dup := seen[key]; dup {
			return
		}
		if s.Marked(key) {
			return
		}
		seen[key] = struct{}{}
		s.emission = append(s.emission, c)
	}
	// Phase 1: the top comparison of every profile, best first.
	tops := make([]metablocking.Comparison, 0, len(order))
	for _, id := range order {
		if cs := perProfile[id]; len(cs) > 0 {
			tops = append(tops, cs[0])
		}
	}
	sort.Slice(tops, func(i, j int) bool { return metablocking.Less(tops[j], tops[i]) })
	for _, c := range tops {
		appendCmp(c)
	}
	// Phase 2: remaining comparisons per profile, in likelihood order.
	for _, id := range order {
		for _, c := range perProfile[id] {
			appendCmp(c)
		}
	}
	s.initialized = true
	// Initialization cost: one graph edge materialization per generated
	// edge (counted from both endpoints, as the real implementation
	// traverses both block lists) plus the sorting work.
	return s.cfg.Costs.Graph(2*len(edges)) + s.cfg.Costs.Sort(len(edges)+len(order))
}

// Dequeue implements core.Strategy.
func (s *PPS) Dequeue() (metablocking.Comparison, bool) {
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
func (s *PPS) Pending() int { return len(s.emission) - s.head }
