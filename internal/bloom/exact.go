package bloom

// Membership is the key-set contract shared by the scalable Bloom filter and
// the exact set: the operations the pipeline's comparison filters need. The
// Bloom implementation may report false positives (suppressing a comparison
// that was never executed); the exact implementation never does, at the cost
// of memory linear in the number of keys.
type Membership interface {
	// Add inserts key.
	Add(key uint64)
	// Contains reports whether key may have been added (exactly, for Exact).
	Contains(key uint64) bool
	// AddIfNew inserts key and returns true iff it was definitely absent.
	AddIfNew(key uint64) bool
}

var (
	_ Membership = (*Filter)(nil)
	_ Membership = (*Exact)(nil)
)

// Exact is a drop-in replacement for Filter backed by an exact set: no false
// positives, memory linear in the number of distinct keys. The correctness
// harness (internal/check) runs the strategies with exact filters so that
// batch↔incremental oracles can assert strict set equality; production
// configurations choose between the two via core.Config.ExactFilters.
type Exact struct {
	m map[uint64]struct{}
}

// NewExact returns an empty exact key set.
func NewExact() *Exact {
	return &Exact{m: make(map[uint64]struct{})}
}

// Add inserts key.
func (e *Exact) Add(key uint64) { e.m[key] = struct{}{} }

// Contains reports whether key has been added.
func (e *Exact) Contains(key uint64) bool {
	_, ok := e.m[key]
	return ok
}

// AddIfNew inserts key and reports whether it was absent.
func (e *Exact) AddIfNew(key uint64) bool {
	if _, ok := e.m[key]; ok {
		return false
	}
	e.m[key] = struct{}{}
	return true
}
