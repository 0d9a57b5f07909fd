// Package bloom implements a scalable Bloom filter (Almeida et al., "Scalable
// Bloom Filters", IPL 2007). The I-PBS prioritization strategy uses it as the
// comparison filter CF to suppress redundant comparisons, following the
// paper's reference [16] (Gazzarri & Herschel, EDBT 2020), where a scalable
// Bloom filter replaced exact comparison-cleaning state.
//
// A scalable filter is a sequence of plain Bloom filter slices. Each slice is
// sized for a target capacity and false-positive rate; when a slice fills up,
// a new slice with doubled capacity and a geometrically tightened error rate
// is appended so that the compound false-positive probability stays below the
// configured bound regardless of how many elements are ultimately added.
package bloom

import "math"

// tighteningRatio is the per-slice error-rate ratio r from the scalable Bloom
// filter paper; 0.5 keeps the compound error below 2x the first slice's rate.
const tighteningRatio = 0.5

// growthFactor is the capacity multiplier applied to each new slice.
const growthFactor = 2

// slice is one plain Bloom filter of the scalable sequence.
type slice struct {
	bits     []uint64
	m        uint64 // number of bits
	k        uint64 // number of hash probes
	capacity uint64 // intended element capacity
	n        uint64 // elements added so far
}

func newSlice(capacity uint64, fp float64) *slice {
	if capacity == 0 {
		capacity = 1
	}
	ln2 := math.Ln2
	m := uint64(math.Ceil(-float64(capacity) * math.Log(fp) / (ln2 * ln2)))
	if m == 0 {
		m = 64
	}
	k := uint64(math.Ceil(float64(m) / float64(capacity) * ln2))
	if k == 0 {
		k = 1
	}
	return &slice{
		bits:     make([]uint64, (m+63)/64),
		m:        m,
		k:        k,
		capacity: capacity,
	}
}

func (s *slice) add(h1, h2 uint64) {
	for i := uint64(0); i < s.k; i++ {
		bit := (h1 + i*h2) % s.m
		s.bits[bit/64] |= 1 << (bit % 64)
	}
	s.n++
}

func (s *slice) contains(h1, h2 uint64) bool {
	for i := uint64(0); i < s.k; i++ {
		bit := (h1 + i*h2) % s.m
		if s.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Filter is a scalable Bloom filter over 64-bit keys. The zero value is not
// usable; construct with New.
type Filter struct {
	slices []*slice
	fpNext float64 // error rate for the next slice to be created
	count  uint64
}

// New returns a scalable Bloom filter sized for initialCapacity elements at
// the given false-positive rate. The filter grows automatically; the compound
// false-positive probability stays within a small constant factor of fpRate.
func New(initialCapacity int, fpRate float64) *Filter {
	if initialCapacity <= 0 {
		initialCapacity = 1024
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	first := fpRate * (1 - tighteningRatio) // so that the geometric sum is fpRate
	f := &Filter{fpNext: first * tighteningRatio}
	f.slices = append(f.slices, newSlice(uint64(initialCapacity), first))
	return f
}

// mix64 is the splitmix64 finalizer, used to derive two independent hash
// streams from a 64-bit key for double hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashes(key uint64) (h1, h2 uint64) {
	h1 = mix64(key)
	h2 = mix64(key ^ 0x9e3779b97f4a7c15)
	h2 |= 1 // ensure h2 is odd so probes cover the bit array
	return
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	h1, h2 := hashes(key)
	last := f.slices[len(f.slices)-1]
	if last.n >= last.capacity {
		last = newSlice(last.capacity*growthFactor, f.fpNext)
		f.fpNext *= tighteningRatio
		f.slices = append(f.slices, last)
	}
	last.add(h1, h2)
	f.count++
}

// Contains reports whether key may have been added. False positives are
// possible at the configured rate; false negatives never occur.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := hashes(key)
	for _, s := range f.slices {
		if s.contains(h1, h2) {
			return true
		}
	}
	return false
}

// AddIfNew atomically-in-one-call checks and inserts: it returns true and
// adds the key when the key was definitely absent, and returns false (no
// insert) when the key may already be present. This is the check-then-add
// pattern I-PBS uses for its comparison filter.
func (f *Filter) AddIfNew(key uint64) bool {
	if f.Contains(key) {
		return false
	}
	f.Add(key)
	return true
}
