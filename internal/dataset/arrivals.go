package dataset

import "math/rand"

// ZipfPicker draws indices in [0, n) with Zipf-distributed popularity: index
// 0 is the most popular. An open-loop query generator uses it for probe
// choice, so hot entities are queried again and again, mirroring production
// skew.
type ZipfPicker struct {
	z *rand.Zipf
}

// NewZipfPicker builds a picker over [0, n) with skew s (s > 1; 1.2 is mild,
// 2 is sharp). Deterministic for a given (n, s, seed).
func NewZipfPicker(n int, s float64, seed int64) *ZipfPicker {
	if n <= 0 {
		n = 1
	}
	if s <= 1 {
		s = 1.2
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfPicker{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Pick returns the next index.
func (p *ZipfPicker) Pick() int { return int(p.z.Uint64()) }
