package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(100, 0.01)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000) // 100x initial capacity forces many growths
	for i := range keys {
		keys[i] = rng.Uint64()
		f.Add(keys[i])
	}
	for i, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for key %d (#%d)", k, i)
		}
	}
}

func TestFalsePositiveRateBounded(t *testing.T) {
	const target = 0.01
	f := New(1000, target)
	rng := rand.New(rand.NewSource(2))
	present := make(map[uint64]bool, 20000)
	for i := 0; i < 20000; i++ {
		k := rng.Uint64()
		present[k] = true
		f.Add(k)
	}
	fp := 0
	const probes = 50000
	for i := 0; i < probes; i++ {
		k := rng.Uint64()
		if present[k] {
			continue
		}
		if f.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	// Scalable construction bounds the compound rate near the target; allow
	// generous slack (5x) to keep the test robust across hash behavior.
	if rate > 5*target {
		t.Errorf("false positive rate %.4f exceeds 5x target %.4f", rate, target)
	}
}

func TestAddIfNew(t *testing.T) {
	f := New(64, 0.01)
	if !f.AddIfNew(7) {
		t.Error("first AddIfNew(7) = false, want true")
	}
	if f.AddIfNew(7) {
		t.Error("second AddIfNew(7) = true, want false")
	}
	if f.count != 1 {
		t.Errorf("count = %d, want 1", f.count)
	}
}

func TestGrowth(t *testing.T) {
	f := New(16, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.Add(i)
	}
	if len(f.slices) < 2 {
		t.Errorf("%d slices, want >= 2 after exceeding capacity", len(f.slices))
	}
	if f.count != 1000 {
		t.Errorf("count = %d, want 1000", f.count)
	}
}

func TestDefaultsOnBadArgs(t *testing.T) {
	f := New(-5, 2.0) // invalid, should fall back to defaults and still work
	f.Add(1)
	if !f.Contains(1) {
		t.Error("filter with defaulted parameters lost a key")
	}
}

func TestContainsAfterAddQuick(t *testing.T) {
	f := New(1024, 0.001)
	check := func(k uint64) bool {
		f.Add(k)
		return f.Contains(k)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashesOdd(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		_, h2 := hashes(i)
		if h2%2 == 0 {
			t.Fatalf("h2 for key %d is even", i)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<20, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(1<<20, 0.01)
	for i := 0; i < 1<<20; i++ {
		f.Add(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(uint64(i))
	}
}
