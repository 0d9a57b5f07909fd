package dataset

import "testing"

func TestZipfPickerSkewAndBounds(t *testing.T) {
	const n = 100
	p := NewZipfPicker(n, 1.5, 9)
	counts := make([]int, n)
	for i := 0; i < 10000; i++ {
		idx := p.Pick()
		if idx < 0 || idx >= n {
			t.Fatalf("pick %d out of [0, %d)", idx, n)
		}
		counts[idx]++
	}
	if counts[0] <= counts[n-1] {
		t.Errorf("no skew: counts[0]=%d, counts[%d]=%d", counts[0], n-1, counts[n-1])
	}
	// Deterministic for the same seed.
	q := NewZipfPicker(n, 1.5, 9)
	r := NewZipfPicker(n, 1.5, 9)
	for i := 0; i < 100; i++ {
		if q.Pick() != r.Pick() {
			t.Fatal("ZipfPicker not deterministic for a fixed seed")
		}
	}
	// Degenerate n.
	one := NewZipfPicker(0, 1.5, 9)
	if got := one.Pick(); got != 0 {
		t.Errorf("n=0 picker returned %d, want 0", got)
	}
}
