package obsv

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQuantile is the exact q-quantile of a sorted sample, nearest-rank style,
// used as ground truth for the histogram estimator.
func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// bucketWidthAt returns the width of the bucket that holds v — the histogram
// estimator's worst-case error against the exact sample quantile.
func bucketWidthAt(bounds []float64, v float64) float64 {
	i := sort.SearchFloat64s(bounds, v)
	if i >= len(bounds) {
		return math.Inf(1)
	}
	lower := 0.0
	if i > 0 {
		lower = bounds[i-1]
	}
	return bounds[i] - lower
}

func TestHistogramQuantileAgainstSortedSamples(t *testing.T) {
	bounds := ExpBuckets(0.001, 2, 16) // 1ms .. ~32s
	rng := rand.New(rand.NewSource(42))
	r := NewRegistry()
	h := r.Histogram("q_lat", "", bounds)
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over the bucket range so every bucket sees traffic.
		v := 0.001 * math.Pow(2, rng.Float64()*15)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
		exact := refQuantile(samples, q)
		got := h.Quantile(q)
		// The estimator interpolates inside the containing bucket, so it can
		// be off by at most one bucket width around the exact quantile.
		tol := bucketWidthAt(bounds, exact)
		if math.Abs(got-exact) > tol {
			t.Errorf("q=%g: estimate %g vs exact %g exceeds bucket-width tolerance %g", q, got, exact, tol)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_edge", "", []float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// All mass in the +Inf bucket clamps to the highest finite bound.
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("+Inf-bucket quantile = %g, want clamp to 4", got)
	}
	// Out-of-range q is clamped, not an error.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Errorf("q<0 not clamped: %g vs %g", got, h.Quantile(0))
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("q>1 not clamped: %g vs %g", got, h.Quantile(1))
	}
	// Single bucket fully below the first bound interpolates from 0.
	h2 := r.Histogram("q_edge2", "", []float64{10})
	h2.Observe(3)
	if got := h2.Quantile(1); got != 10 {
		t.Errorf("single-sample p100 = %g, want upper bound 10", got)
	}
	if got := h2.Quantile(0.5); got != 5 {
		t.Errorf("single-sample p50 = %g, want midpoint 5", got)
	}
}

func TestSnapshotAndExpositionCarryQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pier_query_seconds", "query latency", []float64{0.001, 0.01, 0.1})
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	snap := r.Snapshot()
	hs, ok := snap["pier_query_seconds"].(map[string]interface{})
	if !ok {
		t.Fatalf("histogram snapshot entry = %#v", snap["pier_query_seconds"])
	}
	for _, key := range []string{"p50", "p95", "p99"} {
		v, ok := hs[key].(float64)
		if !ok {
			t.Fatalf("snapshot missing %s: %#v", key, hs)
		}
		if v <= 0.001 || v > 0.01 {
			t.Errorf("snapshot %s = %g, want in (0.001, 0.01]", key, v)
		}
	}
	// The Prometheus exposition carries the full bucket series the server-side
	// quantile estimator needs.
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`pier_query_seconds_bucket{le="0.001"} 0`,
		`pier_query_seconds_bucket{le="0.01"} 100`,
		`pier_query_seconds_bucket{le="+Inf"} 100`,
		"pier_query_seconds_count 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}
