package metrics

import (
	"testing"
	"time"

	"pier/internal/profile"
)

func gtSet(pairs ...[2]int) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for _, p := range pairs {
		out[profile.PairKey(p[0], p[1])] = struct{}{}
	}
	return out
}

func TestRecorderCountsGroundTruthOnce(t *testing.T) {
	gt := gtSet([2]int{1, 2}, [2]int{3, 4})
	r := NewRecorder(gt, 10)
	if r.Observe(time.Second, profile.PairKey(5, 6)) {
		t.Error("non-GT pair reported as new match")
	}
	if !r.Observe(2*time.Second, profile.PairKey(1, 2)) {
		t.Error("first GT observation not reported as new")
	}
	if r.Observe(3*time.Second, profile.PairKey(2, 1)) {
		t.Error("repeated GT pair reported as new again")
	}
	if st := r.State(); len(st.Found) != 1 || st.Comparisons != 3 {
		t.Errorf("found %d pairs in %d comparisons, want 1 in 3", len(st.Found), st.Comparisons)
	}
}

func TestCurvePCQueries(t *testing.T) {
	gt := gtSet([2]int{1, 2}, [2]int{3, 4}, [2]int{5, 6}, [2]int{7, 8})
	r := NewRecorder(gt, 1)
	r.Observe(1*time.Second, profile.PairKey(1, 2))
	r.Observe(2*time.Second, profile.PairKey(9, 10))
	r.Observe(3*time.Second, profile.PairKey(3, 4))
	c := r.Finish(4 * time.Second)

	if pc := c.PCAt(500 * time.Millisecond); pc != 0 {
		t.Errorf("PCAt(0.5s) = %v, want 0", pc)
	}
	if pc := c.PCAt(1 * time.Second); pc != 0.25 {
		t.Errorf("PCAt(1s) = %v, want 0.25", pc)
	}
	if pc := c.PCAt(10 * time.Second); pc != 0.5 {
		t.Errorf("PCAt(10s) = %v, want 0.5", pc)
	}
	if pc := c.PCAtComparisons(1); pc != 0.25 {
		t.Errorf("PCAtComparisons(1) = %v, want 0.25", pc)
	}
	if pc := c.PCAtComparisons(3); pc != 0.5 {
		t.Errorf("PCAtComparisons(3) = %v, want 0.5", pc)
	}
	if c.FinalPC() != 0.5 {
		t.Errorf("FinalPC = %v, want 0.5", c.FinalPC())
	}
}

func TestAUCComparisons(t *testing.T) {
	// Perfect algorithm: match on the first comparison of one pair total.
	gt := gtSet([2]int{1, 2})
	r := NewRecorder(gt, 1)
	r.Observe(time.Second, profile.PairKey(1, 2))
	for i := 0; i < 9; i++ {
		r.Observe(time.Second*time.Duration(2+i), profile.PairKey(100+i, 200))
	}
	c := r.Finish(20 * time.Second)
	if auc := c.AUCComparisons(); auc < 0.85 {
		t.Errorf("AUC = %v for immediate discovery, want ~0.9", auc)
	}
	// Worst algorithm: match only on the last comparison.
	r2 := NewRecorder(gt, 1)
	for i := 0; i < 9; i++ {
		r2.Observe(time.Second*time.Duration(i), profile.PairKey(100+i, 200))
	}
	r2.Observe(10*time.Second, profile.PairKey(1, 2))
	c2 := r2.Finish(20 * time.Second)
	if auc := c2.AUCComparisons(); auc > 0.15 {
		t.Errorf("AUC = %v for last-comparison discovery, want ~0", auc)
	}
}

func TestStreamConsumedMarkedOnce(t *testing.T) {
	r := NewRecorder(nil, 1)
	r.MarkStreamConsumed(3 * time.Second)
	r.MarkStreamConsumed(9 * time.Second)
	c := r.Finish(10 * time.Second)
	if c.StreamConsumed != 3*time.Second {
		t.Errorf("StreamConsumed = %v, want 3s", c.StreamConsumed)
	}
}

func TestSamplingThinning(t *testing.T) {
	gt := gtSet([2]int{1, 2})
	r := NewRecorder(gt, 100)
	for i := 0; i < 10_000; i++ {
		r.Observe(time.Duration(i)*time.Millisecond, profile.PairKey(10+i, 50_000))
	}
	c := r.Finish(time.Minute)
	if len(c.Samples) > 150 {
		t.Errorf("%d samples for 10k flat comparisons; thinning broken", len(c.Samples))
	}
}

func TestEmptyCurveQueries(t *testing.T) {
	c := NewRecorder(nil, 0).Finish(0)
	if c.FinalPC() != 0 || c.PCAt(time.Hour) != 0 || c.PCAtComparisons(10) != 0 || c.AUCComparisons() != 0 {
		t.Error("empty curve queries must all be 0")
	}
}

func TestPQ(t *testing.T) {
	gt := gtSet([2]int{1, 2})
	r := NewRecorder(gt, 1)
	r.Observe(time.Second, profile.PairKey(1, 2))
	r.Observe(2*time.Second, profile.PairKey(3, 4))
	r.Observe(3*time.Second, profile.PairKey(5, 6))
	r.Observe(4*time.Second, profile.PairKey(7, 8))
	c := r.Finish(5 * time.Second)
	if pq := c.PQ(); pq != 0.25 {
		t.Errorf("PQ = %v, want 0.25", pq)
	}
	if empty := (NewRecorder(nil, 1).Finish(0)); empty.PQ() != 0 {
		t.Error("empty PQ must be 0")
	}
}
