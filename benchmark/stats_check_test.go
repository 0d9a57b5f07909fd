package benchmark

import (
	"math"
	"strings"
	"testing"
)

// Every expected value below was worked out by hand (or, for quartiles, with
// Python's statistics.quantiles, the function the driver uses).

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileIsNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50},   // ceil(5.0) = 5th value
		{0.51, 60},  // ceil(5.1) = 6th
		{0.9, 90},   // 9th
		{0.99, 100}, // ceil(9.9) = 10th
		{1, 100},
		{0.01, 10}, // ceil(0.1) = 1st
	} {
		if got := percentile(asc, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1,2,3,4,5], n=4) = [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([1,3], n=4) = [0.5, 2.0, 3.5]: the exclusive
		// method extrapolates on two points.
		{[]float64{1, 3}, 0.5, 2, 3.5},
		// statistics.quantiles([2,4,4,5,7,9,11], n=4) = [4.0, 5.0, 9.0]
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 5, 9},
		{[]float64{42}, 42, 42, 42},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean([]float64{3, 1, 2, 10}); !near(got, 4) {
		t.Errorf("mean = %v, want 4", got)
	}
	// spread = (8.25 - 2.75) / 5.5 = 1
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of a constant sample = %v, want 0", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, // 20*(1-0.9) = 2 beyond p90: not enough
		{99, 0.5}, {100, 0.9}, // 100*0.1 = 10 beyond p90
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestStepAUC(t *testing.T) {
	// Four ground-truth pairs, budget 10: found at 2, 4, 6 and 12 (beyond the
	// budget). Area = 0.25*(8 + 6 + 4) = 4.5; normalised 0.45.
	if got := stepAUC([]float64{2, 4, 6, 12}, 0.25, 10); !near(got, 0.45) {
		t.Errorf("stepAUC = %v, want 0.45", got)
	}
	// Everything found at once is the whole area; nothing found is none.
	if got := stepAUC([]float64{0, 0}, 0.5, 7); !near(got, 1) {
		t.Errorf("stepAUC of an immediate curve = %v, want 1", got)
	}
	if got := stepAUC(nil, 0.5, 7); got != 0 {
		t.Errorf("stepAUC of an empty curve = %v, want 0", got)
	}
	// A curve that ends at 0.5 after 1 of 4 units extends flat: 0.5*3/4.
	if got := stepAUC([]float64{1}, 0.5, 4); !near(got, 0.375) {
		t.Errorf("stepAUC of a short curve = %v, want 0.375", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "replay.run", Parent: -1, Start: 0, End: 100},
		{Name: "replay.increment", Parent: 0, Start: 10, End: 60},
		{Name: "blocking.add", Parent: 1, Start: 10, End: 30},
		{Name: "core.update_index", Parent: 1, Start: 35, End: 55},
		{Name: "replay.increment", Parent: 0, Start: 60, End: 95},
		{Name: "blocking.add", Parent: 4, Start: 62, End: 92},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{15, 10, 20, 20, 5, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	total, count := spanSums(spans, self)
	if total["blocking.add"] != 50 || count["blocking.add"] != 2 || total["replay.increment"] != 15 {
		t.Errorf("spanSums = %v %v", total, count)
	}
	// Sum of the layer spans' self times plus the containers' (the residual)
	// is the root's wall time.
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum != spans[0].dur() {
		t.Errorf("self times add up to %d, wall is %d", sum, spans[0].dur())
	}
}

func TestSelfTimesRejectBrokenNesting(t *testing.T) {
	for name, spans := range map[string][]span{
		"leaves its parent": {
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 5, End: 12},
		},
		"overlaps an earlier child": {
			{Name: "a", Parent: -1, Start: 0, End: 10},
			{Name: "b", Parent: 0, Start: 1, End: 6},
			{Name: "c", Parent: 0, Start: 5, End: 9},
		},
		"does not precede": {
			{Name: "a", Parent: 1, Start: 0, End: 10},
			{Name: "b", Parent: -1, Start: 0, End: 10},
		},
		"ends before it starts": {
			{Name: "a", Parent: -1, Start: 10, End: 0},
		},
	} {
		if _, err := selfTimes(spans); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got error %v", name, err)
		}
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := metricDef{Name: "t", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	wide := func(center float64) []float64 {
		return []float64{center * 0.7, center * 0.8, center, center * 1.2, center * 1.3, center}
	}
	for _, tc := range []struct {
		name         string
		def          metricDef
		base, change []float64
		want         verdict
	}{
		{"within the bound", lower, tight(100), tight(105), unchanged},
		{"slower by more than the bound", lower, tight(100), tight(115), regressed},
		{"faster by more than the bound", lower, tight(100), tight(85), improved},
		{"a rate that fell is worse", higher, tight(100), tight(85), regressed},
		{"a rate that rose is better", higher, tight(100), tight(115), improved},
		{"spread wider than the bound", lower, wide(100), wide(104), unresolved},
		{"wide, but every run beats every run", lower, wide(100), tight(60), improved},
		{"wide, and every run loses to every run", lower, tight(60), wide(100), regressed},
	} {
		if got := compareMetric(tc.def, "w", tc.base, tc.change).Verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
