package core

import (
	"fmt"
	"testing"
	"time"

	"pier/internal/blocking"
	"pier/internal/dataset"
	"pier/internal/profile"
)

// skewedIncrement builds one increment whose per-profile generation cost is
// zipf-skewed the way real vocabularies are: a handful of hot profiles share
// very popular tokens (huge blocks, many candidates), the long tail shares
// almost nothing. Static contiguous chunking puts neighboring hot profiles in
// the same chunk; the dynamic scheduler must not care.
func skewedIncrement(n int) []*profile.Profile {
	out := make([]*profile.Profile, n)
	for i := 0; i < n; i++ {
		// Mid-popularity token shared by groups of 16 — also each profile's
		// smallest block, so ghosting (β=0.2 keeps |b| ≤ 5·|b_min|) retains
		// the hot blocks below instead of dropping everything.
		val := fmt.Sprintf("grp%d", i/16)
		// Hot cluster: the first eighth of profiles all share two hot tokens.
		if i < n/8 {
			val += " hotalpha hotbeta"
		}
		out[i] = profile.New(i, profile.SourceA, "", "attr", val)
	}
	return out
}

// genFor indexes the increment into a fresh collection and returns a
// generator with the given parallelism plus the indexed collection.
func genFor(t *testing.T, inc []*profile.Profile, parallelism int) (*generator, *blocking.Collection) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Parallelism = parallelism
	col := blocking.NewCollection(false, 0)
	for _, p := range inc {
		col.Add(p)
	}
	return newGenerator(cfg), col
}

// TestCandidatesDeterministicAcrossParallelism pins the tentpole determinism
// contract: the merged comparison list and the modeled cost are bit-for-bit
// identical for Parallelism 1, 2 and 8 on a zipf-skewed increment — the
// dynamic scheduler balances load without perturbing emission order.
func TestCandidatesDeterministicAcrossParallelism(t *testing.T) {
	inc := skewedIncrement(512)
	gBase, colBase := genFor(t, inc, 1)
	base, baseCost := gBase.candidates(colBase, inc)
	if len(base) == 0 {
		t.Fatal("serial run generated no comparisons; test data is broken")
	}
	for _, par := range []int{2, 8} {
		g, col := genFor(t, inc, par)
		got, cost := g.candidates(col, inc)
		if cost != baseCost {
			t.Fatalf("parallelism %d: cost %v, serial %v", par, cost, baseCost)
		}
		if len(got) != len(base) {
			t.Fatalf("parallelism %d: %d comparisons, serial %d", par, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d: comparison %d = %+v, serial %+v", par, i, got[i], base[i])
			}
		}
	}
}

// TestCandidatesDeterministicOnDataset repeats the determinism pin on a real
// generated dataset (zipf-skewed vocabulary from internal/dataset).
func TestCandidatesDeterministicOnDataset(t *testing.T) {
	ds := dataset.Movies(0.05, 3)
	inc := ds.Increments(1)[0]
	gBase, colBase := genFor(t, inc, 1)
	base, baseCost := gBase.candidates(colBase, inc)
	for _, par := range []int{2, 8} {
		g, col := genFor(t, inc, par)
		got, cost := g.candidates(col, inc)
		if cost != baseCost || len(got) != len(base) {
			t.Fatalf("parallelism %d: (%d cmps, cost %v), serial (%d, %v)",
				par, len(got), cost, len(base), baseCost)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("parallelism %d: comparison %d diverged", par, i)
			}
		}
	}
}

// perProfileCosts extracts each profile's modeled generation cost through a
// serial generator — the ground truth the balance simulation schedules.
func perProfileCosts(t *testing.T, inc []*profile.Profile) []time.Duration {
	t.Helper()
	g, col := genFor(t, inc, 1)
	costs := make([]time.Duration, len(inc))
	sc := &g.scratchFor(1)[0]
	prev := time.Duration(0)
	for i, p := range inc {
		g.perProfile(sc, col, p)
		costs[i] = sc.cost - prev
		prev = sc.cost
	}
	return costs
}

// TestDynamicSchedulingBalancesSkew asserts the scheduling *policy* the pool
// implements — each idle worker pulls the next profile index — keeps every
// worker within 2× its fair share of modeled cost on the zipf-skewed
// increment, while static contiguous chunking (the pre-dynamic scheduler)
// does not get that guarantee. The policy is simulated with a virtual clock
// (greedy list scheduling, the idealization of counter-pulling with real
// durations) because on an arbitrarily-scheduled test machine the actual
// per-worker assignment is timing-dependent; the determinism tests above pin
// the real implementation's output, this test pins the balance property of
// its assignment rule.
func TestDynamicSchedulingBalancesSkew(t *testing.T) {
	const workers = 8
	inc := skewedIncrement(512)
	costs := perProfileCosts(t, inc)

	var total, maxItem time.Duration
	for _, c := range costs {
		total += c
		if c > maxItem {
			maxItem = c
		}
	}
	fair := total / workers
	if maxItem > fair {
		t.Fatalf("test data broken: max per-profile cost %v exceeds fair share %v — no scheduler could balance it", maxItem, fair)
	}

	// Dynamic pull: the next index goes to the worker that frees up first.
	var loads [workers]time.Duration
	for _, c := range costs {
		minW := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[minW] {
				minW = w
			}
		}
		loads[minW] += c
	}
	maxDyn := time.Duration(0)
	for _, l := range loads {
		if l > maxDyn {
			maxDyn = l
		}
	}
	if maxDyn > 2*fair {
		t.Fatalf("dynamic scheduling: worst worker %v exceeds 2× fair share %v", maxDyn, fair)
	}

	// Static contiguous chunking, for the record: the hot profiles are
	// clustered at the front, so the first chunk absorbs nearly all of them.
	chunk := (len(costs) + workers - 1) / workers
	maxStatic := time.Duration(0)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(costs) {
			hi = len(costs)
		}
		var sum time.Duration
		for _, c := range costs[lo:hi] {
			sum += c
		}
		if sum > maxStatic {
			maxStatic = sum
		}
	}
	t.Logf("fair share %v; dynamic worst %v (%.2fx fair); static worst %v (%.2fx fair)",
		fair, maxDyn, float64(maxDyn)/float64(fair), maxStatic, float64(maxStatic)/float64(fair))
	if maxDyn > maxStatic {
		t.Fatalf("dynamic scheduling (%v) lost to static chunking (%v) on skewed data", maxDyn, maxStatic)
	}
}
