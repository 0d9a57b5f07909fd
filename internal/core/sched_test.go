package core

import (
	"fmt"
	"testing"

	"pier/internal/blocking"
	"pier/internal/dataset"
	"pier/internal/profile"
)

// skewedIncrement builds one increment whose per-profile generation cost is
// zipf-skewed the way real vocabularies are: a handful of hot profiles share
// very popular tokens (huge blocks, many candidates), the long tail shares
// almost nothing.
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

// TestCandidatesDeterministicAcrossParallelism pins that Config.Parallelism
// has no effect on candidate generation: the comparison list and the modeled
// cost are bit-for-bit identical for Parallelism 1, 2 and 8 on a zipf-skewed
// increment.
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
