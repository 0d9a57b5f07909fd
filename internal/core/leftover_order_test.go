package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// TestLeftoverBlockPopsInLessOrder pins the leftover bulk load: a leftover
// block whose comparisons come out of the scan in shuffled order pops from
// I-PCS and I-PES in exactly the order a two-call "less" comparator sorts it,
// best first. The reference spells out the order PushAll sorted by before
// it took metablocking.Compare: weight ascending, ties by pair key
// descending.
func TestLeftoverBlockPopsInLessOrder(t *testing.T) {
	less := func(a, b metablocking.Comparison) bool {
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		return a.Key() > b.Key()
	}
	// Profiles arrive in shuffled ID order, so the block lists its members
	// (and the scan its pairs) out of key order; the mod tokens give the
	// pairs of one block two to four shared blocks, with many ties.
	col := blocking.NewCollection(false, 0)
	for _, id := range rand.New(rand.NewSource(5)).Perm(60) {
		val := fmt.Sprintf("common mthree%d mfive%d mseven%d", id%3, id%5, id%7)
		col.Add(profile.New(id, profile.SourceA, "", "attr", val))
	}
	block, _ := newGenerator(DefaultConfig()).fallbackScan(col)
	if len(block) < 20 || slices.IsSortedFunc(block, func(a, b metablocking.Comparison) int {
		return metablocking.Compare(b, a)
	}) {
		t.Fatalf("test data broken: leftover block of %d comparisons is not shuffled", len(block))
	}
	want := slices.Clone(block)
	sort.Slice(want, func(i, j int) bool { return less(want[j], want[i]) })

	for name, s := range map[string]Strategy{
		"I-PCS": NewIPCS(DefaultConfig()),
		"I-PES": NewIPES(DefaultConfig()),
	} {
		s.UpdateIndex(col, nil)
		for i, w := range want {
			got, ok := s.Dequeue()
			if !ok || got != w {
				t.Fatalf("%s: pop %d = %v (ok %v), want %v", name, i, got, ok, w)
			}
		}
	}
}
