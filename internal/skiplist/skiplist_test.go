package skiplist

import (
	"math/rand"
	"sort"
	"testing"
)

func intLess(a, b int) bool { return a < b }

func drain(l *List[int]) []int {
	var out []int
	for n := l.First(); n != nil; n = n.Next() {
		out = append(out, n.Key)
	}
	return out
}

func TestInsertSortedOrder(t *testing.T) {
	l := New(intLess, 1)
	for _, x := range []int{5, 1, 9, 3, 7, 3, 3} {
		l.Insert(x)
	}
	got := drain(l)
	want := []int{1, 3, 3, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if l.Len() != 7 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestEmptyList(t *testing.T) {
	l := New(intLess, 1)
	if l.First() != nil || l.Len() != 0 {
		t.Error("empty list not empty")
	}
}

func TestPrevChain(t *testing.T) {
	l := New(intLess, 3)
	for _, x := range []int{3, 1, 2} {
		l.Insert(x)
	}
	// Walk backward from the last node.
	n := l.First()
	for n.Next() != nil {
		n = n.Next()
	}
	var back []int
	for ; n != nil; n = n.Prev() {
		back = append(back, n.Key)
	}
	want := []int{3, 2, 1}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("backward walk = %v, want %v", back, want)
		}
	}
}

func TestNeighborhood(t *testing.T) {
	l := New(intLess, 4)
	var nodes []*Node[int]
	for x := 0; x < 10; x++ {
		nodes = append(nodes, l.Insert(x))
	}
	before, after := Neighborhood(nodes[5], 3)
	wantBefore := []int{4, 3, 2} // nearest first
	wantAfter := []int{6, 7, 8}
	for i := range wantBefore {
		if before[i] != wantBefore[i] {
			t.Fatalf("before = %v, want %v", before, wantBefore)
		}
		if after[i] != wantAfter[i] {
			t.Fatalf("after = %v, want %v", after, wantAfter)
		}
	}
	// Edges of the list yield short neighborhoods.
	b, a := Neighborhood(nodes[0], 3)
	if len(b) != 0 || len(a) != 3 {
		t.Errorf("edge neighborhood = %v / %v", b, a)
	}
	b, a = Neighborhood(nodes[9], 2)
	if len(b) != 2 || len(a) != 0 {
		t.Errorf("edge neighborhood = %v / %v", b, a)
	}
}

func TestAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		l := New(intLess, int64(trial))
		var ref []int
		for i := 0; i < 500; i++ {
			x := rng.Intn(100)
			l.Insert(x)
			ref = append(ref, x)
		}
		sort.Ints(ref)
		got := drain(l)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: position %d = %d, want %d", trial, i, got[i], ref[i])
			}
		}
	}
}

func TestInsertionOrderStableForEqualKeys(t *testing.T) {
	type kv struct{ k, seq int }
	l := New(func(a, b kv) bool { return a.k < b.k }, 5)
	for seq := 0; seq < 5; seq++ {
		l.Insert(kv{k: 7, seq: seq})
	}
	seq := 0
	for n := l.First(); n != nil; n = n.Next() {
		if n.Key.seq != seq {
			t.Fatalf("equal keys reordered: got seq %d at position %d", n.Key.seq, seq)
		}
		seq++
	}
}

func BenchmarkInsert(b *testing.B) {
	l := New(intLess, 1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(rng.Int())
	}
}
