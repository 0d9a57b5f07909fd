package queue

import (
	"math/rand"
	"sort"
	"testing"
)

func TestBoundedKeepsTopK(t *testing.T) {
	b := NewBounded(3, intLess)
	for _, x := range []int{5, 1, 9, 3, 7, 2, 8} {
		b.Push(x)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	var got []int
	for {
		v, ok := b.PopBest()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{9, 8, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestBoundedDropReporting(t *testing.T) {
	b := NewBounded(2, intLess)
	if _, dropped := b.Push(10); dropped {
		t.Error("first push reported a drop")
	}
	if _, dropped := b.Push(20); dropped {
		t.Error("second push reported a drop")
	}
	// Queue full with {10, 20}. Pushing 5 must drop 5 itself.
	if d, dropped := b.Push(5); !dropped || d != 5 {
		t.Errorf("Push(5) dropped %d,%v; want 5,true", d, dropped)
	}
	// Pushing 15 must evict 10.
	if d, dropped := b.Push(15); !dropped || d != 10 {
		t.Errorf("Push(15) dropped %d,%v; want 10,true", d, dropped)
	}
	if v, _ := b.PeekBest(); v != 20 {
		t.Errorf("PeekBest = %d, want 20", v)
	}
	if v, _ := b.depq.Min(); v != 15 {
		t.Errorf("PeekWorst = %d, want 15", v)
	}
}

func TestBoundedUnbounded(t *testing.T) {
	b := NewBounded(0, intLess)
	for i := 0; i < 1000; i++ {
		if _, dropped := b.Push(i); dropped {
			t.Fatal("unbounded queue dropped an element")
		}
	}
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
	if b.capacity != 0 {
		t.Fatalf("Cap = %d, want 0", b.capacity)
	}
}

// TestBoundedMatchesReference checks bounded top-K retention against a sorted
// reference on random inputs.
func TestBoundedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		capacity := 1 + rng.Intn(20)
		n := rng.Intn(200)
		b := NewBounded(capacity, intLess)
		var all []int
		for i := 0; i < n; i++ {
			x := rng.Intn(1000)
			b.Push(x)
			all = append(all, x)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(all)))
		keep := len(all)
		if keep > capacity {
			keep = capacity
		}
		if b.Len() != keep {
			t.Fatalf("trial %d: Len = %d, want %d", trial, b.Len(), keep)
		}
		for i := 0; i < keep; i++ {
			v, ok := b.PopBest()
			if !ok || v != all[i] {
				t.Fatalf("trial %d: PopBest #%d = %d,%v want %d", trial, i, v, ok, all[i])
			}
		}
	}
}

func TestHeapOrdering(t *testing.T) {
	h := NewHeap(intLess)
	in := []int{9, 4, 7, 1, 8, 1, 0, 5}
	for _, x := range in {
		h.Push(x)
	}
	if h.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(in))
	}
	sorted := append([]int(nil), in...)
	sort.Ints(sorted)
	for i, want := range sorted {
		if v, ok := h.Pop(); !ok || v != want {
			t.Fatalf("Pop #%d = %d,%v want %d", i, v, ok, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap reported ok")
	}
}

func TestHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		h := NewHeap(intLess)
		ref := make([]int, n)
		for i := range ref {
			ref[i] = rng.Int()
			h.Push(ref[i])
		}
		sort.Ints(ref)
		for _, want := range ref {
			if v, _ := h.Pop(); v != want {
				t.Fatalf("trial %d: pop = %d want %d", trial, v, want)
			}
		}
	}
}

func BenchmarkDEPQPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := NewDEPQ(intLess)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Int())
		if q.Len() > 1024 {
			q.PopMax()
			q.PopMin()
		}
	}
}

func BenchmarkBoundedPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := NewBounded(1024, intLess)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(rng.Int())
	}
}
