package queue

import (
	"strings"
	"testing"
)

// fillDEPQ builds an interval heap with the values 0..n-1 pushed in a mixed
// order.
func fillDEPQ(n int) *DEPQ[int] {
	q := NewDEPQ(intCmp)
	for i := 0; i < n; i++ {
		q.Push((i * 7) % n)
	}
	return q
}

func TestDEPQVerifyAcceptsValidHeap(t *testing.T) {
	q := fillDEPQ(33)
	if err := q.Verify(); err != nil {
		t.Fatalf("valid interval heap rejected: %v", err)
	}
}

// TestDEPQVerifyFiresOnCorruption proves the checker can fail: each mutation
// breaks one of the three interval-heap invariants directly in the backing
// array, and Verify must report it.
func TestDEPQVerifyFiresOnCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(q *DEPQ[int])
		want    string
	}{
		{"node inversion", func(q *DEPQ[int]) { q.a[2], q.a[3] = q.a[3], q.a[2] }, "inverted"},
		{"below parent min", func(q *DEPQ[int]) { q.a[4] = q.a[0] - 1 }, "below parent min"},
		{"above parent max", func(q *DEPQ[int]) { q.a[4] = q.a[1] + 1 }, "above parent max"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := fillDEPQ(33)
			tc.corrupt(q)
			err := q.Verify()
			if err == nil {
				t.Fatal("corrupted interval heap accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("wrong violation reported: %v", err)
			}
		})
	}
}

func TestBoundedVerifyFiresOnOverCapacity(t *testing.T) {
	b := NewBounded(4, intCmp)
	for i := 0; i < 4; i++ {
		b.Push(i)
	}
	if err := b.Verify(); err != nil {
		t.Fatalf("valid bounded queue rejected: %v", err)
	}
	b.depq.Push(99) // bypass the eviction path
	if err := b.Verify(); err == nil {
		t.Fatal("over-capacity bounded queue accepted")
	}
}

func TestHeapVerifyFiresOnCorruption(t *testing.T) {
	h := NewHeap(intLess)
	for i := 0; i < 15; i++ {
		h.Push((i * 5) % 15)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("valid heap rejected: %v", err)
	}
	h.a[3] = h.a[(3-1)/2] - 1
	if err := h.Verify(); err == nil {
		t.Fatal("corrupted heap accepted")
	}
}

func TestMustVerifyPanicsOnCorruption(t *testing.T) {
	q := fillDEPQ(8)
	q.a[0], q.a[1] = q.a[1]+1, q.a[0] // invert node 0
	defer func() {
		if recover() == nil {
			t.Fatal("mustVerify did not panic on a corrupted heap")
		}
	}()
	q.mustVerify("test")
}
