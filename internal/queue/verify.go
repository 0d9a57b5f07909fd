package queue

import "fmt"

// Verify checks the interval-heap representation invariants and returns the
// first violation found, or nil. The invariants (van Leeuwen & Wood):
//
//  1. Node order: within each two-element node (positions 2k, 2k+1), the even
//     slot is not greater than the odd slot.
//  2. Min-heap path: each node's even slot is not less than its parent's even
//     slot.
//  3. Max-heap path: each node's odd slot (or its only element, for the last
//     single-element node) is not greater than its parent's odd slot.
//
// Verify is O(n); the correctness harness and the fuzz targets call it after
// every mutation, and builds with the pierdebug tag call it from Push/Pop.
func (q *DEPQ[T]) Verify() error {
	n := len(q.a)
	for i := 0; i < n; i++ {
		if i%2 == 1 && q.less(q.a[i], q.a[i-1]) {
			return fmt.Errorf("queue: interval heap node %d inverted: max slot %d < min slot %d", i/2, i, i-1)
		}
		if i < 2 {
			continue
		}
		pmin := 2 * ((i/2 - 1) / 2)
		pmax := pmin + 1
		if q.less(q.a[i], q.a[pmin]) {
			return fmt.Errorf("queue: interval heap position %d below parent min %d", i, pmin)
		}
		if pmax < n && q.less(q.a[pmax], q.a[i]) {
			return fmt.Errorf("queue: interval heap position %d above parent max %d", i, pmax)
		}
	}
	return nil
}

// Verify checks the bounded queue's invariants: the backing interval heap is
// well-formed, an unread bulk load is sorted and never sits beside heap
// elements, and the length does not exceed the configured capacity.
func (b *Bounded[T]) Verify() error {
	if b.capacity > 0 && b.Len() > b.capacity {
		return fmt.Errorf("queue: bounded queue holds %d > capacity %d", b.Len(), b.capacity)
	}
	if len(b.run) > 0 && b.depq.Len() > 0 {
		return fmt.Errorf("queue: bounded queue holds a run of %d beside %d heap elements", len(b.run), b.depq.Len())
	}
	for i := 1; i < len(b.run); i++ {
		if b.depq.less(b.run[i], b.run[i-1]) {
			return fmt.Errorf("queue: bulk-loaded run out of order at position %d", i)
		}
	}
	return b.depq.Verify()
}

// Verify checks the binary-heap invariant: no child orders before its parent.
func (h *Heap[T]) Verify() error {
	for i := 1; i < len(h.a); i++ {
		p := (i - 1) / 2
		if h.less(h.a[i], h.a[p]) {
			return fmt.Errorf("queue: heap position %d orders before parent %d", i, p)
		}
	}
	return nil
}

// mustVerify panics on an invariant violation; it is the pierdebug-tag hook
// wired into the mutating operations.
func (q *DEPQ[T]) mustVerify(op string) {
	if err := q.Verify(); err != nil {
		panic(fmt.Sprintf("queue: invariant violated after %s: %v", op, err))
	}
}
