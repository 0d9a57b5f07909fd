package queue

// Checkpointing support: the strategies' comparison indexes must survive a
// process restart byte-for-byte, or a restored run would emit a different
// comparison order than the uninterrupted one (the recovery-equivalence
// guarantee of internal/check). Each queue exposes its backing array
// verbatim: an interval heap and a binary heap are both plain slices whose
// layout encodes the heap invariants, so restoring the exact slice restores
// the exact dequeue order with no re-heapification.

// Snapshot returns a copy of the queue's backing array in heap layout. The
// slice is only meaningful to Restore on a queue with the same ordering
// function; it is not sorted.
func (q *DEPQ[T]) Snapshot() []T {
	return append([]T(nil), q.a...)
}

// Restore replaces the queue's contents with a slice previously returned by
// Snapshot (on a queue with the same ordering function). The interval-heap
// invariants are a property of the layout, so they hold by construction;
// under debug builds they are re-verified.
func (q *DEPQ[T]) Restore(a []T) {
	q.a = append(q.a[:0], a...)
	if debugChecks {
		q.mustVerify("Restore")
	}
}

// Snapshot returns a copy of the bounded queue's backing interval heap,
// after folding an unread bulk load into it.
func (b *Bounded[T]) Snapshot() []T {
	b.fold()
	return b.depq.Snapshot()
}

// Restore replaces the bounded queue's contents with a slice previously
// returned by Snapshot. The configured capacity is unchanged.
func (b *Bounded[T]) Restore(a []T) {
	b.run = b.run[:0]
	b.depq.Restore(a)
}

// Snapshot returns a copy of the heap's backing array in heap layout.
func (h *Heap[T]) Snapshot() []T {
	return append([]T(nil), h.a...)
}

// Restore replaces the heap's contents with a slice previously returned by
// Snapshot (on a heap with the same ordering function).
func (h *Heap[T]) Restore(a []T) {
	h.a = append(h.a[:0], a...)
}
