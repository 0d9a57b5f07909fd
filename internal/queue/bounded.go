package queue

// Bounded is a bounded best-first priority queue: PopBest returns the element
// that orders *greatest* under less (the "best" comparison), and Push into a
// full queue keeps only the best capacity elements, discarding the least one.
//
// All PIER CmpIndex variants in the paper are "bounded priority queues"; this
// type is their shared backbone. A capacity <= 0 means unbounded.
type Bounded[T any] struct {
	depq     DEPQ[T]
	capacity int
}

// NewBounded returns a bounded best-first queue with the given capacity and
// order. less(a, b) must report whether a has strictly lower priority than b.
func NewBounded[T any](capacity int, less func(a, b T) bool) *Bounded[T] {
	b := &Bounded[T]{}
	b.Init(capacity, less)
	return b
}

// Init initializes b in place as an empty queue with the given capacity and
// order — the value-embedding alternative to NewBounded for callers holding
// many queues (one heap object for the enclosing struct instead of three).
func (b *Bounded[T]) Init(capacity int, less func(a, b T) bool) {
	*b = Bounded[T]{capacity: capacity}
	b.depq.less = less
}

// Len returns the number of queued elements.
func (b *Bounded[T]) Len() int { return b.depq.Len() }

// Push inserts x. If the queue is full, the least element among the queued
// ones and x is dropped and returned with dropped == true (x itself may be
// the dropped element, in which case the queue is unchanged).
func (b *Bounded[T]) Push(x T) (dropped T, wasDropped bool) {
	if b.capacity > 0 && b.depq.Len() >= b.capacity {
		worst, _ := b.depq.Min()
		if !b.depq.less(worst, x) {
			return x, true // x is no better than the current worst
		}
		dropped, _ = b.depq.PopMin()
		b.depq.Push(x)
		return dropped, true
	}
	b.depq.Push(x)
	var zero T
	return zero, false
}

// PopBest removes and returns the highest-priority element.
func (b *Bounded[T]) PopBest() (T, bool) { return b.depq.PopMax() }

// PeekBest returns the highest-priority element without removing it.
func (b *Bounded[T]) PeekBest() (T, bool) { return b.depq.Max() }
