package queue

import "slices"

// Bounded is a bounded best-first priority queue: PopBest returns the element
// that orders *greatest* under less (the "best" comparison), and Push into a
// full queue keeps only the best capacity elements, discarding the least one.
//
// All PIER CmpIndex variants in the paper are "bounded priority queues"; this
// type is their shared backbone. A capacity <= 0 means unbounded.
//
// PushAll into an empty queue skips the heap: it sorts the elements once and
// serves PopBest from the sorted run. When cmp is a total order over the
// queued elements, every operation returns what the same elements pushed one
// by one would have returned.
type Bounded[T any] struct {
	depq     DEPQ[T]
	capacity int
	// run is a bulk load not yet popped, sorted ascending under cmp, so
	// PopBest takes from its end. While it is non-empty depq is empty.
	run []T
}

// NewBounded returns a bounded best-first queue with the given capacity and
// order. cmp(a, b) must be negative when a has strictly lower priority than
// b, zero when they tie and positive otherwise.
func NewBounded[T any](capacity int, cmp func(a, b T) int) *Bounded[T] {
	b := &Bounded[T]{}
	b.Init(capacity, cmp)
	return b
}

// Init initializes b in place as an empty queue with the given capacity and
// order — the value-embedding alternative to NewBounded for callers holding
// many queues (one heap object for the enclosing struct instead of three).
func (b *Bounded[T]) Init(capacity int, cmp func(a, b T) int) {
	*b = Bounded[T]{capacity: capacity}
	b.depq.cmp = cmp
}

// Len returns the number of queued elements.
func (b *Bounded[T]) Len() int { return b.depq.Len() + len(b.run) }

// Push inserts x. If the queue is full, the least element among the queued
// ones and x is dropped and returned with dropped == true (x itself may be
// the dropped element, in which case the queue is unchanged).
func (b *Bounded[T]) Push(x T) (dropped T, wasDropped bool) {
	b.fold()
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

// PushAll inserts every element of xs, keeping the best capacity of them as
// Push would. Into an empty queue it sorts once instead of sifting each
// element through the heap; xs is copied, never retained.
func (b *Bounded[T]) PushAll(xs []T) {
	if b.Len() > 0 {
		for _, x := range xs {
			b.Push(x)
		}
		return
	}
	run := append(b.run[:0], xs...)
	slices.SortFunc(run, b.depq.cmp)
	if b.capacity > 0 && len(run) > b.capacity {
		run = run[:copy(run, run[len(run)-b.capacity:])]
	}
	b.run = run
}

// PopBest removes and returns the highest-priority element.
func (b *Bounded[T]) PopBest() (T, bool) {
	if n := len(b.run); n > 0 {
		best := b.run[n-1]
		var zero T
		b.run[n-1] = zero // release references for GC
		b.run = b.run[:n-1]
		return best, true
	}
	return b.depq.PopMax()
}

// PeekBest returns the highest-priority element without removing it.
func (b *Bounded[T]) PeekBest() (T, bool) {
	if n := len(b.run); n > 0 {
		return b.run[n-1], true
	}
	return b.depq.Max()
}

// fold moves the unread run into the interval heap, which every operation
// other than PopBest and PeekBest works on.
func (b *Bounded[T]) fold() {
	for _, x := range b.run {
		b.depq.Push(x)
	}
	clear(b.run)
	b.run = b.run[:0]
}
