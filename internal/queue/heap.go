package queue

// Heap is a plain generic binary heap. Pop returns the element that orders
// *least* under less; to obtain a max-heap, invert the comparison. It is used
// where only one end is needed (e.g. the block cardinality index of I-PBS and
// the EntityQueue of I-PES) and a double-ended queue would be overkill.
type Heap[T any] struct {
	less func(a, b T) bool
	a    []T
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.a) }

// Push inserts x.
func (h *Heap[T]) Push(x T) {
	h.a = append(h.a, x)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// Pop removes and returns the top (least) element.
func (h *Heap[T]) Pop() (T, bool) {
	n := len(h.a)
	if n == 0 {
		var zero T
		return zero, false
	}
	top := h.a[0]
	h.a[0] = h.a[n-1]
	var zero T
	h.a[n-1] = zero
	h.a = h.a[:n-1]
	n--
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.a[c+1], h.a[c]) {
			c++
		}
		if !h.less(h.a[c], h.a[i]) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top, true
}
