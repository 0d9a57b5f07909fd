// Package queue provides the priority-queue machinery used by all PIER
// prioritization strategies: a generic binary heap, a generic double-ended
// priority queue (interval heap), and a bounded best-first queue built on it.
//
// The paper's CmpIndex implementations require a *bounded* priority queue:
// dequeue must return the best (highest-priority) element, while inserts into
// a full queue must evict the worst element in O(log n). An interval heap
// supports both ends in logarithmic time with a single backing array.
package queue

// DEPQ is a double-ended priority queue implemented as an interval heap
// (van Leeuwen & Wood). cmp defines the total order, three-way: cmp(a, b)
// is negative when a orders strictly before b, zero when they tie and
// positive otherwise. Min/PopMin operate on the least element under this
// order, Max/PopMax on the greatest.
//
// The zero value is not usable; construct with NewDEPQ.
type DEPQ[T any] struct {
	cmp func(a, b T) int
	a   []T
}

// NewDEPQ returns an empty double-ended priority queue ordered by cmp.
func NewDEPQ[T any](cmp func(a, b T) int) *DEPQ[T] {
	return &DEPQ[T]{cmp: cmp}
}

// less reports whether a orders strictly before b.
func (q *DEPQ[T]) less(a, b T) bool { return q.cmp(a, b) < 0 }

// Len returns the number of elements in the queue.
func (q *DEPQ[T]) Len() int { return len(q.a) }

// Min returns the least element without removing it.
func (q *DEPQ[T]) Min() (T, bool) {
	if len(q.a) == 0 {
		var zero T
		return zero, false
	}
	return q.a[0], true
}

// Max returns the greatest element without removing it.
func (q *DEPQ[T]) Max() (T, bool) {
	switch len(q.a) {
	case 0:
		var zero T
		return zero, false
	case 1:
		return q.a[0], true
	default:
		return q.a[1], true
	}
}

// Push inserts x.
func (q *DEPQ[T]) Push(x T) {
	if debugChecks {
		defer q.mustVerify("Push")
	}
	q.a = append(q.a, x)
	i := len(q.a) - 1
	if i == 0 {
		return
	}
	if i%2 == 1 {
		// x completes node i/2; order the pair, then sift the changed end.
		if q.less(q.a[i], q.a[i-1]) {
			q.swap(i, i-1)
			q.siftUpMin(i - 1)
		} else {
			q.siftUpMax(i)
		}
		return
	}
	// x starts a new single-element node; compare against the parent interval.
	p := (i/2 - 1) / 2
	pmin, pmax := 2*p, 2*p+1
	switch {
	case q.less(q.a[i], q.a[pmin]):
		q.swap(i, pmin)
		q.siftUpMin(pmin)
	case q.less(q.a[pmax], q.a[i]):
		q.swap(i, pmax)
		q.siftUpMax(pmax)
	}
}

// PopMin removes and returns the least element.
func (q *DEPQ[T]) PopMin() (T, bool) {
	if debugChecks {
		defer q.mustVerify("PopMin")
	}
	n := len(q.a)
	if n == 0 {
		var zero T
		return zero, false
	}
	min := q.a[0]
	q.a[0] = q.a[n-1]
	var zero T
	q.a[n-1] = zero // release reference for GC
	q.a = q.a[:n-1]
	if len(q.a) > 0 {
		q.siftDownMin(0)
	}
	return min, true
}

// PopMax removes and returns the greatest element.
func (q *DEPQ[T]) PopMax() (T, bool) {
	if debugChecks {
		defer q.mustVerify("PopMax")
	}
	n := len(q.a)
	var zero T
	switch n {
	case 0:
		return zero, false
	case 1:
		max := q.a[0]
		q.a[0] = zero
		q.a = q.a[:0]
		return max, true
	}
	max := q.a[1]
	q.a[1] = q.a[n-1]
	q.a[n-1] = zero
	q.a = q.a[:n-1]
	if len(q.a) > 1 {
		q.siftDownMax(1)
	}
	return max, true
}

func (q *DEPQ[T]) swap(i, j int) { q.a[i], q.a[j] = q.a[j], q.a[i] }

// siftUpMin restores the min-side path invariant from even position i upward.
func (q *DEPQ[T]) siftUpMin(i int) {
	for i >= 2 {
		p := 2 * ((i/2 - 1) / 2)
		if !q.less(q.a[i], q.a[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// siftUpMax restores the max-side path invariant from odd position i upward.
func (q *DEPQ[T]) siftUpMax(i int) {
	for i >= 3 {
		p := 2*((i/2-1)/2) + 1
		if !q.less(q.a[p], q.a[i]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// siftDownMin trickles the element at even position i down the min side,
// fixing node-interval order at every visited node.
func (q *DEPQ[T]) siftDownMin(i int) {
	n := len(q.a)
	for {
		if i+1 < n && q.less(q.a[i+1], q.a[i]) {
			q.swap(i, i+1)
		}
		k := i / 2
		c1, c2 := 2*(2*k+1), 2*(2*k+2)
		m := -1
		if c1 < n {
			m = c1
		}
		if c2 < n && q.less(q.a[c2], q.a[c1]) {
			m = c2
		}
		if m < 0 || !q.less(q.a[m], q.a[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// siftDownMax trickles the element at odd position i down the max side,
// fixing node-interval order at every visited node. A child node that holds a
// single element contributes that element (at its even position) as its max.
func (q *DEPQ[T]) siftDownMax(i int) {
	n := len(q.a)
	for {
		if i%2 == 1 && q.less(q.a[i], q.a[i-1]) {
			q.swap(i, i-1)
		}
		k := i / 2
		m := -1
		for _, base := range [2]int{2 * (2*k + 1), 2 * (2*k + 2)} {
			if base >= n {
				continue
			}
			pos := base
			if base+1 < n {
				pos = base + 1
			}
			if m < 0 || q.less(q.a[m], q.a[pos]) {
				m = pos
			}
		}
		if m < 0 || !q.less(q.a[i], q.a[m]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}
