// Package skiplist implements a deterministic-height-capped, randomized skip
// list used as the dynamic sorted index of the incremental sorted-
// neighborhood strategy (core.ISN). Unlike a sorted slice, inserts are
// O(log n) without shifting, and unlike a balanced tree, neighborhood scans
// — the access pattern of sorted-neighborhood ER (Ramadan et al., JDIQ 2015)
// — are simple linked-list walks at the bottom level.
package skiplist

import "math/rand"

// maxHeight bounds tower height; 2^24 elements keep expected search O(log n).
const maxHeight = 24

// Node is one element of the list. Nodes are stable: pointers returned by
// Insert remain valid for the lifetime of the list, so callers can keep them
// and walk neighborhoods later.
type Node[K any] struct {
	Key  K
	next [maxHeight]*Node[K]
	prev *Node[K] // bottom-level predecessor, for backward walks
}

// Next returns the node's bottom-level successor, or nil.
func (n *Node[K]) Next() *Node[K] { return n.next[0] }

// Prev returns the node's bottom-level predecessor, or nil.
func (n *Node[K]) Prev() *Node[K] { return n.prev }

// List is a skip list ordered by a caller-provided less function. Duplicate
// keys are allowed; equal keys preserve insertion order (a new equal key is
// placed after existing ones). Not safe for concurrent use.
type List[K any] struct {
	less   func(a, b K) bool
	head   Node[K] // sentinel; head.next[i] is the first node at level i
	height int
	length int
	rng    *rand.Rand
}

// New returns an empty list ordered by less, with deterministic tower
// randomness derived from seed (determinism matters for reproducible
// experiment runs).
func New[K any](less func(a, b K) bool, seed int64) *List[K] {
	return &List[K]{less: less, height: 1, rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of elements.
func (l *List[K]) Len() int { return l.length }

// First returns the smallest element's node, or nil.
func (l *List[K]) First() *Node[K] { return l.head.next[0] }

// randomHeight draws a tower height with P(h >= k) = 2^-(k-1).
func (l *List[K]) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(2) == 0 {
		h++
	}
	return h
}

// Insert adds key and returns its node.
func (l *List[K]) Insert(key K) *Node[K] {
	var update [maxHeight]*Node[K]
	cur := &l.head
	for level := l.height - 1; level >= 0; level-- {
		// Advance past equal keys too: new equal keys land after existing
		// ones, preserving insertion order.
		for cur.next[level] != nil && !l.less(key, cur.next[level].Key) {
			cur = cur.next[level]
		}
		update[level] = cur
	}
	h := l.randomHeight()
	if h > l.height {
		for level := l.height; level < h; level++ {
			update[level] = &l.head
		}
		l.height = h
	}
	node := &Node[K]{Key: key}
	for level := 0; level < h; level++ {
		node.next[level] = update[level].next[level]
		update[level].next[level] = node
	}
	// Maintain the bottom-level back-pointer chain.
	if update[0] != &l.head {
		node.prev = update[0]
	}
	if succ := node.next[0]; succ != nil {
		succ.prev = node
	}
	l.length++
	return node
}

// Neighborhood collects up to w keys on each side of node (excluding the
// node itself), nearest first: the sliding window of sorted-neighborhood ER.
func Neighborhood[K any](node *Node[K], w int) (before, after []K) {
	for p := node.Prev(); p != nil && len(before) < w; p = p.Prev() {
		before = append(before, p.Key)
	}
	for n := node.Next(); n != nil && len(after) < w; n = n.Next() {
		after = append(after, n.Key)
	}
	return before, after
}
