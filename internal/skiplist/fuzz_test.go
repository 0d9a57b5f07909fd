package skiplist

import (
	"sort"
	"testing"
)

// FuzzSkiplist drives the list with an arbitrary insert sequence decoded from
// the fuzz input and checks it against a sorted-slice reference model: element
// order, length, forward and backward link consistency, and Neighborhood
// windows.
func FuzzSkiplist(f *testing.F) {
	f.Add(int64(1), []byte{5, 3, 9, 3, 7})
	f.Add(int64(42), []byte{0, 0, 0, 255, 128, 1})
	f.Fuzz(func(t *testing.T, seed int64, values []byte) {
		l := New(func(a, b int) bool { return a < b }, seed)
		var ref []int
		for i, v := range values {
			node := l.Insert(int(v))
			if node.Key != int(v) {
				t.Fatalf("Insert(%d) returned node with key %d", v, node.Key)
			}
			at := sort.SearchInts(ref, int(v)+1) // after equal keys: insertion order
			ref = append(ref, 0)
			copy(ref[at+1:], ref[at:])
			ref[at] = int(v)

			if l.Len() != len(ref) {
				t.Fatalf("Len = %d, reference has %d", l.Len(), len(ref))
			}
			// Forward walk must reproduce the sorted reference; backward
			// links must mirror the forward ones.
			var prev *Node[int]
			n := l.First()
			for j := 0; j < len(ref); j++ {
				if n == nil {
					t.Fatalf("list ended at position %d of %d after %d inserts", j, len(ref), i+1)
				}
				if n.Key != ref[j] {
					t.Fatalf("position %d holds %d, reference says %d", j, n.Key, ref[j])
				}
				if n.Prev() != prev {
					t.Fatalf("position %d has a broken back-link", j)
				}
				prev, n = n, n.Next()
			}
			if n != nil {
				t.Fatalf("list longer than the %d reference elements", len(ref))
			}
			// Neighborhood windows around the newest node: nearest-first on
			// both sides, never exceeding the window or the list bounds.
			for _, w := range []int{0, 1, 3} {
				before, after := Neighborhood(node, w)
				if len(before) > w || len(after) > w {
					t.Fatalf("Neighborhood(w=%d) returned %d/%d keys", w, len(before), len(after))
				}
				p := node.Prev()
				for _, k := range before {
					if p == nil || p.Key != k {
						t.Fatalf("Neighborhood before-window disagrees with back-links")
					}
					p = p.Prev()
				}
				nn := node.Next()
				for _, k := range after {
					if nn == nil || nn.Key != k {
						t.Fatalf("Neighborhood after-window disagrees with forward links")
					}
					nn = nn.Next()
				}
			}
		}
	})
}
