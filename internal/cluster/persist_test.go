package cluster

import (
	"reflect"
	"testing"
	"time"
)

func TestStateRoundTrip(t *testing.T) {
	s := New()
	s.Merge(1, 2)
	s.Merge(2, 3)
	s.Merge(7, 8)
	s.Find(9)
	r, err := Restore(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.State(), s.State()) {
		t.Errorf("restored state %+v, want %+v", r.State(), s.State())
	}
	if !reflect.DeepEqual(r.Clusters(1), s.Clusters(1)) {
		t.Errorf("restored clusters %v, want %v", r.Clusters(1), s.Clusters(1))
	}
	if r.Merge(3, 8) != s.Merge(3, 8) || r.Find(8) != s.Find(8) {
		t.Error("restored set merges differently")
	}
}

// deepChain is a one-tree forest whose chain is n members long, deeper than
// union by size builds a tree of n members once n exceeds maxHeight.
func deepChain(n int) State {
	st := State{Parent: map[int]int{0: 0}, Size: map[int]int{0: n}, Clusters: 1}
	for i := 1; i < n; i++ {
		st.Parent[i] = i - 1
	}
	return st
}

// TestRestoreRejectsBadImages: every image no Set can produce fails Restore
// with an error, within a deadline — a parent cycle must not hang it.
func TestRestoreRejectsBadImages(t *testing.T) {
	cases := []struct {
		name string
		st   State
	}{
		{"cycle", State{Parent: map[int]int{1: 2, 2: 1}, Size: map[int]int{}, Clusters: 0}},
		{"cycle below a root", State{Parent: map[int]int{0: 0, 1: 2, 2: 3, 3: 1}, Size: map[int]int{0: 4}, Clusters: 1}},
		{"negative member", State{Parent: map[int]int{-1: -1}, Size: map[int]int{-1: 1}, Clusters: 1}},
		{"negative parent", State{Parent: map[int]int{1: -2, -2: -2}, Size: map[int]int{-2: 2}, Clusters: 1}},
		{"parent not a member", State{Parent: map[int]int{1: 5}, Size: map[int]int{5: 1}, Clusters: 1}},
		{"size on a non-root", State{Parent: map[int]int{1: 1, 2: 1}, Size: map[int]int{1: 2, 2: 1}, Clusters: 1}},
		{"root without a size", State{Parent: map[int]int{1: 1, 2: 2}, Size: map[int]int{1: 1}, Clusters: 2}},
		{"wrong size", State{Parent: map[int]int{1: 1, 2: 1}, Size: map[int]int{1: 3}, Clusters: 1}},
		{"sizes do not sum", State{Parent: map[int]int{1: 1, 2: 1, 3: 3}, Size: map[int]int{1: 1, 3: 1}, Clusters: 2}},
		{"size on a missing root", State{Parent: map[int]int{1: 1, 2: 1}, Size: map[int]int{0: 2}, Clusters: 1}},
		{"chain too deep", deepChain(maxHeight + 2)},
		{"wrong cluster count", State{Parent: map[int]int{1: 1, 2: 1}, Size: map[int]int{1: 2}, Clusters: 2}},
		{"size without members", State{Parent: map[int]int{}, Size: map[int]int{4: 1}, Clusters: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := Restore(tc.st)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("Restore(%+v) succeeded, want an error", tc.st)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Restore(%+v) did not return within 5s", tc.st)
			}
		})
	}
}
