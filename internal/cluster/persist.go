package cluster

import "fmt"

// State is the gob-encodable image of a Set. The union-find forest is
// persisted verbatim (parent pointers and root sizes), so a restored set
// reproduces the same Find representatives and Merge outcomes as the
// original — Clusters() output is identical because it sorts members.
type State struct {
	Parent   map[int]int
	Size     map[int]int
	Clusters int
}

// State returns the set's persisted image. Maps are copied.
func (s *Set) State() State {
	st := State{
		Parent:   make(map[int]int, len(s.parent)),
		Size:     make(map[int]int, len(s.size)),
		Clusters: s.clusters,
	}
	for k, v := range s.parent {
		st.Parent[k] = v
	}
	for k, v := range s.size {
		st.Size[k] = v
	}
	return st
}

// maxHeight bounds a tree of a Set: union by size keeps a tree of n members
// at most log2(n) levels high, and path compression only lowers it.
const maxHeight = 64

// Restore reconstructs the set captured by State, taking ownership of its
// maps: the caller must not use them afterwards. An image no Set can have
// produced is rejected rather than restored: Find would loop forever on a
// parent cycle, and callers index profiles by member ID. Restore checks that
// every ID is non-negative, every parent is itself a member, every chain
// reaches a root (a self-parented member) within maxHeight steps, Size holds
// exactly the roots with sizes summing to the member count, and Clusters
// counts the roots.
func Restore(st State) (*Set, error) {
	roots := 0
	for id := range st.Parent {
		if id < 0 {
			return nil, fmt.Errorf("cluster: restore: negative member ID %d", id)
		}
		for cur, steps := id, 0; ; steps++ {
			parent, ok := st.Parent[cur]
			if !ok {
				return nil, fmt.Errorf("cluster: restore: member %d's parent chain reaches %d, which is not a member", id, cur)
			}
			if parent == cur {
				if cur == id {
					roots++
				}
				break
			}
			if steps == maxHeight {
				return nil, fmt.Errorf("cluster: restore: the parent chain from member %d reaches no root within %d steps", id, maxHeight)
			}
			cur = parent
		}
	}
	if len(st.Size) != roots || st.Clusters != roots {
		return nil, fmt.Errorf("cluster: restore: %d sizes and %d clusters recorded for %d roots", len(st.Size), st.Clusters, roots)
	}
	total := 0
	for r, n := range st.Size {
		if p, ok := st.Parent[r]; !ok || p != r || n < 1 || n > len(st.Parent) {
			return nil, fmt.Errorf("cluster: restore: size %d recorded for %d, which is not a root", n, r)
		}
		total += n
	}
	if total != len(st.Parent) {
		return nil, fmt.Errorf("cluster: restore: root sizes sum to %d for %d members", total, len(st.Parent))
	}
	if len(st.Parent) == 0 {
		return New(), nil // Size may be nil, and Merge writes to it
	}
	return &Set{parent: st.Parent, size: st.Size, clusters: st.Clusters}, nil
}
