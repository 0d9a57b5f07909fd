// Package cluster turns the pairwise duplicate decisions of the matching
// step into entity clusters, maintained incrementally as matches stream in.
// End-to-end ER frameworks (e.g. JedAI, and the incremental framework the
// paper extends) expose clusters, not raw pairs, to downstream consumers: a
// cluster is the set of profiles believed to describe one real-world entity.
//
// The core structure is a union-find (disjoint-set) forest with union by
// size and path compression, extended with the bookkeeping needed for
// streaming use: clusters can be enumerated at any time, membership queries
// are O(α(n)), and every Merge reports whether it actually joined two
// previously separate entities — the signal incremental consumers act on.
package cluster

import "sort"

// Set is an incremental union-find over profile IDs. The zero value is not
// usable; construct with New. IDs may be added lazily: any ID first seen by
// Merge or Find becomes its own singleton cluster.
type Set struct {
	parent map[int]int
	size   map[int]int
	// clusters counts current clusters among the *registered* IDs.
	clusters int
}

// New returns an empty cluster set.
func New() *Set {
	return &Set{parent: make(map[int]int), size: make(map[int]int)}
}

// add registers id as a singleton if unseen.
func (s *Set) add(id int) {
	if _, ok := s.parent[id]; ok {
		return
	}
	s.parent[id] = id
	s.size[id] = 1
	s.clusters++
}

// Find returns the canonical representative of id's cluster, registering id
// if needed. Path compression keeps subsequent queries near-constant.
func (s *Set) Find(id int) int {
	s.add(id)
	root := id
	for s.parent[root] != root {
		root = s.parent[root]
	}
	for s.parent[id] != root {
		s.parent[id], id = root, s.parent[id]
	}
	return root
}

// Merge records that x and y refer to the same entity. It returns true if
// the call joined two previously distinct clusters (a *new* identity link)
// and false if x and y were already known to co-refer.
func (s *Set) Merge(x, y int) bool {
	rx, ry := s.Find(x), s.Find(y)
	if rx == ry {
		return false
	}
	if s.size[rx] < s.size[ry] {
		rx, ry = ry, rx
	}
	s.parent[ry] = rx
	s.size[rx] += s.size[ry]
	delete(s.size, ry)
	s.clusters--
	return true
}

// Len returns the number of registered profiles.
func (s *Set) Len() int { return len(s.parent) }

// Clusters materializes all clusters with at least minSize members, each
// sorted ascending, the whole result sorted by the smallest member for
// determinism. minSize <= 1 returns every cluster including singletons;
// minSize = 2 returns only actual duplicate groups.
func (s *Set) Clusters(minSize int) [][]int {
	groups := make(map[int][]int)
	for id := range s.parent {
		root := s.Find(id)
		groups[root] = append(groups[root], id)
	}
	out := make([][]int, 0, len(groups))
	for _, members := range groups {
		if len(members) < minSize {
			continue
		}
		sort.Ints(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
