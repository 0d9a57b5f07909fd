package blocking

import (
	"fmt"
	"sort"

	"pier/internal/match"
	"pier/internal/profile"
)

// Attribute-clustering blocking (Papadakis et al., "Schema-agnostic vs
// schema-based configurations for blocking methods on homogeneous data",
// PVLDB 2015 — the paper's reference [24]): a middle ground between
// schema-agnostic and schema-aware blocking. Attribute *names* are clustered
// by the similarity of their value vocabularies (e.g. source A's "title"
// clusters with source B's "name" because their values share tokens), and
// every blocking key is prefixed with its attribute-cluster id. Profiles
// then collide only when they share a token *in comparable attributes*,
// which removes the false blocks that plain token blocking builds from
// cross-attribute coincidences (a person named "london" vs the city).
//
// The clustering is computed once from a sample of profiles (e.g. the first
// increments) and yields a blocking.Keyer usable by any pipeline.

// AttrClusterer maps attribute names to cluster ids and derives prefixed
// blocking keys.
type AttrClusterer struct {
	clusterOf map[string]int
	// next is the id for attribute names unseen during training; they form
	// one shared "glue" cluster so unknown attributes still block.
	unknown int
}

// attrVocabLimit bounds the vocabulary sample kept per attribute name.
const attrVocabLimit = 512

// NewAttrClusterer learns an attribute clustering from sample profiles: the
// token vocabularies of all attribute names are compared pairwise with
// Jaccard similarity, names with similarity >= threshold are merged
// (single-link), and each connected group becomes one cluster. A threshold
// <= 0 defaults to 0.15 — forgiving enough to join "title"/"name" columns
// that describe the same real-world property with different words.
func NewAttrClusterer(sample []*profile.Profile, threshold float64) *AttrClusterer {
	if threshold <= 0 {
		threshold = 0.15
	}
	// Collect a bounded token vocabulary per attribute name.
	vocab := make(map[string]map[string]struct{})
	for _, p := range sample {
		for _, a := range p.Attributes {
			set, ok := vocab[a.Name]
			if !ok {
				set = make(map[string]struct{})
				vocab[a.Name] = set
			}
			if len(set) >= attrVocabLimit {
				continue
			}
			for _, tok := range profile.Tokenize(a.Value) {
				set[tok] = struct{}{}
			}
		}
	}
	names := make([]string, 0, len(vocab))
	for name := range vocab {
		names = append(names, name)
	}
	sort.Strings(names)

	sorted := make(map[string][]string, len(names))
	for name, set := range vocab {
		toks := make([]string, 0, len(set))
		for t := range set {
			toks = append(toks, t)
		}
		sort.Strings(toks)
		sorted[name] = toks
	}

	// Single-link clustering via a tiny union-find over name indexes.
	parent := make([]int, len(names))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if match.Jaccard(sorted[names[i]], sorted[names[j]]) >= threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	clusterOf := make(map[string]int, len(names))
	rootID := make(map[int]int)
	for i, name := range names {
		root := find(i)
		id, ok := rootID[root]
		if !ok {
			id = len(rootID)
			rootID[root] = id
		}
		clusterOf[name] = id
	}
	return &AttrClusterer{clusterOf: clusterOf, unknown: len(rootID)}
}

// Cluster returns the cluster id of an attribute name; unseen names share
// the glue cluster.
func (c *AttrClusterer) Cluster(name string) int {
	if id, ok := c.clusterOf[name]; ok {
		return id
	}
	return c.unknown
}

// Keyer returns a blocking.Keyer that emits cluster-prefixed tokens:
// "<cluster>:<token>" for every token of every attribute value.
func (c *AttrClusterer) Keyer() Keyer {
	return func(p *profile.Profile) []string {
		set := make(map[string]struct{})
		for _, a := range p.Attributes {
			prefix := fmt.Sprintf("%d:", c.Cluster(a.Name))
			for _, tok := range profile.Tokenize(a.Value) {
				set[prefix+tok] = struct{}{}
			}
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
}
