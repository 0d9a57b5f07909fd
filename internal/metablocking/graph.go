package metablocking

import (
	"sort"

	"pier/internal/blocking"
)

// Edges materializes the weighted blocking graph of a full collection: one
// Comparison per distinct profile pair sharing at least one live block. It is
// the initialization workhorse of the batch progressive baselines (PPS); its
// cost — proportional to the number of edges — is exactly the pre-analysis
// overhead the paper shows crippling the straightforward incremental
// adaptations of progressive ER. The result is deterministic (descending
// weight, ties by pair key).
func Edges(col *blocking.Collection, ids []int, scheme Scheme) []Comparison {
	var out []Comparison
	var g Kernel
	var blocksBuf []*blocking.Block
	for _, id := range ids {
		p := col.Profile(id)
		if p == nil {
			continue
		}
		blocksBuf = col.AppendBlocksOf(id, blocksBuf[:0])
		out = append(out, g.Candidates(col, p, blocksBuf, scheme)...)
	}
	sort.Slice(out, func(i, j int) bool { return Less(out[j], out[i]) })
	return out
}

// ProfileLikelihoods aggregates, per profile, the duplication likelihood used
// by Progressive Profile Scheduling: the sum of the weights of all incident
// edges. It returns the profile IDs sorted by descending likelihood (ties by
// ID) along with the likelihood map.
func ProfileLikelihoods(edges []Comparison) (order []int, likelihood map[int]float64) {
	likelihood = make(map[int]float64)
	for _, e := range edges {
		likelihood[e.X] += e.Weight
		likelihood[e.Y] += e.Weight
	}
	order = make([]int, 0, len(likelihood))
	for id := range likelihood {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool {
		li, lj := likelihood[order[i]], likelihood[order[j]]
		if li != lj {
			return li > lj
		}
		return order[i] < order[j]
	})
	return order, likelihood
}
