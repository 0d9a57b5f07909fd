// Package metablocking implements the meta-blocking machinery the paper
// builds on (Papadakis et al., TKDE 2013): comparison candidates, edge
// weighting schemes over the implicit blocking graph, candidate generation
// for newly arrived profiles, and comparison cleaning by the incremental
// Weighted Node Pruning (I-WNP) of the paper's framework reference [17].
//
// The blocking graph has one node per profile and an edge between two
// profiles whenever they share at least one block; weighting schemes score
// each edge by match likelihood. Nothing here materializes the full graph
// except the batch baselines: incremental candidate generation scores edges
// on the fly from the blocks of a single new profile.
package metablocking

import (
	"cmp"
	"fmt"
	"math"

	"pier/internal/profile"
)

// Comparison is a weighted candidate pair c_{x,y}. X is the anchor profile
// (for incremental generation, the newly arrived one), Y the partner. Weight
// is the value of the configured weighting scheme; BSize is the size of the
// generating block at enqueue time and is only meaningful for I-PBS, whose
// comparison order is the lexicographic pair ⟨BSize asc, Weight desc⟩.
type Comparison struct {
	X, Y   int
	Weight float64
	BSize  int
}

// Key returns the canonical unordered pair key of the comparison.
func (c Comparison) Key() uint64 { return profile.PairKey(c.X, c.Y) }

// String renders the comparison for logs and tests.
func (c Comparison) String() string {
	return fmt.Sprintf("c(%d,%d|w=%.3f,b=%d)", c.X, c.Y, c.Weight, c.BSize)
}

// Compare orders comparisons by ascending Weight, ties by descending pair
// key for determinism: it is negative when a is worse than b and zero only
// for the same pair at the same weight. Priority queues built on it pop the
// highest weight first. Sorts and queues call it once per pair of elements,
// where a comparator built from Less needs two calls.
func Compare(a, b Comparison) int {
	if a.Weight != b.Weight {
		if a.Weight < b.Weight {
			return -1
		}
		return 1
	}
	return cmp.Compare(b.Key(), a.Key())
}

// Less reports whether a is worse than b under Compare.
func Less(a, b Comparison) bool { return Compare(a, b) < 0 }

// CompareBlockCentric is the I-PBS order: a comparison is better when its
// generating block is smaller; among equal block sizes, Compare decides. A
// negative result means a is worse than b.
func CompareBlockCentric(a, b Comparison) int {
	if a.BSize != b.BSize {
		return cmp.Compare(b.BSize, a.BSize)
	}
	return Compare(a, b)
}

// Scheme is a meta-blocking edge weighting scheme.
type Scheme int

const (
	// CBS (Common Blocks Scheme) weighs an edge by the number of blocks
	// the two profiles share. It is the paper's scheme of choice: the
	// cheapest to compute, with good incremental behavior.
	CBS Scheme = iota
	// JSScheme weighs by the Jaccard coefficient of the two profiles'
	// block sets: |B(x) ∩ B(y)| / (|B(x)| + |B(y)| - |B(x) ∩ B(y)|).
	JSScheme
	// ECBS extends CBS with inverse block-frequency factors:
	// CBS · log(|B|/|B(x)|) · log(|B|/|B(y)|).
	ECBS
	// ARCS (Aggregate Reciprocal Comparisons Scheme) sums 1/||b|| over the
	// shared blocks, rewarding small, discriminative blocks.
	ARCS
)

// String returns the scheme's literature name.
func (s Scheme) String() string {
	switch s {
	case CBS:
		return "CBS"
	case JSScheme:
		return "JS"
	case ECBS:
		return "ECBS"
	case ARCS:
		return "ARCS"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// UsesCardinalities reports whether the scheme's weight depends on the block
// cardinalities |B(x)|, |B(y)|, |B| (JS and ECBS) or only on the statistics
// accumulated over the shared blocks (CBS and ARCS). Callers use it to skip
// fetching denominators the formula would ignore.
func (s Scheme) UsesCardinalities() bool { return s == JSScheme || s == ECBS }

// Weight is the one place the four scheme formulas are written: the weight of
// an edge (x, y) as a pure function of the statistics accumulated over the
// pair's shared blocks — common = |B(x) ∩ B(y)| and arcs = Σ 1/||b|| — and the
// cardinalities bx = |B(x)|, by = |B(y)|, total = |B|. The cardinalities are
// ignored unless UsesCardinalities. Every weigher (the sweep kernel with its
// cached denominators, the serving path with its pinned-view ones, the
// reference) evaluates these exact float expressions, which is what keeps
// their outputs bit-identical.
func (s Scheme) Weight(common int, arcs float64, bx, by, total int) float64 {
	switch s {
	case JSScheme:
		union := bx + by - common
		if union <= 0 {
			return 0
		}
		return float64(common) / float64(union)
	case ECBS:
		if bx == 0 || by == 0 || total == 0 {
			return 0
		}
		return float64(common) * math.Log(float64(total)/float64(bx)) * math.Log(float64(total)/float64(by))
	case ARCS:
		return arcs
	default: // CBS
		return float64(common)
	}
}

// cmpByWeightDesc is the descending Compare order as a slices.SortFunc
// comparator (best comparison first). Compare is a total order — ties
// resolve by pair key and a pair appears at most once per list — so
// stability is moot.
func cmpByWeightDesc(a, b Comparison) int { return Compare(b, a) }

// IWNP is the incremental Weighted Node Pruning of [17]: given the candidate
// comparisons of one profile, it drops every comparison whose weight is
// strictly below the list's mean weight and returns the survivors. The input
// slice is reused for the result.
func IWNP(cs []Comparison) []Comparison {
	if len(cs) == 0 {
		return cs
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.Weight
	}
	mean := sum / float64(len(cs))
	out := cs[:0]
	for _, c := range cs {
		if c.Weight >= mean {
			out = append(out, c)
		}
	}
	return out
}
