package match

import (
	"slices"

	"pier/internal/intern"
	"pier/internal/profile"
)

// Jaro-Winkler, a string measure for names beyond the paper's JS/ED pair,
// and Jaccard over interned token symbols: each profile's token set is
// interned once into a sorted []uint32 (cached on the profile), and every
// subsequent comparison is an integer intersection instead of a string one.

// simTab interns matcher tokens to dense symbols. It is match's own table —
// distinct from the blocking index's — because the matcher also runs on
// probe profiles and in batch tools where no collection exists. Append-only
// and concurrency-safe, so parallel match workers share it freely.
var simTab = intern.New(1 << 12)

// encodeTokens is the profile.TokenSyms encoder: intern every token, sort.
// Tokens() is deduplicated, and interning is injective, so the result is a
// sorted duplicate-free symbol set.
func encodeTokens(toks []string) []uint32 {
	out := make([]uint32, len(toks))
	for i, t := range toks {
		out[i] = uint32(simTab.Intern(t))
	}
	slices.Sort(out)
	return out
}

// tokenSyms returns the profile's cached sorted symbol set.
func tokenSyms(p *profile.Profile) []uint32 {
	return p.TokenSyms(encodeTokens)
}

// jaccardSyms returns |a ∩ b| / |a ∪ b| for two sorted, deduplicated symbol
// sets. Both empty yields 1 (identical empty sets).
func jaccardSyms(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := intern.IntersectCount(a, b)
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// Jaro returns the Jaro similarity of two strings in [0, 1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA := make([]bool, la)
	matchedB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if matchedB[j] || ra[i] != rb[j] {
				continue
			}
			matchedA[i] = true
			matchedB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// jaroWinklerPrefixScale is the standard Winkler prefix boost factor.
const jaroWinklerPrefixScale = 0.1

// JaroWinkler returns the Jaro-Winkler similarity: Jaro boosted by up to 4
// characters of common prefix — the classic measure for person names.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*jaroWinklerPrefixScale*(1-j)
}
