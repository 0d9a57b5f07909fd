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

// Symbols returns the number of token symbols the matcher has interned.
func Symbols() int { return simTab.Len() }

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
	return jaccard(intern.IntersectCount(a, b), len(a), len(b))
}

// jaccard returns inter / (na + nb - inter), the Jaccard similarity of two
// sets of sizes na and nb that share inter elements; two empty sets yield 1.
func jaccard(inter, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	return float64(inter) / float64(na+nb-inter)
}

// Probe is the lookup-only matcher form of a query probe, built once per
// query by Matcher.Probe: for the token-set measure, the probe's tokens that
// simTab knows, as sorted symbols. They are looked up, never interned, so a
// stream of junk probes leaves simTab as it was. The string measures use the
// probe as it is.
type Probe struct {
	m     Matcher
	p     *profile.Profile
	known []uint32
}

// Probe builds p's lookup-only form for m. Its Similarity(y) equals
// m.Similarity(p, y) bit for bit for every y that m.Prepare'd before the
// call: y's tokens are interned by then, so a probe token the lookups miss is
// in no such y and counts toward the probe's size alone.
func (m Matcher) Probe(p *profile.Profile) Probe {
	q := Probe{m: m, p: p}
	if m.Kind == ED || m.Kind == JW {
		return q
	}
	toks := p.Tokens()
	q.known = make([]uint32, 0, len(toks))
	for _, t := range toks {
		if sym, ok := simTab.Sym(t); ok {
			q.known = append(q.known, uint32(sym))
		}
	}
	slices.Sort(q.known)
	return q
}

// Similarity returns the matcher's similarity of the probe and y, which must
// have been prepared before the form was built.
func (q Probe) Similarity(y *profile.Profile) float64 {
	if q.m.Kind == ED || q.m.Kind == JW {
		return q.m.Similarity(q.p, y)
	}
	ys := tokenSyms(y)
	return jaccard(intern.IntersectCount(q.known, ys), len(q.p.Tokens()), len(ys))
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
