package match

import (
	"slices"

	"pier/internal/intern"
	"pier/internal/profile"
)

// Jaro-Winkler, a string measure for names beyond the paper's JS/ED pair,
// and Jaccard over token symbols: each profile's token set is encoded once in
// the matcher's table as a sorted []uint32 cached on the profile, so every
// comparison is an integer intersection, the same under any table.

// tokenSyms returns p's token symbols in m's table, interned on first use.
func (m Matcher) tokenSyms(p *profile.Profile) []uint32 {
	return p.TokenSyms(m.tab, func(toks []string) []uint32 {
		return symSet(m.tab.InternAll(toks, make([]intern.Sym, 0, len(toks))))
	})
}

// symSet copies syms, a profile's distinct token symbols, into the sorted
// []uint32 form Jaccard intersects.
func symSet(syms []intern.Sym) []uint32 {
	out := make([]uint32, len(syms))
	for i, s := range syms {
		out[i] = uint32(s)
	}
	slices.Sort(out)
	return out
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
// query: for the token-set measure, the probe's tokens that the matcher's
// table knows, as sorted symbols. They are looked up, never interned, so a
// stream of junk probes leaves the table as it was. The string measures use
// the probe as it is.
type Probe struct {
	m     Matcher
	p     *profile.Profile
	known []uint32
}

// Probe builds p's lookup-only form for m. Its Similarity(y) equals
// m.Similarity(p, y) bit for bit for every y that m.Prepare'd before the
// call: y's tokens are in m's table by then, so a probe token the lookups
// miss is in no such y and counts toward the probe's size alone.
func (m Matcher) Probe(p *profile.Profile) Probe {
	var known []intern.Sym
	for _, t := range p.Tokens() {
		if sym, ok := m.tab.Sym(t); ok {
			known = append(known, sym)
		}
	}
	return m.ProbeSyms(p, known)
}

// ProbeSyms is Probe with the lookups already made: known are the symbols
// m's table held for p's tokens, in any order. Under token blocking a query
// passes the symbols its collection lookup resolved, so it looks each probe
// token up once.
func (m Matcher) ProbeSyms(p *profile.Profile, known []intern.Sym) Probe {
	q := Probe{m: m, p: p}
	if m.Kind != ED && m.Kind != JW {
		q.known = symSet(known)
	}
	return q
}

// Similarity returns the matcher's similarity of the probe and y, whose
// tokens must have been in the matcher's table when the form was built.
func (q Probe) Similarity(y *profile.Profile) float64 {
	if q.m.Kind == ED || q.m.Kind == JW {
		return q.m.Similarity(q.p, y)
	}
	ys := q.m.tokenSyms(y)
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
