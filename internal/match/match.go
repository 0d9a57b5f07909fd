// Package match implements the matching step of the ER pipeline: similarity
// functions over entity profiles, threshold classifiers, and the virtual-time
// cost model used by the discrete-event pipeline runner.
//
// Following the paper (§7.1), two match functions are provided: a cheap one
// based on Jaccard similarity over the profiles' token sets (JS) and an
// expensive one based on normalized Levenshtein edit distance over the
// profiles' joined value strings (ED). The choice of function does not change
// which candidate pairs are emitted — only how fast the matcher consumes
// them, which is exactly the lever the paper uses to study system throttling.
package match

import (
	"fmt"
	"time"

	"pier/internal/intern"
	"pier/internal/profile"
)

// Kind selects a match function.
type Kind int

const (
	// JS is Jaccard similarity over token sets: fast, linear in the number
	// of tokens. The pipeline's matcher keeps up easily, so the adaptive K
	// of Algorithm 1 grows large.
	JS Kind = iota
	// ED is normalized Levenshtein edit distance over joined values:
	// quadratic in string length, simulating an expensive matcher and a
	// small adaptive K.
	ED
	// JW is Jaro-Winkler similarity over joined values: a mid-cost string
	// measure tuned for names.
	JW
)

// String returns the paper's abbreviation for the match function.
func (k Kind) String() string {
	switch k {
	case JS:
		return "JS"
	case ED:
		return "ED"
	case JW:
		return "JW"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Levenshtein returns the edit distance between two strings, computed over
// runes with the classic two-row dynamic program. Invalid UTF-8 bytes decode
// to U+FFFD before comparison, so distinct invalid byte sequences can have
// distance zero — distance is a metric over decoded rune sequences, not raw
// bytes.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution
			if d := prev[j] + 1; d < m { // deletion
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insertion
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditSimilarity returns 1 - Levenshtein(a,b)/max(len(a),len(b)), a
// normalized similarity in [0, 1]. Two empty strings are fully similar.
func EditSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}

// EDMaxLen caps the number of runes per string fed to the edit-distance
// matcher. Production matchers bound the quadratic DP on long free-text
// values the same way (comparing value prefixes); without the cap, the long
// heterogeneous profiles of web data would make a single ED comparison three
// orders of magnitude more expensive than a JS comparison instead of the
// one-to-two the paper's setup exhibits.
const EDMaxLen = 160

// truncRunes returns at most n leading runes of s.
func truncRunes(s string, n int) string {
	if len(s) <= n {
		return s // fast path: byte length bounds rune length
	}
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n])
}

// Matcher classifies a pair of profiles as duplicate or not by thresholding
// the similarity of the configured Kind. Build one with NewMatcher.
type Matcher struct {
	Kind      Kind
	Threshold float64
	tab       *intern.Table // numbers the tokens of the token-set measure
}

// DefaultThreshold is a reasonable classification threshold for both
// similarity functions on the generated datasets.
const DefaultThreshold = 0.5

// NewMatcher returns a matcher of the given kind with DefaultThreshold and a
// symbol table of its own.
func NewMatcher(kind Kind) Matcher {
	return Matcher{Kind: kind, Threshold: DefaultThreshold, tab: intern.New(0)}
}

// WithTable returns m numbering tokens in tab, as a pipeline's matcher
// numbers them in the pipeline's table. No similarity depends on the table.
func (m Matcher) WithTable(tab *intern.Table) Matcher {
	m.tab = tab
	return m
}

// Similarity computes the configured similarity of the two profiles.
func (m Matcher) Similarity(a, b *profile.Profile) float64 {
	switch m.Kind {
	case ED:
		return EditSimilarity(truncRunes(a.JoinedValues(), EDMaxLen), truncRunes(b.JoinedValues(), EDMaxLen))
	case JW:
		return JaroWinkler(truncRunes(a.JoinedValues(), EDMaxLen), truncRunes(b.JoinedValues(), EDMaxLen))
	default:
		return jaccardSyms(m.tokenSyms(a), m.tokenSyms(b))
	}
}

// Prepare computes and caches p's form for the configured Kind — the sorted
// token symbols of the token-set measures, the joined values of the string
// measures — so that p's first Similarity does not. Similarity values do not
// depend on when it runs.
func (m Matcher) Prepare(p *profile.Profile) {
	switch m.Kind {
	case ED, JW:
		p.JoinedValues()
	default:
		m.tokenSyms(p)
	}
}

// PrepareSyms is Prepare for a profile whose tokens the caller has already
// interned in m's table, as syms in any order: they are not interned again.
func (m Matcher) PrepareSyms(p *profile.Profile, syms []intern.Sym) {
	if m.Kind == ED || m.Kind == JW {
		m.Prepare(p)
		return
	}
	p.TokenSyms(m.tab, func([]string) []uint32 { return symSet(syms) })
}

// Match reports whether the two profiles classify as duplicates.
func (m Matcher) Match(a, b *profile.Profile) bool {
	return m.Similarity(a, b) >= m.Threshold
}

// CostModel translates pipeline work into virtual time. The constants are
// calibrated to measured ns/op of the real similarity implementations on this
// repository's generated datasets (see match benchmark results); absolute
// values matter less than the ratios, which reproduce the paper's regimes:
// an ED comparison on long profiles costs one to two orders of magnitude more
// than a JS comparison.
type CostModel struct {
	// CompareBase is the fixed overhead per comparison (dispatch, dedup
	// check, result recording).
	CompareBase time.Duration
	// JSPerToken is the cost per token of the two profiles' token sets.
	JSPerToken time.Duration
	// EDPerCell is the cost per DP cell, i.e. per len(a)*len(b) unit.
	EDPerCell time.Duration
	// GenPerComparison is the prioritization-side cost of generating,
	// weighting and enqueueing one candidate comparison.
	GenPerComparison time.Duration
	// BlockPerToken is the blocking-side cost of indexing one profile
	// token.
	BlockPerToken time.Duration
	// GraphPerEdge is the meta-blocking graph cost per edge, charged by
	// the batch progressive baselines (PPS) during (re)initialization.
	GraphPerEdge time.Duration
	// SortPerItem is the cost per item of sorting work during baseline
	// initialization (block sorting, profile-list sorting).
	SortPerItem time.Duration
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		CompareBase:      200 * time.Nanosecond,
		JSPerToken:       25 * time.Nanosecond,
		EDPerCell:        2 * time.Nanosecond,
		GenPerComparison: 150 * time.Nanosecond,
		BlockPerToken:    120 * time.Nanosecond,
		GraphPerEdge:     180 * time.Nanosecond,
		SortPerItem:      60 * time.Nanosecond,
	}
}

// Compare returns the virtual cost of matching profiles a and b with kind.
func (c CostModel) Compare(kind Kind, a, b *profile.Profile) time.Duration {
	switch kind {
	case ED:
		la, lb := a.ValueLen(), b.ValueLen()
		if la > EDMaxLen {
			la = EDMaxLen
		}
		if lb > EDMaxLen {
			lb = EDMaxLen
		}
		return c.CompareBase + time.Duration(la*lb)*c.EDPerCell
	case JW:
		// Jaro's matching loop is bounded by string length times the
		// half-window; model it as a fraction of the ED cell count.
		la, lb := a.ValueLen(), b.ValueLen()
		if la > EDMaxLen {
			la = EDMaxLen
		}
		if lb > EDMaxLen {
			lb = EDMaxLen
		}
		return c.CompareBase + time.Duration(la*lb/4)*c.EDPerCell
	default: // JS: one linear merge over the token sets
		toks := len(a.Tokens()) + len(b.Tokens())
		return c.CompareBase + time.Duration(toks)*c.JSPerToken
	}
}

// Generate returns the virtual cost of generating n candidate comparisons.
func (c CostModel) Generate(n int) time.Duration {
	return time.Duration(n) * c.GenPerComparison
}

// Block returns the virtual cost of blocking a profile with n tokens.
func (c CostModel) Block(nTokens int) time.Duration {
	return time.Duration(nTokens) * c.BlockPerToken
}

// Graph returns the virtual cost of materializing n meta-blocking edges.
func (c CostModel) Graph(n int) time.Duration {
	return time.Duration(n) * c.GraphPerEdge
}

// Sort returns the virtual cost of sorting n items.
func (c CostModel) Sort(n int) time.Duration {
	return time.Duration(n) * c.SortPerItem
}
