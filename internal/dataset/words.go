package dataset

import (
	"math/rand"
	"strings"
)

// vocab is a deterministic pool of pseudo-words with a Zipfian sampler, the
// backbone of realistic token-frequency skew: a few very frequent tokens
// (producing huge, uninformative blocks that block purging removes) and a
// long tail of rare, highly discriminative tokens (producing the small blocks
// progressive blocking thrives on).
type vocab struct {
	words []string
	zipf  *rand.Zipf
}

var (
	consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "st", "tr", "ch", "br"}
	vowels     = []string{"a", "e", "i", "o", "u", "ai", "ou", "ea"}
)

// makeWord builds a pronounceable pseudo-word of nSyllables syllables.
func makeWord(rng *rand.Rand, nSyllables int) string {
	var b strings.Builder
	for i := 0; i < nSyllables; i++ {
		b.WriteString(consonants[rng.Intn(len(consonants))])
		b.WriteString(vowels[rng.Intn(len(vowels))])
	}
	if rng.Intn(2) == 0 {
		b.WriteString(consonants[rng.Intn(len(consonants))])
	}
	return b.String()
}

// newVocab builds a pool of n distinct pseudo-words sampled Zipfian with
// skew s (s > 1; larger is more skewed).
func newVocab(rng *rand.Rand, n int, s float64) *vocab {
	seen := make(map[string]struct{}, n)
	words := make([]string, 0, n)
	for len(words) < n {
		w := makeWord(rng, 2+rng.Intn(3))
		if _, dup := seen[w]; dup {
			continue
		}
		seen[w] = struct{}{}
		words = append(words, w)
	}
	return &vocab{
		words: words,
		zipf:  rand.NewZipf(rng, s, 1, uint64(n-1)),
	}
}

// sample draws one word Zipfian-distributed over the pool.
func (v *vocab) sample() string { return v.words[v.zipf.Uint64()] }

// phrase draws k Zipfian words joined by spaces.
func (v *vocab) phrase(rng *rand.Rand, k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = v.sample()
	}
	return strings.Join(parts, " ")
}

// Corruption operators, modeled after the Febrl typo generators: each takes a
// clean value and returns a dirtied variant of it.

const alphabet = "abcdefghijklmnopqrstuvwxyz"

// typo applies one random character edit (insert, delete, substitute, or
// transpose) to s. Strings shorter than 2 runes are returned unchanged for
// delete/transpose.
func typo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) == 0 {
		return s
	}
	switch rng.Intn(4) {
	case 0: // substitute
		i := rng.Intn(len(r))
		r[i] = rune(alphabet[rng.Intn(len(alphabet))])
	case 1: // insert
		i := rng.Intn(len(r) + 1)
		c := rune(alphabet[rng.Intn(len(alphabet))])
		r = append(r[:i], append([]rune{c}, r[i:]...)...)
	case 2: // delete
		if len(r) >= 2 {
			i := rng.Intn(len(r))
			r = append(r[:i], r[i+1:]...)
		}
	default: // transpose
		if len(r) >= 2 {
			i := rng.Intn(len(r) - 1)
			r[i], r[i+1] = r[i+1], r[i]
		}
	}
	return string(r)
}

// digitTypo replaces one digit of s with a random digit (for numeric fields).
func digitTypo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) == 0 {
		return s
	}
	i := rng.Intn(len(r))
	r[i] = rune('0' + rng.Intn(10))
	return string(r)
}

// perturbPhrase dirties a multi-word value: each word independently gets a
// typo with probability pTypo and is dropped with probability pDrop (never
// dropping all words).
func perturbPhrase(rng *rand.Rand, s string, pTypo, pDrop float64) string {
	words := strings.Fields(s)
	out := make([]string, 0, len(words))
	for _, w := range words {
		if rng.Float64() < pDrop && len(words) > 1 {
			continue
		}
		if rng.Float64() < pTypo {
			w = typo(rng, w)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		out = append(out, words[0])
	}
	return strings.Join(out, " ")
}

// abbreviate shortens a word to its initial plus a period ("wachowski" ->
// "w."), a frequent author/name corruption in bibliographic data.
func abbreviate(w string) string {
	r := []rune(w)
	if len(r) == 0 {
		return w
	}
	return string(r[0]) + "."
}

// digits renders a random number with exactly n digits (leading digit may be
// zero, as in postcodes).
func digits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}
