// Package profile defines schema-agnostic entity profiles, the input unit of
// every ER pipeline in this repository, together with the tokenizer used for
// schema-agnostic blocking and Jaccard matching.
//
// A profile is a bag of attribute name/value pairs with no schema assumption:
// two profiles describing the same real-world entity may use entirely
// different attribute names, value formats, and cardinalities. All downstream
// components (blocking, meta-blocking, matching) therefore operate only on
// the tokens extracted from attribute values, never on attribute names,
// following the schema-agnostic ER line of work the paper builds on.
package profile

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Source identifies the data source a profile belongs to. Clean-Clean ER
// resolves across two individually duplicate-free sources (SourceA vs
// SourceB); Dirty ER resolves within a single source (all profiles SourceA).
type Source uint8

// The two sources of a Clean-Clean ER task. Dirty ER uses SourceA only.
const (
	SourceA Source = 0
	SourceB Source = 1
)

// String returns "A" or "B".
func (s Source) String() string {
	if s == SourceB {
		return "B"
	}
	return "A"
}

// Attribute is a single name/value pair of a profile. Names carry no
// semantics for the pipeline; they exist for provenance and debugging.
type Attribute struct {
	Name  string
	Value string
}

// Profile is a schema-agnostic entity profile.
//
// ID is assigned by the data reader and is unique across the whole stream
// (both sources). EntityKey optionally links the profile to the ground truth:
// two profiles with the same non-empty EntityKey refer to the same real-world
// entity. The pipeline itself never reads EntityKey; only the evaluation
// harness does.
type Profile struct {
	ID         int
	Source     Source
	EntityKey  string
	Attributes []Attribute

	tokOnce sync.Once
	tokens  []string

	symOnce sync.Once
	symTab  any
	syms    []uint32
	altMu   sync.Mutex
	altTab  any
	alt     []uint32

	joinOnce sync.Once
	joined   string
}

// New constructs a profile from alternating name, value strings. It panics if
// the number of nameValue arguments is odd; it is a programming-error helper
// intended for tests and generators, not for parsing untrusted input.
func New(id int, source Source, entityKey string, nameValue ...string) *Profile {
	if len(nameValue)%2 != 0 {
		panic("profile.New: odd number of name/value arguments")
	}
	attrs := make([]Attribute, 0, len(nameValue)/2)
	for i := 0; i < len(nameValue); i += 2 {
		attrs = append(attrs, Attribute{Name: nameValue[i], Value: nameValue[i+1]})
	}
	return &Profile{ID: id, Source: source, EntityKey: entityKey, Attributes: attrs}
}

// Tokens returns the deduplicated, sorted token set extracted from all
// attribute values of the profile. The result is computed once and cached;
// callers must not mutate it.
func (p *Profile) Tokens() []string {
	p.tokOnce.Do(func() {
		// Sort and compact every attribute's tokens in a stack buffer — the
		// same set a map would collect, without hashing each token — and
		// allocate the cached set once, at its final size.
		var buf [32]string
		toks := buf[:0]
		for _, a := range p.Attributes {
			toks = AppendTokens(toks, a.Value)
		}
		slices.Sort(toks)
		if toks = slices.Compact(toks); len(toks) > 0 {
			p.tokens = slices.Clone(toks)
		}
	})
	return p.tokens
}

// TokenSyms returns the profile's token set encoded by enc in the symbol
// table tab, an opaque tag compared with == (profile stays stdlib-only); enc
// must depend on the tokens and tab alone. The cache is tagged: the first
// table's encoding is kept for good and read without a lock, and any other
// table gets its own, the latest of which is cached beside the first. Callers
// must not mutate the result.
func (p *Profile) TokenSyms(tab any, enc func([]string) []uint32) []uint32 {
	p.symOnce.Do(func() { p.symTab, p.syms = tab, enc(p.Tokens()) })
	if p.symTab == tab {
		return p.syms
	}
	p.altMu.Lock()
	defer p.altMu.Unlock()
	if p.altTab != tab {
		p.altTab, p.alt = tab, enc(p.Tokens())
	}
	return p.alt
}

// JoinedValues returns all attribute values concatenated with single spaces,
// lowercased. It is the string representation used by edit-distance matching.
// The result is computed once and cached.
func (p *Profile) JoinedValues() string {
	p.joinOnce.Do(func() {
		var b strings.Builder
		for i, a := range p.Attributes {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strings.ToLower(a.Value))
		}
		p.joined = b.String()
	})
	return p.joined
}

// ValueLen returns the total length in runes of the profile's joined value
// string. It is the size measure used by the virtual-time cost model for
// match functions.
func (p *Profile) ValueLen() int {
	return len([]rune(p.JoinedValues()))
}

// MinTokenLen is the minimum length of a token kept by AppendTokens.
// One-character tokens produce enormous, uninformative blocks that block
// purging would drop anyway; filtering them at the source keeps the block
// index small.
const MinTokenLen = 2

// AppendTokens splits a value into schema-agnostic blocking tokens, appends
// them to out and returns the extended slice. Tokens are maximal runs of
// letters or digits, lowercased, with tokens shorter than MinTokenLen bytes
// (after case folding — folding can shrink a rune, e.g. İ → i) dropped. It
// is deterministic; the same input always yields the same token sequence
// (duplicates preserved).
//
// Values that are lower-case ASCII are scanned byte by byte and their
// tokens are substrings of value. The first upper-case letter or non-ASCII
// byte hands the rest of the value, from the start of the token it falls
// in, to the rune scan (appendTokensRunes). Either way the tokens and their
// order are the same.
func AppendTokens(out []string, value string) []string {
	start := -1
	for i := 0; i < len(value); i++ {
		switch c := value[i]; {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			if start < 0 {
				start = i
			}
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z':
			if start < 0 {
				start = i
			}
			return appendTokensRunes(out, value[start:])
		default:
			if start >= 0 && i-start >= MinTokenLen {
				out = append(out, value[start:i])
			}
			start = -1
		}
	}
	if start >= 0 && len(value)-start >= MinTokenLen {
		out = append(out, value[start:])
	}
	return out
}

// appendTokensRunes is AppendTokens for any value: it scans runes and
// lowercases each token.
func appendTokensRunes(out []string, value string) []string {
	start := -1
	flush := func(end int) {
		if start >= 0 {
			if tok := strings.ToLower(value[start:end]); len(tok) >= MinTokenLen {
				out = append(out, tok)
			}
		}
		start = -1
	}
	for i, r := range value {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(value))
	return out
}
