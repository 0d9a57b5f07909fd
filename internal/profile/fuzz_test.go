package profile

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// runeScanTokens is the rune-scan tokenizer AppendTokens's byte scan must
// agree with: maximal runs of letters or digits, lowercased, shorter than
// MinTokenLen bytes dropped.
func runeScanTokens(value string) []string {
	var out []string
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

// FuzzTokenize checks the tokenizer's invariants on arbitrary input: no
// panics, all tokens lowercase alphanumeric runs of at least MinTokenLen,
// every token actually occurs in the (lowercased) input, and the tokens
// equal the rune-scan tokenizer's, token for token and in order.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "Route 66", "日本語 text", "a,b;c",
		"\x00\xff", strings.Repeat("x", 1000), "MiXeD CaSe 123",
		// Upper-case ASCII, inside a token and at its start.
		"abc Def ghI JKL", "smith SMITH smIth",
		// A non-ASCII byte after an ASCII prefix, inside a token, after a
		// separator, and as a lone invalid byte.
		"main street café 12", "naïve approach", "abc é", "abc\xffdef gh",
		// Digits and punctuation.
		"12-34/56 (a.b) c_d e+f 7'8 99%", "1999,the matrix;wachowski",
		// Tokens right at MinTokenLen, around it, and at the value's ends.
		"ab c de f", "x yz", "a b", "ab", "a", "zz 9 99 999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := AppendTokens(nil, s)
		if want := runeScanTokens(s); !slices.Equal(toks, want) {
			t.Fatalf("AppendTokens(%q) = %q, rune scan gives %q", s, toks, want)
		}
		lower := strings.ToLower(s)
		for _, tok := range toks {
			if len(tok) < MinTokenLen {
				t.Fatalf("token %q shorter than MinTokenLen", tok)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator rune %q", tok, r)
				}
			}
			if !strings.Contains(lower, tok) {
				t.Fatalf("token %q not present in lowercased input %q", tok, lower)
			}
		}
	})
}
