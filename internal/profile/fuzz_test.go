package profile

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks the tokenizer's invariants on arbitrary input: no
// panics, all tokens lowercase alphanumeric runs of at least MinTokenLen,
// and every token actually occurs in the (lowercased) input.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "Route 66", "日本語 text", "a,b;c",
		"\x00\xff", strings.Repeat("x", 1000), "MiXeD CaSe 123",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := AppendTokens(nil, s)
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
