package profile

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"simple words", "Hello World", []string{"hello", "world"}},
		{"punctuation split", "foo,bar;baz", []string{"foo", "bar", "baz"}},
		{"digits kept", "Route 66 is 2400mi", []string{"route", "66", "is", "2400mi"}},
		{"short tokens dropped", "a b cd e", []string{"cd"}},
		{"empty", "", nil},
		{"only separators", "--- ,,, !!!", nil},
		{"mixed case folded", "DBLP Acm", []string{"dblp", "acm"}},
		{"duplicates preserved", "go go go", []string{"go", "go", "go"}},
		{"trailing token flushed", "end token", []string{"end", "token"}},
		{"leading separators", "  spaced", []string{"spaced"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := AppendTokens(nil, tc.in)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("AppendTokens(nil, %q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTokenizeDeterministic(t *testing.T) {
	f := func(s string) bool {
		a := AppendTokens(nil, s)
		b := AppendTokens(nil, s)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeAllLowercaseAndMinLen(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range AppendTokens(nil, s) {
			if tok != strings.ToLower(tok) {
				return false
			}
			if len(tok) < MinTokenLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnOddArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd name/value arguments")
		}
	}()
	New(1, SourceA, "", "name")
}

func TestProfileTokensSortedUnique(t *testing.T) {
	p := New(7, SourceA, "e1",
		"title", "The Matrix Reloaded",
		"director", "Wachowski",
		"alt", "matrix reloaded the")
	toks := p.Tokens()
	if !sort.StringsAreSorted(toks) {
		t.Errorf("tokens not sorted: %v", toks)
	}
	seen := map[string]bool{}
	for _, tok := range toks {
		if seen[tok] {
			t.Errorf("duplicate token %q in %v", tok, toks)
		}
		seen[tok] = true
	}
	want := []string{"matrix", "reloaded", "the", "wachowski"}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("tokens = %v, want %v", toks, want)
	}
}

func TestProfileTokensCached(t *testing.T) {
	p := New(1, SourceB, "", "a", "alpha beta")
	t1 := p.Tokens()
	t2 := p.Tokens()
	if &t1[0] != &t2[0] {
		t.Error("Tokens() not cached: different backing arrays")
	}
}

func TestJoinedValues(t *testing.T) {
	p := New(1, SourceA, "", "x", "Foo", "y", "BAR baz")
	if got, want := p.JoinedValues(), "foo bar baz"; got != want {
		t.Errorf("JoinedValues() = %q, want %q", got, want)
	}
	if got, want := p.ValueLen(), len("foo bar baz"); got != want {
		t.Errorf("ValueLen() = %d, want %d", got, want)
	}
}

func TestJoinedValuesEmptyProfile(t *testing.T) {
	p := New(1, SourceA, "")
	if p.JoinedValues() != "" {
		t.Errorf("JoinedValues() = %q, want empty", p.JoinedValues())
	}
	if p.ValueLen() != 0 {
		t.Errorf("ValueLen() = %d, want 0", p.ValueLen())
	}
}

func TestSourceString(t *testing.T) {
	if SourceA.String() != "A" || SourceB.String() != "B" {
		t.Errorf("Source strings wrong: %v %v", SourceA, SourceB)
	}
}

// TestTokensMatchManualTokenization cross-checks Profile.Tokens against an
// independent implementation on random word soups.
func TestTokensMatchManualTokenization(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := []string{"alpha", "beta", "gamma", "delta", "x", "omega9", "Q"}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		val := strings.Join(parts, " ")
		p := New(trial, SourceA, "", "attr", val)

		want := map[string]struct{}{}
		for _, w := range parts {
			lw := strings.ToLower(w)
			if len(lw) >= MinTokenLen {
				want[lw] = struct{}{}
			}
		}
		got := p.Tokens()
		if len(got) != len(want) {
			t.Fatalf("trial %d: token count %d want %d (%v)", trial, len(got), len(want), val)
		}
		for _, tok := range got {
			if _, ok := want[tok]; !ok {
				t.Fatalf("trial %d: unexpected token %q", trial, tok)
			}
		}
	}
}

func TestQGramKeys(t *testing.T) {
	p := New(1, SourceA, "", "name", "wachowski")
	keys := QGramKeys(p)
	want := []string{"ach", "cho", "how", "ows", "ski", "wac", "wsk"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("QGramKeys = %v, want %v", keys, want)
	}
	// A trailing typo shares most grams.
	q := New(2, SourceB, "", "name", "wachowsky")
	shared := 0
	qset := map[string]bool{}
	for _, k := range QGramKeys(q) {
		qset[k] = true
	}
	for _, k := range keys {
		if qset[k] {
			shared++
		}
	}
	if shared < 5 {
		t.Errorf("typo variants share only %d grams", shared)
	}
	// Short tokens are kept whole.
	short := New(3, SourceA, "", "x", "ab cde")
	keys = QGramKeys(short)
	if !reflect.DeepEqual(keys, []string{"ab", "cde"}) {
		t.Errorf("short-token QGramKeys = %v", keys)
	}
}

func TestSuffixKeys(t *testing.T) {
	p := New(1, SourceA, "", "name", "weststrasse")
	keys := SuffixKeys(p)
	set := map[string]bool{}
	for _, k := range keys {
		set[k] = true
	}
	for _, want := range []string{"weststrasse", "strasse", "asse"} {
		if !set[want] {
			t.Errorf("SuffixKeys missing %q: %v", want, keys)
		}
	}
	// Prefix-varying street names share the long suffix.
	q := New(2, SourceB, "", "name", "oststrasse")
	qset := map[string]bool{}
	for _, k := range SuffixKeys(q) {
		qset[k] = true
	}
	if !qset["strasse"] {
		t.Error("oststrasse must emit suffix 'strasse'")
	}
	// Short tokens kept whole.
	short := New(3, SourceA, "", "x", "abc")
	if got := SuffixKeys(short); !reflect.DeepEqual(got, []string{"abc"}) {
		t.Errorf("short SuffixKeys = %v", got)
	}
}
