package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	tab := New(0)
	words := []string{"matrix", "reloaded", "the", "matrix", "", "reloaded", "neo"}
	syms := make([]Sym, len(words))
	for i, w := range words {
		syms[i] = tab.Intern(w)
	}
	if syms[0] != syms[3] || syms[1] != syms[5] {
		t.Fatalf("equal strings got distinct symbols: %v", syms)
	}
	if syms[0] == syms[1] || syms[0] == syms[4] {
		t.Fatalf("distinct strings share a symbol: %v", syms)
	}
	for i, w := range words {
		if got := tab.StringOf(syms[i]); got != w {
			t.Fatalf("StringOf(%d) = %q, want %q", syms[i], got, w)
		}
	}
	if tab.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tab.Len())
	}
	if _, ok := tab.Sym("unseen"); ok {
		t.Fatal("Sym reported an unseen string as present")
	}
	if tab.Len() != 5 {
		t.Fatal("Sym must not assign symbols")
	}
}

func TestInternDenseNumbering(t *testing.T) {
	tab := New(0)
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("tok%03d", i)
		if sym := tab.Intern(s); sym != Sym(i) {
			t.Fatalf("Intern(%q) = %d, want %d (assignment-order numbering)", s, sym, i)
		}
	}
}

func TestInternAll(t *testing.T) {
	tab := New(0)
	buf := tab.InternAll([]string{"a", "b", "a"}, nil)
	if len(buf) != 3 || buf[0] != buf[2] || buf[0] == buf[1] {
		t.Fatalf("InternAll = %v", buf)
	}
	buf2 := tab.InternAll([]string{"c"}, buf[:0])
	if &buf2[0] != &buf[0] {
		t.Fatal("InternAll did not reuse the provided buffer")
	}
}

func TestStringOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StringOf of an unissued symbol did not panic")
		}
	}()
	New(0).StringOf(7)
}

// restore round-trips a table the way checkpoints do: save its symbols in
// numbering order, rebuild with FromSymbols.
func restore(tab *Table) *Table {
	syms := make([]string, tab.Len())
	for i := range syms {
		syms[i] = tab.StringOf(Sym(i))
	}
	return FromSymbols(syms)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := New(0)
	words := []string{"alpha", "beta", "gamma", "delta"}
	for _, w := range words {
		tab.Intern(w)
	}
	got := restore(tab)
	if got.Len() != tab.Len() {
		t.Fatalf("restored Len = %d, want %d", got.Len(), tab.Len())
	}
	for i, w := range words {
		if sym, ok := got.Sym(w); !ok || sym != Sym(i) {
			t.Fatalf("restored Sym(%q) = %d,%v, want %d,true", w, sym, ok, i)
		}
	}
	// Numbering must survive, so symbols persisted raw stay valid.
	if got.Intern("epsilon") != Sym(len(words)) {
		t.Fatal("restored table does not continue numbering where the original stopped")
	}
}

func TestFromSymbolsDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSymbols with duplicates did not panic")
		}
	}()
	FromSymbols([]string{"x", "y", "x"})
}

// TestConcurrentIntern hammers one table from many goroutines over an
// overlapping vocabulary and checks that the final mapping is a bijection
// consistent with every symbol observed by every goroutine. Run under -race
// this also exercises the locking discipline.
func TestConcurrentIntern(t *testing.T) {
	const goroutines = 8
	const vocab = 200
	const rounds = 50
	tab := New(0)
	observed := make([]map[string]Sym, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		observed[g] = make(map[string]Sym)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < vocab; i++ {
					// Different goroutines walk the vocabulary from
					// different offsets so insertions race.
					s := fmt.Sprintf("w%d", (i+g*31)%vocab)
					sym := tab.Intern(s)
					if prev, ok := observed[g][s]; ok && prev != sym {
						panic(fmt.Sprintf("unstable symbol for %q: %d then %d", s, prev, sym))
					}
					observed[g][s] = sym
					if got := tab.StringOf(sym); got != s {
						panic(fmt.Sprintf("StringOf(Intern(%q)) = %q", s, got))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != vocab {
		t.Fatalf("Len = %d, want %d", tab.Len(), vocab)
	}
	for g := 1; g < goroutines; g++ {
		for s, sym := range observed[g] {
			if observed[0][s] != sym {
				t.Fatalf("goroutines disagree on %q: %d vs %d", s, observed[0][s], sym)
			}
		}
	}
}

// FuzzInternRoundTrip drives a table and a reference map with fuzz-provided
// strings — concurrently from two goroutines plus the fuzz goroutine — and
// checks Intern/StringOf/Sym stay mutually consistent and stable.
func FuzzInternRoundTrip(f *testing.F) {
	f.Add("matrix", "the", "")
	f.Add("a", "a", "b")
	f.Add("\x00\xffé", "é", "\x00")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		tab := New(0)
		words := []string{a, b, c, a, c, b, a + b, b + c}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := range words {
					w := words[(i+off)%len(words)]
					if tab.StringOf(tab.Intern(w)) != w {
						panic("concurrent round-trip violated")
					}
				}
			}(g * 3)
		}
		ref := make(map[string]Sym, len(words))
		for _, w := range words {
			sym := tab.Intern(w)
			if prev, ok := ref[w]; ok && prev != sym {
				t.Fatalf("unstable symbol for %q: %d then %d", w, prev, sym)
			}
			ref[w] = sym
			if got := tab.StringOf(sym); got != w {
				t.Fatalf("StringOf(Intern(%q)) = %q", w, got)
			}
		}
		wg.Wait()
		if tab.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d distinct strings", tab.Len(), len(ref))
		}
		for w, sym := range ref {
			got, ok := tab.Sym(w)
			if !ok || got != sym {
				t.Fatalf("Sym(%q) = %d,%v, want %d,true", w, got, ok, sym)
			}
		}
		// Persistence must preserve the exact numbering.
		back := restore(tab)
		for w, sym := range ref {
			if got, ok := back.Sym(w); !ok || got != sym {
				t.Fatalf("restored Sym(%q) = %d,%v, want %d,true", w, got, ok, sym)
			}
		}
	})
}
