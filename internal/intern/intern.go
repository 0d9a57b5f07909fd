// Package intern provides the append-only symbol table behind the blocking
// index: every blocking key (token, q-gram, suffix, …) is mapped once to a
// dense uint32 symbol, and all hot-path structures — posting lists, the
// profile→blocks index, weigher scratch sets, strategy block indexes — operate
// on symbols instead of strings. Symbol comparison is a single integer
// compare, symbol sets are sorted []Sym slices with cache-friendly set ops,
// and a symbol costs 4 bytes where a string header costs 16 plus its bytes.
//
// The table is concurrency-safe and append-only: symbols are never removed or
// renumbered, so a Sym handed out once stays valid for the lifetime of the
// table — and, via FromSymbols, across checkpoint/restore. Numbering is
// assignment order: the first distinct string interned gets Sym 0. Components
// that need deterministic behavior independent of arrival order (block scans,
// tie-breaks) must therefore order by the resolved string, not by the raw
// symbol value; see DESIGN.md §10.
//
// Reads never lock. The table is an open-addressing hash whose slots are
// atomic sym+1 values published only after the symbol's string is visible, so
// Sym and StringOf on the query path are a handful of atomic loads — no
// RWMutex, no contention with writers. Writers serialize on a mutex and grow
// the table by building a rehashed copy and publishing it with one atomic
// pointer swap; readers caught on the retired table finish their probe there
// and the Go GC reclaims it once the last reader drops it (no epochs or
// hazard pointers needed). See DESIGN.md §12 for the full protocol.
package intern

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Sym is a dense handle for an interned string. Symbols are only meaningful
// relative to the Table that issued them.
type Sym uint32

// None is a "no symbol" sentinel that no table ever issues (tables are capped
// below 2^32-1 symbols).
const None Sym = ^Sym(0)

// slotTable is one immutable-size generation of the open-addressing hash.
// Slot values are sym+1 (0 = empty); a slot is written exactly once, by the
// single writer holding Table.mu, and only after the symbol's string has been
// published — so any reader that observes a non-zero slot can resolve it
// through the published string array without synchronizing further.
type slotTable struct {
	mask  uint32
	slots []atomic.Uint32
}

func newSlotTable(capacity int) *slotTable {
	return &slotTable{mask: uint32(capacity - 1), slots: make([]atomic.Uint32, capacity)}
}

// Table is an append-only string↔Sym map with lock-free reads. The zero value
// is not usable; construct with New.
type Table struct {
	mu   sync.Mutex // serializes writers; readers never take it
	strs []string   // authoritative dense strings (writer-owned)

	tab *atomic.Pointer[slotTable] // current hash generation
	arr *atomic.Pointer[[]string]  // published string array, len == cap ≥ published n
	n   atomic.Uint32              // published symbol count; guards arr indexing
}

// New returns an empty table. sizeHint pre-sizes the underlying structures
// for the expected number of distinct symbols; 0 means a small default.
func New(sizeHint int) *Table {
	if sizeHint <= 0 {
		sizeHint = 64
	}
	capacity := 64
	// Size the slot table so sizeHint entries stay under the 3/4 load factor.
	for capacity*3/4 < sizeHint {
		capacity <<= 1
	}
	t := &Table{
		strs: make([]string, 0, sizeHint),
		tab:  &atomic.Pointer[slotTable]{},
		arr:  &atomic.Pointer[[]string]{},
	}
	t.tab.Store(newSlotTable(capacity))
	t.publishArr()
	return t
}

// publishArr publishes the full-capacity view of the writer's string array so
// readers can index any slot below the published count. Called under mu (or
// during construction) whenever append reallocates the backing array.
func (t *Table) publishArr() {
	full := t.strs[:cap(t.strs)]
	t.arr.Store(&full)
}

// hashString is FNV-1a over the bytes of s: allocation-free, deterministic,
// and good enough to keep probe sequences short on token-sized keys.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// lookup probes tab for s using only atomic loads. A miss is definitive for
// the generation probed: slots are insert-only, so an empty slot on the probe
// path proves s was not interned when the generation pointer was read.
func (t *Table) lookup(tab *slotTable, s string) (Sym, bool) {
	for i := hashString(s) & tab.mask; ; i = (i + 1) & tab.mask {
		v := tab.slots[i].Load()
		if v == 0 {
			return 0, false
		}
		// The slot was published after the string (and after any array
		// growth), so the array loaded *after* the slot — sync/atomic loads
		// are sequentially consistent — always covers index v-1.
		if sym := Sym(v - 1); (*t.arr.Load())[sym] == s {
			return sym, true
		}
	}
}

// Intern returns the symbol for s, assigning the next free symbol on first
// sight. It is safe for concurrent use; lookups of already-interned strings
// (the steady state of the ingest pipeline) take no lock.
func (t *Table) Intern(s string) Sym {
	if sym, ok := t.lookup(t.tab.Load(), s); ok {
		return sym
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := t.tab.Load()
	if sym, ok := t.lookup(tab, s); ok { // lost the race to another goroutine
		return sym
	}
	if len(t.strs) >= int(None) {
		panic("intern: symbol space exhausted")
	}
	if (len(t.strs)+1)*4 > len(tab.slots)*3 { // keep load factor ≤ 3/4
		tab = t.grow(tab)
	}
	sym := Sym(len(t.strs))
	grew := len(t.strs) == cap(t.strs)
	t.strs = append(t.strs, s)
	if grew {
		t.publishArr()
	}
	// Publication order matters: string array first, then the count that
	// guards it, then the slot that makes the symbol findable. A reader that
	// sees the slot therefore always finds the string behind it.
	t.n.Store(uint32(len(t.strs)))
	for i := hashString(s) & tab.mask; ; i = (i + 1) & tab.mask {
		if tab.slots[i].Load() == 0 {
			tab.slots[i].Store(uint32(sym) + 1)
			break
		}
	}
	return sym
}

// grow builds a doubled, rehashed generation from the authoritative string
// slice and publishes it. Readers still probing the retired generation see a
// consistent (merely stale) view; Intern's locked re-probe covers the gap.
func (t *Table) grow(old *slotTable) *slotTable {
	next := newSlotTable(len(old.slots) * 2)
	for i, s := range t.strs {
		for j := hashString(s) & next.mask; ; j = (j + 1) & next.mask {
			if next.slots[j].Load() == 0 {
				next.slots[j].Store(uint32(i) + 1)
				break
			}
		}
	}
	t.tab.Store(next)
	return next
}

// InternAll interns every string of toks, appending the symbols to buf (which
// may be nil) and returning the extended slice.
func (t *Table) InternAll(toks []string, buf []Sym) []Sym {
	for _, s := range toks {
		buf = append(buf, t.Intern(s))
	}
	return buf
}

// Sym returns the symbol for s without assigning one, and whether it exists.
// It never locks: the query path resolves probe tokens with a few atomic
// loads even while an ingest batch is interning on another goroutine.
func (t *Table) Sym(s string) (Sym, bool) {
	return t.lookup(t.tab.Load(), s)
}

// StringOf resolves a symbol back to its string without locking. Resolving a
// symbol the table never issued is a programming error and panics.
func (t *Table) StringOf(sym Sym) string {
	if uint32(sym) < t.n.Load() {
		return (*t.arr.Load())[sym]
	}
	panic(fmt.Sprintf("intern: unknown symbol %d (table has %d)", sym, t.n.Load()))
}

// Len returns the number of symbols issued so far.
func (t *Table) Len() int {
	return int(t.n.Load())
}

// FromSymbols builds a table whose symbol i resolves to symbols[i], the
// restore half of a checkpoint that saved StringOf(0..Len-1). Duplicate
// strings are a programming error and panic (the mapping would be ambiguous).
func FromSymbols(symbols []string) *Table {
	t := New(len(symbols))
	for i, s := range symbols {
		if t.Intern(s) != Sym(i) {
			panic(fmt.Sprintf("intern: duplicate symbol %q in restored table", s))
		}
	}
	return t
}
