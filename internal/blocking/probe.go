package blocking

import (
	"slices"

	"pier/internal/intern"
	"pier/internal/profile"
	"pier/internal/storage"
)

// This file is the probe side of the query read path: the posting type a
// published snapshot (rcu.go) hands to query goroutines, and the key lookup
// that turns a probe profile into symbols. Neither touches the collection's
// live state, so both are safe while the owner goroutine keeps ingesting; the
// owner's own accessors (BlocksOf, Profile, ...) remain owner-only.
//
// Probe lookups never intern: a probe's tokens are resolved with the symbol
// table's read-only lookup, so a stream of junk probes cannot grow the
// symbol table or touch the shards' write state at all.

// Posting is an immutable point-in-time image of one live block: a
// frozen-length view of the live arrays, taken when a snapshot is published
// (or the decoded image of a spilled block). It is safe to read without
// synchronization and must never be modified.
type Posting struct {
	// Sym is the block's interned symbol.
	Sym intern.Sym
	// Key is the blocking key (token) that defines the block.
	Key string
	// A and B are the per-source member ID lists.
	A, B []int
}

// Size returns the number of profiles in the posting.
func (p *Posting) Size() int { return len(p.A) + len(p.B) }

// Comparisons returns ||b|| of the posting, mirroring Block.Comparisons.
func (p *Posting) Comparisons(cleanClean bool) int {
	return comparisons(storage.Meta{A: int32(len(p.A)), B: int32(len(p.B))}, cleanClean)
}

// ProbeSyms resolves the probe's blocking keys to symbols without interning:
// keys never seen by ingest are dropped (they cannot have a block). Safe for
// concurrent use with ingest.
func (c *Collection) ProbeSyms(p *profile.Profile) []intern.Sym {
	return c.AppendProbeSyms(nil, p)
}

// AppendProbeSyms is ProbeSyms appending to buf, so a caller can reuse one
// buffer across probes. buf grows at most once.
func (c *Collection) AppendProbeSyms(buf []intern.Sym, p *profile.Profile) []intern.Sym {
	keys := c.keyer(p)
	buf = slices.Grow(buf, len(keys))
	for _, k := range keys {
		if sym, ok := c.tab.Sym(k); ok {
			buf = append(buf, sym)
		}
	}
	return buf
}
