package blocking

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"pier/internal/intern"
	"pier/internal/profile"
	"pier/internal/storage"
)

// Checkpointing: a long-running incremental ER service must survive restarts
// without re-reading the whole stream. Save serializes the collection's full
// state — the symbol table, blocks, purge tombstones, the profile registry
// and the profile→blocks index — with encoding/gob; Load reconstructs it.
// The symbol table is saved verbatim (dense string slice), so symbol
// numbering survives the round trip and any raw symbols persisted by other
// components (strategy scan cursors, block indexes) stay valid against the
// restored collection. The prioritization strategies' queues are deliberately
// *not* checkpointed here: after a restart their leftover-scan path
// (GetComparisons) regenerates unexecuted comparisons from the restored block
// collection, which is the same recovery the paper's globality condition
// provides for comparisons skipped under load.

// persistedProfile is the gob image of a profile (the runtime type carries
// unexported caches that must be rebuilt on load).
type persistedProfile struct {
	ID         int
	Source     uint8
	EntityKey  string
	Attributes []profile.Attribute
}

// persistedBlock is the gob image of one block. The key string is not
// persisted: it is recoverable from the symbol table, and every live block
// appears exactly once.
type persistedBlock struct {
	Sym  uint32
	A, B []int
}

// persistedCollection is the gob image of a Collection (format v2: symbol
// table + symbol-keyed postings; the pre-intern string-keyed v1 image is no
// longer readable — the snapshot container versioning surfaces that error).
type persistedCollection struct {
	CleanClean   bool
	MaxBlockSize int
	Symbols      []string // dense: Sym(i) <-> Symbols[i]
	Blocks       []persistedBlock
	Purged       []uint32
	Profiles     []persistedProfile
	OfProf       map[int][]uint32
	Version      uint64
}

// Save writes a checkpoint of the collection to w. Blocks and tombstones are
// emitted in symbol order so the byte stream is reproducible.
func (c *Collection) Save(w io.Writer) error {
	img := persistedCollection{
		CleanClean:   c.cleanClean,
		MaxBlockSize: c.maxBlockSize,
		Version:      c.version,
	}
	img.Symbols = make([]string, c.tab.Len())
	for i := range img.Symbols {
		img.Symbols[i] = c.tab.StringOf(intern.Sym(i))
	}
	for si := 0; si < c.store.NumShards(); si++ {
		// Range reads spilled blocks from the segment without faulting them
		// in, so checkpointing never disturbs residency.
		c.store.Range(si, func(sym uint32, b *Block) bool {
			img.Blocks = append(img.Blocks, persistedBlock{Sym: sym, A: b.A, B: b.B})
			return true
		})
	}
	for i := range c.shards {
		for sym := range c.shards[i].purged {
			img.Purged = append(img.Purged, uint32(sym))
		}
	}
	sort.Slice(img.Blocks, func(i, j int) bool { return img.Blocks[i].Sym < img.Blocks[j].Sym })
	sort.Slice(img.Purged, func(i, j int) bool { return img.Purged[i] < img.Purged[j] })
	img.Profiles = make([]persistedProfile, 0, len(c.profiles))
	for _, p := range c.profiles {
		img.Profiles = append(img.Profiles, persistedProfile{
			ID:         p.ID,
			Source:     uint8(p.Source),
			EntityKey:  p.EntityKey,
			Attributes: p.Attributes,
		})
	}
	img.OfProf = make(map[int][]uint32, len(c.ofProf))
	for id, syms := range c.ofProf {
		out := make([]uint32, len(syms))
		for i, s := range syms {
			out[i] = uint32(s)
		}
		img.OfProf[id] = out
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("blocking: save checkpoint: %w", err)
	}
	return nil
}

// Load reconstructs a collection from a checkpoint written by Save, with the
// default shard count. keyer must be the same extractor the saved collection
// used (nil = token blocking); it is needed for profiles added *after* the
// restore — the restored blocks themselves are taken verbatim.
func Load(r io.Reader, keyer Keyer) (*Collection, error) {
	return LoadShardedStorage(r, keyer, 0, storage.Config{})
}

// LoadShardedStorage is Load with an explicit shard count and storage backend
// (see NewCollectionStorage). Both are runtime knobs, not persisted state: a
// checkpoint restores to the same observable collection under any shard count
// and either backend. The restored index is trimmed to the budget before
// returning.
func LoadShardedStorage(r io.Reader, keyer Keyer, shards int, scfg storage.Config) (*Collection, error) {
	var img persistedCollection
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	c := NewCollectionStorage(img.CleanClean, img.MaxBlockSize, keyer, shards, scfg)
	c.tab = intern.FromSymbols(img.Symbols)
	for _, pb := range img.Blocks {
		sym := intern.Sym(pb.Sym)
		if int(pb.Sym) >= len(img.Symbols) {
			return nil, fmt.Errorf("blocking: load checkpoint: block symbol %d outside table of %d", pb.Sym, len(img.Symbols))
		}
		c.putBlock(sym, &Block{
			Key: img.Symbols[pb.Sym],
			Sym: sym,
			A:   pb.A,
			B:   pb.B,
		})
	}
	for _, s := range img.Purged {
		sym := intern.Sym(s)
		c.shardOf(sym).purged[sym] = struct{}{}
	}
	for _, pp := range img.Profiles {
		c.profiles[pp.ID] = &profile.Profile{
			ID:         pp.ID,
			Source:     profile.Source(pp.Source),
			EntityKey:  pp.EntityKey,
			Attributes: pp.Attributes,
		}
	}
	for id, syms := range img.OfProf {
		out := make([]intern.Sym, len(syms))
		for i, s := range syms {
			out[i] = intern.Sym(s)
		}
		c.ofProf[id] = out
	}
	c.version = img.Version
	c.maintainStore()
	return c, nil
}
