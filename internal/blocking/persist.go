package blocking

import (
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"pier/internal/intern"
	"pier/internal/profile"
	"pier/internal/snapshot"
	"pier/internal/storage"
)

// Checkpointing: a long-running incremental ER service must survive restarts
// without re-reading the whole stream. AppendImage serializes the
// collection's full state — the symbol table, blocks, purge tombstones, the
// profile registry and the profile→blocks index — as a flat image (the
// snapshot package's codec); DecodeImage reconstructs it. The symbol table is
// saved verbatim (dense string slice), so symbol numbering survives the round
// trip and any raw symbols persisted by other components (strategy scan
// cursors, block indexes) stay valid against the restored collection. The
// prioritization strategies' queues are deliberately *not* checkpointed here:
// after a restart their leftover-scan path (GetComparisons) regenerates
// unexecuted comparisons from the restored block collection, which is the
// same recovery the paper's globality condition provides for comparisons
// skipped under load.
//
// Image layout (format v4), in order:
//
//	cleanClean bool | maxBlockSize varint | version uvarint
//	symbols: count, then the strings
//	blocks: count, then per block in symbol order the symbol's gap to the
//	        previous one and the block as blockCodec writes it (side A's
//	        posting run, then side B's), the bytes a spill segment stores
//	purged: the tombstoned symbols as a snapshot key set
//	profiles: count, then per profile in ID order the ID's gap, the source
//	          byte, the entity key, the attributes (count, then name and
//	          value strings) and the symbols of the blocks it was added to
//
// where a gap is the first value itself, then each value minus its
// predecessor minus one. Versions 2 and 3 were gob images of
// persistedCollection; DecodeGobImage still reads them.

// persistedProfile is the v2/v3 gob image of a profile (the runtime type carries
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

// persistedCollection is the gob image of a Collection in formats v2 and v3
// (symbol table + symbol-keyed postings; the pre-intern string-keyed v1 image
// is no longer readable — the snapshot container versioning surfaces that
// error). Decode-only: DecodeGobImage reads it.
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

// AppendImage appends the collection's flat image (see the layout above) to
// buf. Spilled blocks are copied out of their segments as stored, without a
// decode. It fails, instead of appending a partial image, when reading a
// spill segment fails.
func (c *Collection) AppendImage(buf []byte) ([]byte, error) {
	buf = snapshot.AppendBool(buf, c.cleanClean)
	buf = binary.AppendVarint(buf, int64(c.maxBlockSize))
	buf = binary.AppendUvarint(buf, c.version)

	n := c.tab.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = snapshot.AppendString(buf, c.tab.StringOf(intern.Sym(i)))
	}

	type span struct {
		sym    uint32
		lo, hi int
	}
	var arena []byte
	var spans []span
	for si := 0; si < c.store.NumShards(); si++ {
		err := c.store.RangeStored(si, func(sym uint32, enc []byte) bool {
			lo := len(arena)
			arena = append(arena, enc...)
			spans = append(spans, span{sym, lo, len(arena)})
			return true
		})
		if err != nil {
			return buf, fmt.Errorf("blocking: save checkpoint: %w", err)
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.sym, b.sym) })
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	var prev uint64
	for i, sp := range spans {
		buf = appendGap(buf, i, uint64(sp.sym), prev)
		buf = append(buf, arena[sp.lo:sp.hi]...)
		prev = uint64(sp.sym)
	}

	var purged []uint64
	for i := range c.shards {
		for sym := range c.shards[i].purged {
			purged = append(purged, uint64(sym))
		}
	}
	slices.Sort(purged)
	buf = snapshot.AppendSet(buf, purged)

	ids := make([]int, 0, len(c.profiles))
	for id := range c.profiles {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for i, id := range ids {
		if i > 0 {
			prev = uint64(ids[i-1])
		}
		buf = appendGap(buf, i, uint64(id), prev)
		p := c.profiles[id]
		buf = append(buf, byte(p.Source))
		buf = snapshot.AppendString(buf, p.EntityKey)
		buf = binary.AppendUvarint(buf, uint64(len(p.Attributes)))
		for _, a := range p.Attributes {
			buf = snapshot.AppendString(buf, a.Name)
			buf = snapshot.AppendString(buf, a.Value)
		}
		syms := c.ofProf[id]
		buf = binary.AppendUvarint(buf, uint64(len(syms)))
		for _, sym := range syms {
			buf = binary.AppendUvarint(buf, uint64(sym))
		}
	}
	return buf, nil
}

// appendGap appends the i-th of a strictly ascending sequence of values: the
// first value itself, a later one as its distance to prev minus one.
func appendGap(buf []byte, i int, v, prev uint64) []byte {
	if i == 0 {
		return binary.AppendUvarint(buf, v)
	}
	return binary.AppendUvarint(buf, v-prev-1)
}

// readGap reads the i-th value appendGap wrote, given the previous one, and
// fails unless it fits in limit.
func readGap(d *snapshot.Decoder, i int, prev, limit uint64) uint64 {
	v := d.Uvarint()
	if i > 0 {
		if v >= limit-prev {
			d.Failf("ascending value %d overflows %d", i, limit)
			return 0
		}
		v += prev + 1
	}
	if v > limit {
		d.Failf("value %d exceeds %d", v, limit)
		return 0
	}
	return v
}

// DecodeImage reconstructs a collection from an image AppendImage wrote, with
// an explicit shard count and storage backend (see NewCollectionStorage).
// Both are runtime knobs, not persisted state: an image restores to the same
// observable collection under any shard count and either backend. The
// restored index is trimmed to the budget before returning. Every count and
// length in data is checked against the bytes left before anything is
// allocated for it, and an image DecodeImage accepts re-encodes to data.
func DecodeImage(data []byte, keyer Keyer, shards int, scfg storage.Config) (*Collection, error) {
	d := snapshot.NewDecoder(data)
	cleanClean := d.Bool()
	maxBlockSize := d.Int()
	version := d.Uvarint()
	symbols := make([]string, d.Count(1))
	for i := range symbols {
		symbols[i] = d.String()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	tab, err := intern.FromSymbols(symbols)
	if err != nil {
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	c := NewCollectionStorage(cleanClean, maxBlockSize, keyer, shards, scfg)
	c.tab = tab
	c.version = version
	if err := c.decodeBody(d, symbols); err != nil {
		c.Close()
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	c.maintainStore()
	return c, nil
}

// decodeBody reads the blocks, tombstones and profiles into c, whose symbol
// table is already restored.
func (c *Collection) decodeBody(d *snapshot.Decoder, symbols []string) error {
	nsym := uint64(len(symbols))
	// A block takes at least three bytes: its gap and two run lengths.
	nblocks := d.Count(3)
	if nblocks > len(symbols) {
		d.Failf("%d blocks for %d symbols", nblocks, nsym)
	}
	var sym uint64
	for i := 0; i < nblocks && d.Err() == nil; i++ {
		if sym = readGap(d, i, sym, nsym-1); d.Err() != nil {
			break
		}
		a, rest, err := storage.ReadRun(d.Unread())
		var b []int
		if err == nil {
			b, rest, err = storage.ReadRun(rest)
		}
		if err != nil {
			d.Failf("block %d: %v", sym, err)
			break
		}
		d.Advance(rest)
		s := intern.Sym(sym)
		c.putBlock(s, &Block{Key: symbols[sym], Sym: s, A: a, B: b})
	}
	for _, p := range d.Set() {
		if p >= nsym {
			d.Failf("purged symbol %d outside table of %d", p, nsym)
			break
		}
		s := intern.Sym(p)
		c.shardOf(s).purged[s] = struct{}{}
	}
	// A profile takes at least five bytes: its gap, source, entity key
	// length, attribute count and symbol count.
	nprof := d.Count(5)
	c.profiles = make(map[int]*profile.Profile, nprof)
	c.ofProf = make(map[int][]intern.Sym, nprof)
	var id uint64
	for i := 0; i < nprof && d.Err() == nil; i++ {
		id = readGap(d, i, id, math.MaxInt)
		src := d.Bool()
		p := &profile.Profile{ID: int(id), EntityKey: d.String()}
		if src {
			p.Source = profile.SourceB
		}
		if n := d.Count(2); n > 0 {
			p.Attributes = make([]profile.Attribute, n)
			for j := range p.Attributes {
				p.Attributes[j] = profile.Attribute{Name: d.String(), Value: d.String()}
			}
		}
		syms := make([]intern.Sym, d.Count(1))
		for j := range syms {
			s := d.Uvarint()
			if s >= nsym {
				d.Failf("profile %d names symbol %d outside table of %d", id, s, nsym)
				break
			}
			syms[j] = intern.Sym(s)
		}
		c.profiles[p.ID] = p
		c.ofProf[p.ID] = syms
	}
	return d.Finish()
}

// DecodeGobImage reconstructs a collection from a format v2 or v3
// checkpoint, whose collection section is a gob image of persistedCollection.
// It is decode-only: images are written flat since v4.
func DecodeGobImage(r io.Reader, keyer Keyer, shards int, scfg storage.Config) (*Collection, error) {
	// Non-nil maps bound what a damaged gob count can allocate (DESIGN.md §9).
	img := persistedCollection{OfProf: map[int][]uint32{}}
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	tab, err := intern.FromSymbols(img.Symbols)
	if err != nil {
		return nil, fmt.Errorf("blocking: load checkpoint: %w", err)
	}
	c := NewCollectionStorage(img.CleanClean, img.MaxBlockSize, keyer, shards, scfg)
	c.tab = tab
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
