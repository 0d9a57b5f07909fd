package blocking

import (
	"fmt"

	"pier/internal/intern"
	"pier/internal/profile"
	"pier/internal/storage"
)

// This file is the collection's seam onto internal/storage: the posting index
// (formerly one map[intern.Sym]*Block per shard) lives behind a generic
// storage.PostingStore keyed by raw symbol value, sharded exactly like the
// index shards (shard of sym is sym & mask). The default backend is the same
// in-memory map as before; a positive storage.Config.Budget swaps in the
// disk-spill backend, which keeps cold blocks in a temp-file segment per
// shard so an unbounded stream runs in bounded RSS. The always-resident
// storage.Meta per symbol carries the two member counts, so the strategies'
// meta-only reads — liveness, block sizes, comparison counts — never fault
// spilled blocks in.

// blockResidentBytes approximates the fixed per-block heap cost charged
// against the storage budget: the Block struct, its map slot, the key header
// and average key bytes. Members are priced on top, per ID.
const blockResidentBytes = 96

// blockMemberBytes prices one posting-list member: the 8-byte ID plus
// amortized slice growth slack.
const blockMemberBytes = 16

// blockCodec serializes single blocks for the storage layer's spill segments
// and prices entries for its budget. It carries the owning collection for
// the symbol table; the table is append-only and concurrency-safe, so the
// codec is too.
type blockCodec struct{ c *Collection }

// AppendValue writes a block as two posting runs, A then B. The key string
// is not stored: it is recovered from the symbol table on decode, mirroring
// the checkpoint format (persist.go).
func (bc blockCodec) AppendValue(buf []byte, b *Block) []byte {
	return storage.AppendRun(storage.AppendRun(buf, b.A), b.B)
}

// DecodeValue rebuilds the block stored under key. Every decode allocates a
// fresh Block; pointers taken before an eviction keep serving the
// pre-eviction image.
func (bc blockCodec) DecodeValue(key uint32, data []byte) (*Block, error) {
	if int(key) >= bc.c.tab.Len() {
		return nil, fmt.Errorf("segment names symbol %d outside table of %d", key, bc.c.tab.Len())
	}
	a, rest, err := storage.ReadRun(data)
	if err != nil {
		return nil, fmt.Errorf("block %d side A: %w", key, err)
	}
	b, rest, err := storage.ReadRun(rest)
	if err != nil {
		return nil, fmt.Errorf("block %d side B: %w", key, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("block %d: %d trailing bytes", key, len(rest))
	}
	sym := intern.Sym(key)
	return &Block{Key: bc.c.tab.StringOf(sym), Sym: sym, A: a, B: b}, nil
}

func (bc blockCodec) MetaOf(b *Block) storage.Meta {
	return storage.Meta{A: int32(len(b.A)), B: int32(len(b.B))}
}

func (bc blockCodec) Size(m storage.Meta) int {
	return blockResidentBytes + blockMemberBytes*m.Size()
}

// NewCollectionStorage is NewCollection with everything explicit: a custom
// blocking-key extractor (nil means token blocking), the shard count (see
// normalizeShards; <= 0 selects the default), and the storage backend. A zero
// config keeps the unbounded in-memory index; a positive Budget bounds the
// resident bytes of the posting index, spilling cold blocks to temp files
// under Dir. Like the shard count, the backend is a residency knob, never a
// semantic one: the observable collection state is identical for every config
// (check.ShardedBatteryStorage pins this). Collections with a spill backend
// should be Closed when discarded so their temp files are removed promptly.
func NewCollectionStorage(cleanClean bool, maxBlockSize int, keyer Keyer, shards int, scfg storage.Config) *Collection {
	if keyer == nil {
		keyer = func(p *profile.Profile) []string { return p.Tokens() }
	}
	n := normalizeShards(shards)
	c := &Collection{
		cleanClean:   cleanClean,
		maxBlockSize: maxBlockSize,
		keyer:        keyer,
		tab:          intern.New(1 << 10),
		shards:       make([]shard, n),
		mask:         intern.Sym(n - 1),
		profiles:     make(map[int]*profile.Profile),
		ofProf:       make(map[int][]intern.Sym),
	}
	for i := range c.shards {
		c.shards[i].purged = make(map[intern.Sym]struct{})
	}
	c.store = storage.NewPostingStore[*Block](n, blockCodec{c}, scfg)
	return c
}

// getBlock returns the live block of sym, faulting it in when spilled.
func (c *Collection) getBlock(sym intern.Sym) (*Block, bool) {
	return c.store.Get(int(sym&c.mask), uint32(sym))
}

// putBlock installs (or refreshes the metadata of) the live block of sym.
// Every in-place mutation of a block must be followed by putBlock or
// delBlock — the storage budget is priced off the metadata captured here.
func (c *Collection) putBlock(sym intern.Sym, b *Block) {
	c.store.Put(int(sym&c.mask), uint32(sym), b)
}

// touchBlock refreshes the metadata of a block mutated in place through the
// pointer getBlock returned — the per-token ingest transition's cheap
// alternative to putBlock when the block already existed.
func (c *Collection) touchBlock(sym intern.Sym, b *Block) {
	c.store.Touch(int(sym&c.mask), uint32(sym), b)
}

// delBlock drops the live block of sym (no-op when absent, without fault-in).
func (c *Collection) delBlock(sym intern.Sym) {
	c.store.Delete(int(sym&c.mask), uint32(sym))
}

// hasBlock reports whether sym has a live block, without fault-in.
func (c *Collection) hasBlock(sym intern.Sym) bool {
	return c.store.Contains(int(sym&c.mask), uint32(sym))
}

// maintainStore lets the spill backend enforce its byte budget at a quiescent
// point. Once the collection publishes snapshots, eviction moves into
// PublishSnapshot (finishSnapSpill), which installs segment redirects in the
// same step so published views never dangle.
func (c *Collection) maintainStore() {
	if !c.snapOn {
		c.store.Maintain()
	}
}

// StorageResidentBytes returns the budget-priced resident bytes of the
// posting index — the number the spill backend holds at or under its budget
// between Maintain points. The in-memory backend reports its (unbounded)
// total.
func (c *Collection) StorageResidentBytes() int64 { return c.store.ResidentBytes() }

// StorageStats returns the spill backend's disk-traffic counters (zero under
// the in-memory backend).
func (c *Collection) StorageStats() storage.SpillStats { return c.store.Stats() }

// StorageErr returns the spill backend's first failed segment write, or nil.
// After one the index stays whole but fully resident: the budget no longer
// holds.
func (c *Collection) StorageErr() error { return c.store.Err() }

// Close releases the storage backend's spill files. Collections on the
// default in-memory backend need no Close, but calling it is always safe.
func (c *Collection) Close() error { return c.store.Close() }
