package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
)

// DedupStore is the executed-pair set of the live stream: a set of uint64
// pair keys with exact membership semantics (no false positives or
// negatives) under either backend. Implementations add no locking — the
// store is owned by the stream's loop goroutine, exactly like the map it
// replaces.
type DedupStore interface {
	// Has reports whether key is in the set.
	Has(key uint64) bool
	// Add inserts key; present keys are a no-op.
	Add(key uint64)
	// AddIfNew inserts key and reports whether it was absent: one probe
	// where Has followed by Add would make two.
	AddIfNew(key uint64) bool
	// Delete removes key; absent keys are a no-op.
	Delete(key uint64)
	// Len returns the exact number of keys in the set.
	Len() int
	// Range calls fn for every key until fn returns false, in unspecified
	// order. fn must not mutate the store. It returns a failed read of a
	// spill segment, which ends the pass early and which Err keeps as well.
	Range(fn func(key uint64) bool) error
	// Err returns the first failed segment write or read, or nil. After one
	// the set keeps new keys resident and stops spilling: the budget no
	// longer holds. Membership stays exact after a failed write; a probe
	// whose segment read fails answers "present", so no pair runs twice.
	Err() error
	// Close releases spill files. The store must not be used afterwards.
	Close() error
}

// NewDedupStore returns the backend selected by cfg: a flat in-memory table
// for a zero config, the LSM-style spill set for a positive budget.
func NewDedupStore(cfg Config) DedupStore {
	if cfg.Enabled() {
		return newSpillDedup(cfg)
	}
	return &memDedup{}
}

// LoadDedupStore returns the backend selected by cfg holding exactly keys,
// which must be strictly ascending: the restore half of a checkpoint's
// executed-pair image. Neither backend probes per key. The in-memory table is
// sized for every key up front and filled directly; the spill set writes keys
// beyond its active share straight into one sorted segment, keeping them
// resident instead if that write fails (see Err).
func LoadDedupStore(cfg Config, keys []uint64) DedupStore {
	if !cfg.Enabled() {
		d := &memDedup{}
		d.fill(keys)
		return d
	}
	d := newSpillDedup(cfg)
	d.n = len(keys)
	if len(keys) >= d.sealAt {
		sg, err := d.writeKeys(keys)
		if err == nil {
			d.segs = append(d.segs, sg)
			d.sealed = sg.count
			return d
		}
		d.fail(fmt.Errorf("storage: writing restored dedup segment: %w", err))
	}
	d.active.fill(keys)
	return d
}

// memDedup is the default backend: an open-addressing table of uint64 keys
// with linear probing, kept at most half full. An empty slot holds 0, so key
// 0 itself lives in a flag beside the table. Delete shifts the rest of the
// probe run back instead of leaving a tombstone, so the window sweep's
// deletes never lengthen a later probe.
type memDedup struct {
	slots   []uint64 // power-of-two length, or nil before the first key
	shift   uint     // 64 - log2(len(slots)): home slots come from the top bits
	n       int      // keys held in slots
	hasZero bool
}

// memDedupMinSlots is the table's first size.
const memDedupMinSlots = 64

// home is key's first probe position: Fibonacci hashing, which spreads the
// pair keys' packed ID halves over the top bits.
func (d *memDedup) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> d.shift }

func (d *memDedup) Has(key uint64) bool {
	if key == 0 {
		return d.hasZero
	}
	if d.n == 0 {
		return false
	}
	mask := uint64(len(d.slots) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.slots[i] {
		case key:
			return true
		case 0:
			return false
		}
	}
}

func (d *memDedup) Add(key uint64) { d.AddIfNew(key) }

func (d *memDedup) AddIfNew(key uint64) bool {
	if key == 0 {
		added := !d.hasZero
		d.hasZero = true
		return added
	}
	if 2*(d.n+1) > len(d.slots) {
		d.grow()
	}
	mask := uint64(len(d.slots) - 1)
	for i := d.home(key); ; i = (i + 1) & mask {
		switch d.slots[i] {
		case key:
			return false
		case 0:
			d.slots[i] = key
			d.n++
			return true
		}
	}
}

func (d *memDedup) Delete(key uint64) {
	if key == 0 {
		d.hasZero = false
		return
	}
	if d.n == 0 {
		return
	}
	mask := uint64(len(d.slots) - 1)
	i := d.home(key)
	for d.slots[i] != key {
		if d.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	// Close the hole at i: a later key of the run moves into it unless the
	// hole lies before that key's home slot, where a probe would never look.
	for j := (i + 1) & mask; d.slots[j] != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j]))&mask >= (j-i)&mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = 0
	d.n--
}

// fill loads distinct keys into an empty table sized so that the next
// AddIfNew still finds it at most half full.
func (d *memDedup) fill(keys []uint64) {
	if len(keys) > 0 && keys[0] == 0 {
		d.hasZero = true
		keys = keys[1:]
	}
	if len(keys) == 0 {
		return
	}
	size := memDedupMinSlots
	for size < 2*(len(keys)+1) {
		size *= 2
	}
	d.rehash(size, keys)
	d.n = len(keys)
}

// grow doubles the table (or allocates the first one) and reinserts.
func (d *memDedup) grow() {
	d.rehash(max(2*len(d.slots), memDedupMinSlots), d.slots)
}

// rehash replaces the table with an empty one of size slots and inserts the
// nonzero keys of keys, which must be distinct.
func (d *memDedup) rehash(size int, keys []uint64) {
	d.slots = make([]uint64, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, key := range keys {
		if key == 0 {
			continue
		}
		i := d.home(key)
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = key
	}
}

func (d *memDedup) Len() int {
	if d.hasZero {
		return d.n + 1
	}
	return d.n
}

func (d *memDedup) Range(fn func(key uint64) bool) error {
	if d.hasZero && !fn(0) {
		return nil
	}
	for _, key := range d.slots {
		if key != 0 && !fn(key) {
			return nil
		}
	}
	return nil
}

func (d *memDedup) Err() error   { return nil }
func (d *memDedup) Close() error { return nil }

// spillDedup bounds the resident set LSM-style. Recent keys live in the
// active table, a flat open-addressing table like memDedup; when the active
// and tombstone tables together reach sealAt keys, the active table is
// radix-sorted and sealed into an immutable segment of raw big-endian uint64s
// on disk. Lookups consult the active table, then the tombstone table, then
// the segments newest first. Each segment keeps a resident blocked bloom
// filter, which answers from one 64-byte block, and a fence index, so a miss
// almost never touches disk and a hit costs one bounded ReadAt. Deletes of
// sealed keys become tombstones.
//
// Segments compact size-tiered: after a seal, the two newest segments merge
// while the older holds at most twice the newer's keys. Sizes then more than
// double from newest to oldest, and since a seal writes more than sealAt/2
// keys, a lookup probes at most ⌈log2(sealed/sealAt)⌉+1 segments. Merges
// stream both inputs in large chunks. Tombstones drop in a full merge of
// every segment, which runs when they reach half of sealAt or a quarter of
// the sealed keys.
//
// The budget prices the two tables at dedupKeyCost bytes per key: a table
// kept at most half full holds 16–32 bytes per key, so the tables stay
// inside the budget up to each one's rounding to its 64-slot minimum. Resident
// overhead per sealed key is ~1.4 bytes (10 bloom bits and one fence word per
// 64 keys), plus one cached 512-byte fence block per segment; it rides on top
// of the budget.
//
// Membership is exact: blooms only short-circuit misses, and segment reads
// finish with a binary search over the sorted keys. Invariants: a key lives
// in the active table or in at most one segment, never both; tombstones only
// name sealed keys.
type spillDedup struct {
	dir    string // own temp dir, created at first seal
	parent string
	sealAt int // seal the active set at this many active+tombstone keys

	active memDedup
	tombs  memDedup
	segs   []*dedupSeg // oldest first
	sealed int         // keys held in segs, tombstoned ones included
	n      int         // exact live count
	wbuf   []byte      // segment write buffer, reused
	rbufs  [][]byte    // segment read buffers, one per merging cursor, reused
	err    error       // first failed segment write or read; sealing and merging stop once set
	closed bool
}

// dedupKeyCost is the budget price of one active or tombstone key: the bytes
// a key takes in a flat table that has just doubled.
const dedupKeyCost = 32

// dedupChunk is the byte size of one segment read or write while merging,
// scanning and sealing.
const dedupChunk = 64 << 10

func newSpillDedup(cfg Config) *spillDedup {
	return &spillDedup{
		parent: cfg.Dir,
		sealAt: max(int(cfg.Budget/dedupKeyCost), 1024),
	}
}

func (d *spillDedup) Has(key uint64) bool {
	if d.active.Has(key) {
		return true
	}
	if d.tombs.Has(key) {
		return false
	}
	found, _ := d.inSegs(key) // a failed read answers "present"
	return found
}

func (d *spillDedup) Add(key uint64) { d.AddIfNew(key) }

func (d *spillDedup) AddIfNew(key uint64) bool {
	if d.active.Has(key) {
		return false
	}
	if d.tombs.Has(key) {
		// The sealed copy becomes live again; no second copy needed.
		d.tombs.Delete(key)
		d.n++
		return true
	}
	if found, _ := d.inSegs(key); found {
		return false
	}
	d.active.Add(key)
	d.n++
	d.maintain()
	return true
}

func (d *spillDedup) Delete(key uint64) {
	if d.active.Has(key) {
		d.active.Delete(key)
		d.n--
		return
	}
	if d.tombs.Has(key) {
		return
	}
	// After a failed read the key may stay: Len counts it, and a probe
	// answers "present" either way.
	if found, err := d.inSegs(key); found && err == nil {
		d.tombs.Add(key)
		d.n--
		d.maintain()
	}
}

func (d *spillDedup) Len() int { return d.n }

func (d *spillDedup) Range(fn func(key uint64) bool) error {
	stop := false
	d.active.Range(func(key uint64) bool {
		stop = !fn(key)
		return !stop
	})
	if stop {
		return nil
	}
	for _, sg := range d.segs {
		c := sg.cursor(d.readBuf(0))
		for ; c.valid; c.next() {
			if !d.tombs.Has(c.head) && !fn(c.head) {
				return nil
			}
		}
		if c.err != nil {
			d.fail(c.err)
			return c.err
		}
	}
	return nil
}

func (d *spillDedup) Err() error { return d.err }

// fail keeps the first failure for Err.
func (d *spillDedup) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *spillDedup) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	for _, sg := range d.segs {
		sg.release()
	}
	d.segs = nil
	if d.dir != "" {
		return os.RemoveAll(d.dir)
	}
	return nil
}

// inSegs probes the segments for key. A failed read is kept for Err and
// returned with found set: a pair that may have run must not run again.
func (d *spillDedup) inSegs(key uint64) (found bool, err error) {
	if len(d.segs) == 0 {
		return false, nil
	}
	// One hash pair serves every segment's bloom. Newest first: recent keys
	// are the likelier hits.
	h1, h2 := bloomHashes(key)
	for i := len(d.segs) - 1; i >= 0; i-- {
		found, err := d.segs[i].contains(key, h1, h2)
		if err != nil {
			d.fail(err)
			return true, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// maintain runs a full merge once tombstones pile up, then seals an
// over-budget active set and compacts the newest segments. After a failed
// segment write or read it does nothing.
func (d *spillDedup) maintain() {
	if d.err != nil {
		return
	}
	if nt := d.tombs.Len(); nt > 0 && (2*nt >= d.sealAt || 4*nt > d.sealed) {
		d.merge()
		if d.err != nil {
			return
		}
	}
	if d.active.Len()+d.tombs.Len() >= d.sealAt {
		d.seal()
		d.compact()
	}
}

// seal writes the active set into a new, newest segment. The table's keys
// are gathered and radix-sorted inside its own slots, so a failed write
// rebuilds the active set from them and records the error.
func (d *spillDedup) seal() {
	if d.active.Len() == 0 {
		return
	}
	slots := d.active.slots
	keys := slots[:0]
	for _, k := range slots {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	if d.active.hasZero {
		keys = append(keys, 0) // room is left: the table is at most half full
	}
	// The table's free half is the radix buffer.
	SortKeys(keys, slots[len(keys):])
	d.active = memDedup{}
	sg, err := d.writeKeys(keys)
	if err != nil {
		d.active.fill(keys)
		d.fail(fmt.Errorf("storage: sealing dedup segment: %w", err))
		return
	}
	d.segs = append(d.segs, sg)
	d.sealed += sg.count
}

// compact merges the two newest segments while the older holds at most
// twice the newer's keys, so segment sizes more than double from newest to
// oldest. Tombstoned keys are carried along; only a full merge drops them.
func (d *spillDedup) compact() {
	for d.err == nil && len(d.segs) >= 2 {
		n := len(d.segs)
		if d.segs[n-2].count > 2*d.segs[n-1].count {
			return
		}
		d.mergeFrom(n-2, false)
	}
}

// merge rewrites every segment into one, dropping tombstoned keys.
func (d *spillDedup) merge() { d.mergeFrom(0, true) }

// mergeFrom rewrites segs[from:] into one segment, dropping tombstoned keys
// (and their tombstones) when dropTombs is set. Segments hold disjoint key
// sets, so the merge is a plain k-way minimum take. A failed read or write
// keeps the segments and tombstones and records the error.
func (d *spillDedup) mergeFrom(from int, dropTombs bool) {
	in := d.segs[from:]
	if len(in) == 0 {
		return
	}
	count := 0
	cursors := make([]*segCursor, len(in))
	for i, sg := range in {
		count += sg.count
		cursors[i] = sg.cursor(d.readBuf(i))
	}
	if dropTombs {
		count -= d.tombs.Len()
	}
	w, err := d.newSegWriter(count)
	for err == nil {
		best := -1
		for i, c := range cursors {
			if c.valid && (best < 0 || c.head < cursors[best].head) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		k := cursors[best].head
		cursors[best].next()
		if !dropTombs || !d.tombs.Has(k) {
			w.add(k)
		}
	}
	for _, c := range cursors {
		if c.err != nil && err == nil {
			// A failed read ended that cursor early: a merged segment
			// would lack its keys.
			err = c.err
		}
	}
	var merged *dedupSeg
	if w != nil {
		merged, err = w.finish(err)
	}
	if err != nil {
		d.fail(fmt.Errorf("storage: merging dedup segments: %w", err))
		return
	}
	for _, sg := range in {
		d.sealed -= sg.count
		sg.release()
	}
	d.segs = d.segs[:from]
	if merged.count == 0 {
		merged.release()
	} else {
		d.segs = append(d.segs, merged)
		d.sealed += merged.count
	}
	if dropTombs {
		d.tombs = memDedup{}
	}
}

// writeKeys writes the ascending keys into a new segment.
func (d *spillDedup) writeKeys(keys []uint64) (*dedupSeg, error) {
	w, err := d.newSegWriter(len(keys))
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		w.add(k)
	}
	return w.finish(nil)
}

// segWriter streams ascending keys into a new segment file through the
// store's reused chunk buffer, building the bloom filter and fence index as
// it goes.
type segWriter struct {
	d   *spillDedup
	sg  *dedupSeg
	i   int
	err error
}

// newSegWriter creates the file of a segment that will hold count keys,
// creating the store's spill directory on first use.
func (d *spillDedup) newSegWriter(count int) (*segWriter, error) {
	if d.dir == "" {
		parent := d.parent
		if parent == "" {
			parent = os.TempDir()
		}
		dir, err := os.MkdirTemp(parent, "pier-dedup-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
	}
	f, err := os.CreateTemp(d.dir, "dedup-*.seg")
	if err != nil {
		return nil, err
	}
	if cap(d.wbuf) < dedupChunk {
		d.wbuf = make([]byte, 0, dedupChunk)
	}
	d.wbuf = d.wbuf[:0]
	return &segWriter{d: d, sg: newDedupSeg(f, count)}, nil
}

// add appends the next key, which must exceed the previous one.
func (w *segWriter) add(key uint64) {
	if w.err != nil {
		return
	}
	if w.i < w.sg.count {
		w.sg.index(w.i, key)
	}
	w.i++
	w.d.wbuf = binary.BigEndian.AppendUint64(w.d.wbuf, key)
	if len(w.d.wbuf) == cap(w.d.wbuf) {
		w.flush()
	}
}

func (w *segWriter) flush() {
	if _, err := w.sg.f.Write(w.d.wbuf); err != nil && w.err == nil {
		w.err = err
	}
	w.d.wbuf = w.d.wbuf[:0]
}

// finish flushes the segment and returns it. On failure — a write error, a
// key count off the one announced, or the caller's own err — it removes the
// file and returns the error.
func (w *segWriter) finish(err error) (*dedupSeg, error) {
	w.flush()
	if err == nil {
		err = w.err
	}
	if err == nil && w.i != w.sg.count {
		err = fmt.Errorf("segment writer got %d keys, expected %d", w.i, w.sg.count)
	}
	if err != nil {
		w.sg.release()
		return nil, err
	}
	return w.sg, nil
}

// fenceStride is the number of keys per fence pointer: a positive segment
// probe reads at most one stride-sized block.
const fenceStride = 64

// dedupSeg is one immutable sorted run of uint64 keys with its resident
// probe accelerators.
type dedupSeg struct {
	f        *os.File
	path     string
	count    int
	bloom    []uint64 // bloomWords words per block
	blocks   uint64   // bloom blocks, a power of two
	fences   []uint64
	min, max uint64
	// block is the fence block the last probe read, blockAt its index (-1
	// for none). A leftover scan probes the pairs of one anchor profile in
	// a row, and their keys share a block.
	block   [fenceStride * 8]byte
	blockAt int
}

// bloomWords is the size of one bloom block: eight words, one 64-byte cache
// line. A key sets and tests bloomProbes bits of one block.
const (
	bloomWords  = 8
	bloomProbes = 7
)

func newDedupSeg(f *os.File, count int) *dedupSeg {
	// About 10 bits per key, as whole 512-bit blocks.
	blocks := uint64(1)
	for blocks*bloomWords*64 < uint64(count)*10 {
		blocks <<= 1
	}
	return &dedupSeg{
		f:       f,
		path:    f.Name(),
		count:   count,
		bloom:   make([]uint64, blocks*bloomWords),
		blocks:  blocks,
		fences:  make([]uint64, 0, count/fenceStride+1),
		blockAt: -1,
	}
}

// release closes and removes the segment file.
func (sg *dedupSeg) release() {
	sg.f.Close()
	os.Remove(sg.path)
}

// index records key (the i-th ascending key of the segment) into the bloom
// and fence structures at write time.
func (sg *dedupSeg) index(i int, key uint64) {
	if i == 0 {
		sg.min = key
	}
	sg.max = key
	if i%fenceStride == 0 {
		sg.fences = append(sg.fences, key)
	}
	h1, h2 := bloomHashes(key)
	blk := sg.bloomBlock(h1)
	for k := 0; k < bloomProbes; k++ {
		bit := (h2 >> (9 * k)) & 511
		blk[bit/64] |= 1 << (bit % 64)
	}
}

// bloomHashes derives the hash pair a segment bloom probes with: h1 picks
// the block, 9-bit slices of h2 the bits inside it.
func bloomHashes(key uint64) (h1, h2 uint64) {
	return mix64(key), mix64(key ^ 0x9e3779b97f4a7c15)
}

// bloomBlock returns the block h1 selects.
func (sg *dedupSeg) bloomBlock(h1 uint64) []uint64 {
	at := (h1 & (sg.blocks - 1)) * bloomWords
	return sg.bloom[at : at+bloomWords : at+bloomWords]
}

// bloomHas checks the bloom bits of a key hashed by bloomHashes.
func (sg *dedupSeg) bloomHas(h1, h2 uint64) bool {
	blk := sg.bloomBlock(h1)
	for k := 0; k < bloomProbes; k++ {
		bit := (h2 >> (9 * k)) & 511
		if blk[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// contains is the exact membership probe of key, hashed by bloomHashes:
// range check, bloom, fence-guided block read (none when the block is the
// one the last probe read), binary search within the block.
func (sg *dedupSeg) contains(key, h1, h2 uint64) (bool, error) {
	if sg.count == 0 || key < sg.min || key > sg.max {
		return false, nil
	}
	if !sg.bloomHas(h1, h2) {
		return false, nil
	}
	// The last fence at or below key; fences[0] is min, so there is one.
	lo, hi := 0, len(sg.fences)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if sg.fences[mid] <= key {
			lo = mid
		} else {
			hi = mid
		}
	}
	base := lo * fenceStride
	n := min(fenceStride, sg.count-base)
	block := sg.block[:n*8]
	if sg.blockAt != lo {
		sg.blockAt = -1
		if _, err := sg.f.ReadAt(block, int64(base)*8); err != nil {
			return false, fmt.Errorf("storage: dedup segment read %s: %w", sg.path, err)
		}
		sg.blockAt = lo
	}
	lo, hi = 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := binary.BigEndian.Uint64(block[mid*8:])
		switch {
		case v == key:
			return true, nil
		case v < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false, nil
}

// segCursor streams one segment's keys in ascending order, dedupChunk bytes
// per read. A failed read ends it early and is kept in err.
type segCursor struct {
	sg    *dedupSeg
	buf   []byte // the current chunk; pos indexes its next key
	pos   int
	off   int64 // file offset of the next chunk
	head  uint64
	valid bool
	err   error
}

// cursor returns a cursor over the segment that reads into buf.
func (sg *dedupSeg) cursor(buf []byte) *segCursor {
	c := &segCursor{sg: sg, buf: buf[:0]}
	c.next()
	return c
}

// readBuf returns the i-th reusable segment read buffer, dedupChunk bytes.
func (d *spillDedup) readBuf(i int) []byte {
	for len(d.rbufs) <= i {
		d.rbufs = append(d.rbufs, make([]byte, dedupChunk))
	}
	return d.rbufs[i]
}

func (c *segCursor) next() {
	if c.pos == len(c.buf) {
		left := int64(c.sg.count)*8 - c.off
		if left == 0 {
			c.valid = false
			return
		}
		c.buf = c.buf[:min(left, int64(cap(c.buf)))]
		if _, err := c.sg.f.ReadAt(c.buf, c.off); err != nil {
			c.err = fmt.Errorf("storage: dedup segment read %s: %w", c.sg.path, err)
			c.valid = false
			return
		}
		c.off += int64(len(c.buf))
		c.pos = 0
	}
	c.head = binary.BigEndian.Uint64(c.buf[c.pos:])
	c.pos += 8
	c.valid = true
}

// SortKeys sorts keys ascending in place: an LSD radix sort over bytes that
// skips every byte position on which all keys agree, so pair keys whose IDs
// use a few bits of each half sort in a few linear passes. The passes
// alternate between keys and a buffer of the same length: scratch when it is
// long enough, a new one otherwise.
func SortKeys(keys, scratch []uint64) {
	if len(keys) < 2 {
		return
	}
	if len(scratch) < len(keys) {
		scratch = make([]uint64, len(keys))
	}
	src, dst := keys, scratch[:len(keys)]
	var differ uint64 // the bits on which some key differs from the first
	for _, k := range src {
		differ |= k ^ src[0]
	}
	var counts [8][256]int
	var passes []int // the byte positions on which keys differ
	for b := range counts {
		if byte(differ>>(8*b)) != 0 {
			passes = append(passes, b)
		}
	}
	for _, k := range src {
		for _, b := range passes {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for _, b := range passes {
		c := &counts[b]
		at := 0
		for d := range c {
			n := c[d]
			c[d] = at
			at += n
		}
		for _, k := range src {
			d := byte(k >> (8 * b))
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer for the bloom's hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
