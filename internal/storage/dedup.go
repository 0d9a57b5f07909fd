package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sort"
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
			return d
		}
		d.fail(fmt.Errorf("storage: writing restored dedup segment: %w", err))
	}
	d.active = make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		d.active[k] = struct{}{}
	}
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

// spillDedup bounds the resident set LSM-style: recent keys live in an
// in-memory active map; when the active set (plus tombstones) outgrows its
// share of the budget it is sealed into an immutable sorted segment of raw
// big-endian uint64s on disk. Lookups consult the active map, then the
// tombstone map, then each segment — guarded by an in-memory bloom bitset
// and fence index per segment, so a miss almost never touches disk and a
// hit costs one bounded ReadAt. Deletes of sealed keys become tombstones;
// when tombstones pile up or segments proliferate, everything is merged
// into one segment and the tombstones drop.
//
// Resident overhead per sealed key is ~1.5 bytes (10 bloom bits + one fence
// word per 64 keys) — the part of the set that cannot spill; the budget
// proper prices the active and tombstone maps.
//
// Membership is exact: blooms only short-circuit misses, and segment reads
// finish with a binary search over the sorted keys. Invariants: a key lives
// in the active map or in at most one segment, never both; tombstones only
// name sealed keys.
type spillDedup struct {
	dir    string // own temp dir, created at first seal
	parent string
	sealAt int // seal the active set at this many active+tombstone keys

	active map[uint64]struct{}
	tombs  map[uint64]struct{}
	segs   []*dedupSeg
	n      int   // exact live count
	err    error // first failed segment write or read; sealing and merging stop once set
	closed bool
}

// dedupEntryCost approximates the resident bytes of one key in a Go map —
// the unit the budget is priced in.
const dedupEntryCost = 48

// maxDedupSegs bounds the per-lookup bloom cascade; exceeding it triggers a
// full merge.
const maxDedupSegs = 16

func newSpillDedup(cfg Config) *spillDedup {
	sealAt := int(cfg.Budget / dedupEntryCost)
	if sealAt < 1024 {
		sealAt = 1024
	}
	return &spillDedup{
		parent: cfg.Dir,
		sealAt: sealAt,
		active: make(map[uint64]struct{}),
		tombs:  make(map[uint64]struct{}),
	}
}

func (d *spillDedup) Has(key uint64) bool {
	if _, ok := d.active[key]; ok {
		return true
	}
	if _, ok := d.tombs[key]; ok {
		return false
	}
	found, _ := d.inSegs(key) // a failed read answers "present"
	return found
}

func (d *spillDedup) Add(key uint64) { d.AddIfNew(key) }

func (d *spillDedup) AddIfNew(key uint64) bool {
	if _, ok := d.active[key]; ok {
		return false
	}
	if _, ok := d.tombs[key]; ok {
		// The sealed copy becomes live again; no second copy needed.
		delete(d.tombs, key)
		d.n++
		return true
	}
	if found, _ := d.inSegs(key); found {
		return false
	}
	d.active[key] = struct{}{}
	d.n++
	d.maintain()
	return true
}

func (d *spillDedup) Delete(key uint64) {
	if _, ok := d.active[key]; ok {
		delete(d.active, key)
		d.n--
		return
	}
	if _, ok := d.tombs[key]; ok {
		return
	}
	// After a failed read the key may stay: Len counts it, and a probe
	// answers "present" either way.
	if found, err := d.inSegs(key); found && err == nil {
		d.tombs[key] = struct{}{}
		d.n--
		d.maintain()
	}
}

func (d *spillDedup) Len() int { return d.n }

func (d *spillDedup) Range(fn func(key uint64) bool) error {
	for k := range d.active {
		if !fn(k) {
			return nil
		}
	}
	for _, sg := range d.segs {
		done := false
		err := sg.scan(func(key uint64) bool {
			if _, dead := d.tombs[key]; dead {
				return true
			}
			if !fn(key) {
				done = true
				return false
			}
			return true
		})
		if err != nil {
			d.fail(err)
			return err
		}
		if done {
			return nil
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
		sg.f.Close()
		os.Remove(sg.path)
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

// maintain seals an over-budget active set and merges when segments or
// tombstones pile up. After a failed segment write or read it does nothing.
func (d *spillDedup) maintain() {
	if d.err != nil {
		return
	}
	if len(d.active)+len(d.tombs) >= d.sealAt {
		d.seal()
		if d.err != nil {
			return
		}
	}
	sealed := 0
	for _, sg := range d.segs {
		sealed += sg.count
	}
	if len(d.segs) > maxDedupSegs || (sealed > 0 && len(d.tombs)*4 > sealed) {
		d.merge()
	}
}

// seal freezes the active set into a sorted segment. A failed write keeps
// the active set and records the error.
func (d *spillDedup) seal() {
	if len(d.active) == 0 {
		return
	}
	keys := make([]uint64, 0, len(d.active))
	for k := range d.active {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	sg, err := d.writeKeys(keys)
	if err != nil {
		d.fail(fmt.Errorf("storage: sealing dedup segment: %w", err))
		return
	}
	d.segs = append(d.segs, sg)
	d.active = make(map[uint64]struct{})
}

// merge rewrites every segment into one, dropping tombstoned keys. Segments
// hold disjoint key sets, so the merge is a plain k-way minimum take. A
// failed write keeps the segments and tombstones and records the error.
func (d *spillDedup) merge() {
	if len(d.segs) == 0 {
		return
	}
	total := 0
	for _, sg := range d.segs {
		total += sg.count
	}
	count := total - len(d.tombs)
	cursors := make([]*segCursor, len(d.segs))
	for i, sg := range d.segs {
		cursors[i] = sg.cursor()
	}
	merged, err := d.writeSeg(count, func(yield func(uint64)) {
		for {
			best := -1
			for i, cur := range cursors {
				if !cur.valid {
					continue
				}
				if best < 0 || cur.head < cursors[best].head {
					best = i
				}
			}
			if best < 0 {
				return
			}
			k := cursors[best].head
			cursors[best].next()
			if _, dead := d.tombs[k]; dead {
				continue
			}
			yield(k)
		}
	})
	for _, cur := range cursors {
		if cur.err != nil {
			// A failed read ended that cursor early: a merged segment
			// would lack its keys.
			if err == nil {
				merged.f.Close()
				os.Remove(merged.path)
			}
			err = cur.err
			break
		}
	}
	if err != nil {
		d.fail(fmt.Errorf("storage: merging dedup segments: %w", err))
		return
	}
	for _, sg := range d.segs {
		sg.f.Close()
		os.Remove(sg.path)
	}
	if merged.count == 0 {
		merged.f.Close()
		os.Remove(merged.path)
		d.segs = d.segs[:0]
	} else {
		d.segs = append(d.segs[:0], merged)
	}
	d.tombs = make(map[uint64]struct{})
}

// writeKeys writes the ascending keys into a new segment.
func (d *spillDedup) writeKeys(keys []uint64) (*dedupSeg, error) {
	return d.writeSeg(len(keys), func(yield func(uint64)) {
		for _, k := range keys {
			yield(k)
		}
	})
}

// writeSeg streams count ascending keys from emit into a new segment file,
// building the bloom bitset and fence index as it goes.
func (d *spillDedup) writeSeg(count int, emit func(yield func(uint64))) (*dedupSeg, error) {
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
	sg := newDedupSeg(f, count)
	w := bufio.NewWriter(f)
	var werr error
	i := 0
	var buf [8]byte
	emit(func(key uint64) {
		if werr != nil {
			return
		}
		sg.index(i, key)
		binary.BigEndian.PutUint64(buf[:], key)
		if _, err := w.Write(buf[:]); err != nil {
			werr = err
		}
		i++
	})
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, werr
	}
	if i != count {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("segment writer emitted %d keys, expected %d", i, count)
	}
	return sg, nil
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
	bloom    []uint64
	bloomLen uint64 // bits, power of two
	fences   []uint64
	min, max uint64
}

func newDedupSeg(f *os.File, count int) *dedupSeg {
	bits := uint64(64)
	for bits < uint64(count)*10 {
		bits <<= 1
	}
	return &dedupSeg{
		f:        f,
		path:     f.Name(),
		count:    count,
		bloom:    make([]uint64, bits/64),
		bloomLen: bits,
		fences:   make([]uint64, 0, count/fenceStride+1),
	}
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
	for k := uint64(0); k < 7; k++ {
		bit := (h1 + k*h2) & (sg.bloomLen - 1)
		sg.bloom[bit/64] |= 1 << (bit % 64)
	}
}

// bloomHashes derives the double-hashing pair a segment bloom probes with.
func bloomHashes(key uint64) (h1, h2 uint64) {
	return mix64(key), mix64(key^0x9e3779b97f4a7c15) | 1
}

// bloomHas checks the bloom bits of a key hashed by bloomHashes.
func (sg *dedupSeg) bloomHas(h1, h2 uint64) bool {
	for k := uint64(0); k < 7; k++ {
		bit := (h1 + k*h2) & (sg.bloomLen - 1)
		if sg.bloom[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// contains is the exact membership probe of key, hashed by bloomHashes:
// range check, bloom, fence-guided block read, binary search within the
// block.
func (sg *dedupSeg) contains(key, h1, h2 uint64) (bool, error) {
	if sg.count == 0 || key < sg.min || key > sg.max {
		return false, nil
	}
	if !sg.bloomHas(h1, h2) {
		return false, nil
	}
	fi := sort.Search(len(sg.fences), func(i int) bool { return sg.fences[i] > key }) - 1
	if fi < 0 {
		return false, nil
	}
	base := fi * fenceStride
	n := fenceStride
	if base+n > sg.count {
		n = sg.count - base
	}
	var block [fenceStride * 8]byte
	if _, err := sg.f.ReadAt(block[:n*8], int64(base)*8); err != nil {
		return false, fmt.Errorf("storage: dedup segment read %s: %w", sg.path, err)
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
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

// scan streams the segment's keys in ascending order until fn returns false
// or a read fails.
func (sg *dedupSeg) scan(fn func(key uint64) bool) error {
	r := bufio.NewReader(io.NewSectionReader(sg.f, 0, int64(sg.count)*8))
	var buf [8]byte
	for i := 0; i < sg.count; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return fmt.Errorf("storage: dedup segment scan %s: %w", sg.path, err)
		}
		if !fn(binary.BigEndian.Uint64(buf[:])) {
			return nil
		}
	}
	return nil
}

// segCursor streams one segment for merging. A failed read ends it early and
// is kept in err.
type segCursor struct {
	r     *bufio.Reader
	left  int
	head  uint64
	valid bool
	path  string
	err   error
}

func (sg *dedupSeg) cursor() *segCursor {
	c := &segCursor{
		r:    bufio.NewReader(io.NewSectionReader(sg.f, 0, int64(sg.count)*8)),
		left: sg.count,
		path: sg.path,
	}
	c.next()
	return c
}

func (c *segCursor) next() {
	if c.left == 0 {
		c.valid = false
		return
	}
	var buf [8]byte
	if _, err := io.ReadFull(c.r, buf[:]); err != nil {
		c.err = fmt.Errorf("storage: dedup segment merge read %s: %w", c.path, err)
		c.valid = false
		return
	}
	c.head = binary.BigEndian.Uint64(buf[:])
	c.left--
	c.valid = true
}

// mix64 is the SplitMix64 finalizer — a cheap, well-distributed 64-bit
// mixer for the bloom's double hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
