package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync"
)

// This file is the memory-bounded PostingStore backend. Each shard is a
// resident overlay of blocks over one immutable flat segment file. A block
// enters the overlay in one of two ways: a Get faults it in alone (one ReadAt
// through the segment's fence and offset table, which stay resident), or a
// write mutates it. The per-key Meta map stays resident as well, so
// existence, size, and count queries (the strategies' hot read paths) never
// touch disk.
//
// Maintain evicts the least-recently-used shard's overlay while resident
// bytes exceed the budget. An overlay holding nothing newer than its segment
// is simply dropped. Otherwise the eviction writes a new segment by merging:
// untouched byte runs are copied from the old segment, dirty blocks are
// encoded, and only the dirty keys are sorted. Segments are write-once.
// Frozen handles hold their own file descriptor on one, so the RCU snapshot
// layer keeps serving a retired segment after the store has replaced and
// unlinked it (the file data lives until the last descriptor closes).
//
// Error policy. A failed segment write or spill-directory creation loses
// nothing: the overlay stays resident (over budget), the store stops
// spilling, and Err reports the first failure. A failed fault-in is data loss
// for the caller that needed the block, so it panics with a "storage:"
// message instead of limping on with a silently truncated index. A failed
// scan (Range, RangeStored) is kept for Err like a failed write, and
// RangeStored returns it, so a checkpoint fails instead of writing a partial
// image.

// Segment layout, every integer little-endian:
//
//	magic | n uint32 | n sorted uint32 keys | n+1 uint32 offsets | values
//
// The offsets are relative to the values section and bracket each key's
// codec-encoded value: value i is values[off[i]:off[i+1]], off[0] is 0 and
// off[n] is the length of the values section.
var segMagic = [4]byte{'P', 'S', 'G', '2'}

// segValuesAt returns the file offset of the values section of an n-key
// segment.
func segValuesAt(n int) int64 { return int64(len(segMagic)) + 4 + 8*int64(n) + 4 }

// AppendRun appends ids as a posting run: a uvarint count, then each ID as
// the zigzag varint of its difference from the previous one (from 0 for the
// first). A posting list in arrival order is nearly ascending, so a member
// costs one or two bytes.
func AppendRun(buf []byte, ids []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := 0
	for _, id := range ids {
		buf = binary.AppendVarint(buf, int64(id-prev))
		prev = id
	}
	return buf
}

// ReadRun decodes one run written by AppendRun from the front of data and
// returns it with the bytes that follow. An empty run decodes as nil; a
// truncated, overlong or non-minimal varint is an error, so a run ReadRun
// accepts re-encodes to the bytes it was read from.
func ReadRun(data []byte) ([]int, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || !minimal(data, k) {
		return nil, nil, errors.New("truncated, overlong or non-minimal run length")
	}
	data = data[k:]
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("run of %d members in %d bytes", n, len(data))
	}
	if n == 0 {
		return nil, data, nil
	}
	ids := make([]int, n)
	prev := 0
	for i := range ids {
		d, k := binary.Varint(data)
		if k <= 0 || !minimal(data, k) {
			return nil, nil, fmt.Errorf("truncated, overlong or non-minimal member %d of %d", i, n)
		}
		prev += int(d)
		ids[i] = prev
		data = data[k:]
	}
	return ids, data, nil
}

// minimal reports whether the k-byte varint at the front of data is in its
// shortest form: only a one-byte varint may end in a zero byte.
func minimal(data []byte, k int) bool { return k == 1 || data[k-1] != 0 }

// parseSegment validates the framing of a whole segment image and splits it
// into its fence, offset table, and values section.
func parseSegment(data []byte) (keys, offs []uint32, values []byte, err error) {
	if len(data) < len(segMagic)+4 {
		return nil, nil, nil, fmt.Errorf("segment of %d bytes is shorter than its header", len(data))
	}
	if [4]byte(data[:4]) != segMagic {
		return nil, nil, nil, fmt.Errorf("bad segment magic %q", data[:4])
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	at := segValuesAt(n)
	if int64(len(data)) < at {
		return nil, nil, nil, fmt.Errorf("segment of %d bytes cannot hold the tables of %d keys", len(data), n)
	}
	keys = make([]uint32, n)
	offs = make([]uint32, n+1)
	p := 8
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(data[p:])
		p += 4
		if i > 0 && keys[i] <= keys[i-1] {
			return nil, nil, nil, fmt.Errorf("segment keys not strictly ascending at %d", i)
		}
	}
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint32(data[p:])
		p += 4
		if i > 0 && offs[i] < offs[i-1] {
			return nil, nil, nil, fmt.Errorf("segment offsets decrease at %d", i)
		}
	}
	values = data[at:]
	if offs[0] != 0 || int64(offs[n]) != int64(len(values)) {
		return nil, nil, nil, fmt.Errorf("segment offsets span [%d, %d], values section holds %d bytes", offs[0], offs[n], len(values))
	}
	return keys, offs, values, nil
}

// decodeSegment decodes every value of a whole segment image, in key order.
func decodeSegment[V any](data []byte, codec Codec[V]) ([]uint32, []V, error) {
	keys, offs, values, err := parseSegment(data)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]V, len(keys))
	for i, k := range keys {
		if vals[i], err = codec.DecodeValue(k, values[offs[i]:offs[i+1]]); err != nil {
			return nil, nil, fmt.Errorf("segment key %d: %w", k, err)
		}
	}
	return keys, vals, nil
}

// writeSegment writes to w the merge of old (nil for none) with the sorted
// keys in dirty: a dirty key is written with the value current reports, or
// dropped when current reports it gone. The values of old's other keys are
// copied byte for byte from src, which reads old's values section from its
// start. It returns the new segment's fence, offset table, and size.
func writeSegment[V any](w io.Writer, codec Codec[V], old *segment, src io.Reader, dirty []uint32, current func(key uint32) (V, bool)) (keys, offs []uint32, size int64, err error) {
	var oldKeys, oldOffs []uint32
	if old != nil {
		oldKeys, oldOffs = old.keys, old.offs
	}
	// The header needs every length before the first value goes out, so the
	// dirty values are encoded up front: enc[encAt[j]:encAt[j+1]] is dirty[j]'s.
	var enc []byte
	encAt := make([]int, len(dirty)+1)
	live := make([]bool, len(dirty))
	for j, k := range dirty {
		if v, ok := current(k); ok {
			enc = codec.AppendValue(enc, v)
			live[j] = true
		}
		encAt[j+1] = len(enc)
	}
	// from[i] >= 0 sources the new segment's i-th value from old entry
	// from[i]; from[i] < 0 from dirty entry -from[i]-1.
	keys = make([]uint32, 0, len(oldKeys)+len(dirty))
	offs = make([]uint32, 1, len(oldKeys)+len(dirty)+1)
	var from []int
	var total uint64
	add := func(k uint32, src int, n uint64) {
		keys = append(keys, k)
		from = append(from, src)
		total += n
		offs = append(offs, uint32(total))
	}
	for i, j := 0, 0; i < len(oldKeys) || j < len(dirty); {
		if j == len(dirty) || (i < len(oldKeys) && oldKeys[i] < dirty[j]) {
			add(oldKeys[i], i, uint64(oldOffs[i+1]-oldOffs[i]))
			i++
			continue
		}
		if i < len(oldKeys) && oldKeys[i] == dirty[j] {
			i++ // superseded or deleted
		}
		if live[j] {
			add(dirty[j], -j-1, uint64(encAt[j+1]-encAt[j]))
		}
		j++
	}
	if total > math.MaxUint32 {
		return nil, nil, 0, fmt.Errorf("segment values of %d bytes exceed the 4 GiB offset range", total)
	}

	hdr := make([]byte, 0, segValuesAt(len(keys)))
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(keys)))
	for _, k := range keys {
		hdr = binary.LittleEndian.AppendUint32(hdr, k)
	}
	for _, o := range offs {
		hdr = binary.LittleEndian.AppendUint32(hdr, o)
	}
	if _, err := w.Write(hdr); err != nil {
		return nil, nil, 0, err
	}
	// Consecutive old values form one run, copied in one go; pos is how far
	// src has been consumed.
	var pos, runFrom, runTo uint32
	flush := func() error {
		if runTo == runFrom {
			return nil
		}
		if _, err := io.CopyN(io.Discard, src, int64(runFrom-pos)); err != nil {
			return fmt.Errorf("skipping old segment values: %w", err)
		}
		if _, err := io.CopyN(w, src, int64(runTo-runFrom)); err != nil {
			return fmt.Errorf("copying old segment values: %w", err)
		}
		pos, runFrom = runTo, runTo
		return nil
	}
	for _, f := range from {
		if f >= 0 {
			if oldOffs[f] != runTo {
				if err := flush(); err != nil {
					return nil, nil, 0, err
				}
				runFrom, runTo = oldOffs[f], oldOffs[f]
			}
			runTo = oldOffs[f+1]
			continue
		}
		if err := flush(); err != nil {
			return nil, nil, 0, err
		}
		j := -f - 1
		if _, err := w.Write(enc[encAt[j]:encAt[j+1]]); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := flush(); err != nil {
		return nil, nil, 0, err
	}
	return keys, offs, segValuesAt(len(keys)) + int64(total), nil
}

// segment is one immutable on-disk image of a shard. The store holds f for
// its own fault-ins and keeps the fence and offset table resident; Frozen
// handles open the path independently.
type segment struct {
	f    *os.File
	path string
	size int64
	keys []uint32 // sorted fence
	offs []uint32 // value offsets within the values section, len(keys)+1
}

func (sg *segment) valuesAt() int64 { return segValuesAt(len(sg.keys)) }

// values returns a buffered sequential reader over the segment's values
// section.
func (sg *segment) values() *bufio.Reader {
	return bufio.NewReaderSize(io.NewSectionReader(sg.f, sg.valuesAt(), sg.size-sg.valuesAt()), 64<<10)
}

// release closes and unlinks the segment. Frozen descriptors opened earlier
// keep the data alive.
func (sg *segment) release() {
	sg.f.Close()
	os.Remove(sg.path)
}

// Frozen is an immutable read handle on one spill segment, independent of
// the store's own lifecycle: it owns a private descriptor, so it keeps
// serving the segment's contents after the store rewrites or unlinks it, or
// closes. A dropped handle's descriptor closes when the os.File is collected.
// The handle carries no finalizer of its own: it sits on a reference cycle
// (handle → codec → collection → published snapshot → handle), and Go never
// collects a cycle that holds a finalizer.
type Frozen[V any] struct {
	f     *os.File
	size  int64
	codec Codec[V]
}

// Load decodes every value of the segment the handle points at, in ascending
// key order. Each call decodes afresh; callers cache the result (the RCU
// layer keeps it per segment). Safe for concurrent use.
func (fz *Frozen[V]) Load() ([]uint32, []V, error) {
	data := make([]byte, fz.size)
	_, err := fz.f.ReadAt(data, 0)
	if err != nil {
		return nil, nil, err
	}
	return decodeSegment(data, fz.codec)
}

// SpillStats counts the disk traffic of a spill backend since it was
// created. The in-memory backend reports zeros.
type SpillStats struct {
	// FaultIns counts blocks a Get read back from a segment, and
	// FaultInBytes the value bytes those reads returned.
	FaultIns, FaultInBytes int64
	// SegmentWrites counts segments written, and SegmentBytes their total
	// size.
	SegmentWrites, SegmentBytes int64
	// CleanEvictions counts overlays dropped without a write because they
	// held nothing newer than their segment.
	CleanEvictions int64
}

// spillShard is the residency state of one shard.
type spillShard[V any] struct {
	// meta holds every live key; it is the source of truth for existence
	// and sizing.
	meta map[uint32]Meta
	// over is the resident overlay: blocks faulted in or written since the
	// last eviction. res is its budget-priced size.
	over map[uint32]V
	res  int64
	// dirty holds the keys whose current state — a value in over, or
	// absence — is newer than seg.
	dirty   map[uint32]struct{}
	seg     *segment // nil until the first write
	lastUse int64
}

// spillStore is the budgeted backend. One leaf mutex serializes every call:
// residency, the byte budget, and the LRU clock are global state.
type spillStore[V any] struct {
	codec  Codec[V]
	budget int64
	parent string // configured parent dir; own subdir is created lazily

	mu        sync.Mutex
	dir       string // "" until the first segment write
	shards    []spillShard[V]
	resident  int64            // priced bytes of every overlay
	clock     int64            // LRU clock
	rewritten map[int]struct{} // shards given a new segment since the last TakeRewritten
	buf       []byte           // read scratch
	stats     SpillStats
	err       error // first write-side failure; spilling stops once set
	closed    bool
}

func newSpillStore[V any](shards int, codec Codec[V], cfg Config) *spillStore[V] {
	s := &spillStore[V]{
		codec:     codec,
		budget:    cfg.Budget,
		parent:    cfg.Dir,
		shards:    make([]spillShard[V], shards),
		rewritten: make(map[int]struct{}),
	}
	for i := range s.shards {
		s.shards[i].meta = make(map[uint32]Meta, 64)
		s.shards[i].over = make(map[uint32]V, 64)
		s.shards[i].dirty = make(map[uint32]struct{})
	}
	return s
}

func (s *spillStore[V]) NumShards() int { return len(s.shards) }

// touch advances the LRU clock for the shard.
func (s *spillStore[V]) touch(sh *spillShard[V]) {
	s.clock++
	sh.lastUse = s.clock
}

// scratch returns the store's reusable read buffer, n bytes long. Caller
// holds s.mu; codecs never retain the bytes they decode.
func (s *spillStore[V]) scratch(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

func (s *spillStore[V]) Get(shard int, key uint32) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[shard]
	m, ok := sh.meta[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.touch(sh)
	if v, ok := sh.over[key]; ok {
		return v, true
	}
	v := s.faultIn(shard, key)
	sh.over[key] = v
	sz := int64(s.codec.Size(m))
	sh.res += sz
	s.resident += sz
	return v, true
}

// faultIn reads one live, non-resident block from the shard's segment. Its
// meta entry says it exists, so a miss is corruption. Caller holds s.mu.
func (s *spillStore[V]) faultIn(si int, key uint32) V {
	sg := s.shards[si].seg
	if sg == nil {
		panic(fmt.Sprintf("storage: shard %d key %d is live but neither resident nor spilled", si, key))
	}
	i, ok := slices.BinarySearch(sg.keys, key)
	if !ok {
		panic(fmt.Sprintf("storage: shard %d key %d is live but missing from %s", si, key, sg.path))
	}
	buf := s.scratch(int(sg.offs[i+1] - sg.offs[i]))
	if _, err := sg.f.ReadAt(buf, sg.valuesAt()+int64(sg.offs[i])); err != nil {
		panic(fmt.Sprintf("storage: fault-in of shard %d key %d from %s: %v", si, key, sg.path, err))
	}
	v, err := s.codec.DecodeValue(key, buf)
	if err != nil {
		panic(fmt.Sprintf("storage: fault-in of shard %d key %d from %s: %v", si, key, sg.path, err))
	}
	s.stats.FaultIns++
	s.stats.FaultInBytes += int64(len(buf))
	return v
}

func (s *spillStore[V]) Put(shard int, key uint32, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[shard]
	s.touch(sh)
	nm := s.codec.MetaOf(v)
	delta := int64(s.codec.Size(nm))
	if _, ok := sh.over[key]; ok {
		delta -= int64(s.codec.Size(sh.meta[key]))
	}
	sh.over[key] = v
	sh.meta[key] = nm
	sh.dirty[key] = struct{}{}
	sh.res += delta
	s.resident += delta
}

// Touch must do Put's full work here: the resident meta map is captured at
// write time, and the mutated block must be marked dirty.
func (s *spillStore[V]) Touch(shard int, key uint32, v V) { s.Put(shard, key, v) }

func (s *spillStore[V]) Delete(shard int, key uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.shards[shard]
	m, ok := sh.meta[key]
	if !ok {
		return
	}
	s.touch(sh)
	if _, ok := sh.over[key]; ok {
		sz := int64(s.codec.Size(m))
		sh.res -= sz
		s.resident -= sz
		delete(sh.over, key)
	}
	delete(sh.meta, key)
	// The deletion is news only to a segment that holds the key.
	if sh.seg != nil {
		if _, spilled := slices.BinarySearch(sh.seg.keys, key); spilled {
			sh.dirty[key] = struct{}{}
			return
		}
	}
	delete(sh.dirty, key)
}

func (s *spillStore[V]) Contains(shard int, key uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.shards[shard].meta[key]
	return ok
}

func (s *spillStore[V]) Meta(shard int, key uint32) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.shards[shard].meta[key]
	return m, ok
}

func (s *spillStore[V]) Len(shard int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards[shard].meta)
}

// entry is one key/value pair collected under the mutex for a callback run
// outside it.
type entry[V any] struct {
	key uint32
	v   V
}

// each calls fn for the collected entries until fn returns false.
func each[V any](entries []entry[V], fn func(key uint32, v V) bool) {
	for _, e := range entries {
		if !fn(e.key, e.v) {
			return
		}
	}
}

// Range collects the shard's entries under the mutex and runs fn outside it,
// so fn may (unlike the interface's general contract) take as long as it
// likes without blocking concurrent probes — though it still must not call
// back into mutating store methods, per the owner contract. Resident blocks
// come from the overlay, the rest from one sequential pass over the segment;
// nothing is faulted in. A failed read ends the pass and is kept for Err, so
// fn then sees only part of the shard.
func (s *spillStore[V]) Range(shard int, fn func(key uint32, v V) bool) {
	s.mu.Lock()
	sh := &s.shards[shard]
	entries := make([]entry[V], 0, len(sh.meta))
	for k, v := range sh.over {
		entries = append(entries, entry[V]{k, v})
	}
	s.scanCold(shard, func(k uint32, data []byte) error {
		v, err := s.codec.DecodeValue(k, data)
		if err != nil {
			return err
		}
		entries = append(entries, entry[V]{k, v})
		return nil
	})
	s.mu.Unlock()
	each(entries, fn)
}

// RangeStored collects the shard's entries as their codec encodings: the
// overlay's are encoded afresh, the segment's are copied as stored.
func (s *spillStore[V]) RangeStored(shard int, fn func(key uint32, enc []byte) bool) error {
	s.mu.Lock()
	sh := &s.shards[shard]
	var arena []byte
	type span struct {
		key    uint32
		lo, hi int
	}
	spans := make([]span, 0, len(sh.meta))
	for k, v := range sh.over {
		lo := len(arena)
		arena = s.codec.AppendValue(arena, v)
		spans = append(spans, span{k, lo, len(arena)})
	}
	err := s.scanCold(shard, func(k uint32, data []byte) error {
		lo := len(arena)
		arena = append(arena, data...)
		spans = append(spans, span{k, lo, len(arena)})
		return nil
	})
	s.mu.Unlock()
	if err != nil {
		return err
	}
	for _, sp := range spans {
		if !fn(sp.key, arena[sp.lo:sp.hi:sp.hi]) {
			break
		}
	}
	return nil
}

// scanCold calls fn, in key order, with the stored bytes of every segment
// entry that is neither resident nor superseded: one sequential pass over the
// segment. The bytes are only valid during the call. The first failure, of a
// read or of fn, ends the pass; it is kept for Err and returned. Caller holds
// s.mu.
func (s *spillStore[V]) scanCold(shard int, fn func(key uint32, data []byte) error) error {
	sh := &s.shards[shard]
	sg := sh.seg
	if sg == nil {
		return nil
	}
	r := sg.values()
	for i, k := range sg.keys {
		n := int(sg.offs[i+1] - sg.offs[i])
		_, resident := sh.over[k]
		_, changed := sh.dirty[k]
		var err error
		if resident || changed {
			_, err = r.Discard(n)
		} else {
			buf := s.scratch(n)
			if _, err = io.ReadFull(r, buf); err == nil {
				err = fn(k, buf)
			}
		}
		if err != nil {
			err = fmt.Errorf("storage: scan of shard %d segment %s: %w", shard, sg.path, err)
			if s.err == nil {
				s.err = err
			}
			return err
		}
	}
	return nil
}

func (s *spillStore[V]) RangeNewer(shard int, fn func(key uint32, v V) bool) {
	s.mu.Lock()
	sh := &s.shards[shard]
	entries := make([]entry[V], 0, len(sh.dirty))
	for k := range sh.dirty {
		if v, ok := sh.over[k]; ok {
			entries = append(entries, entry[V]{k, v})
		}
	}
	s.mu.Unlock()
	each(entries, fn)
}

func (s *spillStore[V]) RangeMeta(shard int, fn func(key uint32, m Meta) bool) {
	s.mu.Lock()
	sh := &s.shards[shard]
	entries := make([]entry[Meta], 0, len(sh.meta))
	for k, m := range sh.meta {
		entries = append(entries, entry[Meta]{k, m})
	}
	s.mu.Unlock()
	each(entries, fn)
}

// Maintain evicts least-recently-used overlays until resident bytes fit the
// budget. Owner-only, at quiescent points. After a failed segment write it
// does nothing: the store keeps everything resident from then on.
func (s *spillStore[V]) Maintain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.resident > s.budget {
		victim := -1
		for i := range s.shards {
			sh := &s.shards[i]
			if len(sh.over) == 0 {
				continue
			}
			if victim < 0 || sh.lastUse < s.shards[victim].lastUse {
				victim = i
			}
		}
		if victim < 0 {
			return
		}
		s.evict(victim)
	}
}

// evict drops the shard's overlay, first writing a new segment when the
// overlay holds anything newer than the current one. A failed write leaves
// the overlay resident and records the error. Caller holds s.mu.
func (s *spillStore[V]) evict(si int) {
	sh := &s.shards[si]
	if len(sh.dirty) == 0 {
		s.stats.CleanEvictions++
	} else {
		seg, err := s.rewrite(si)
		if err != nil {
			s.err = fmt.Errorf("storage: spill of shard %d: %w", si, err)
			return
		}
		if sh.seg != nil {
			sh.seg.release()
		}
		sh.seg = seg
		sh.dirty = make(map[uint32]struct{})
		s.rewritten[si] = struct{}{}
	}
	s.resident -= sh.res
	sh.res = 0
	sh.over = make(map[uint32]V)
}

// rewrite merges the shard's segment with its dirty blocks into a fresh temp
// file under the store's spill directory (created on first use). It returns
// nil when no key survives. Caller holds s.mu.
func (s *spillStore[V]) rewrite(si int) (*segment, error) {
	if s.dir == "" {
		parent := s.parent
		if parent == "" {
			parent = os.TempDir()
		}
		dir, err := os.MkdirTemp(parent, "pier-spill-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	sh := &s.shards[si]
	dirty := make([]uint32, 0, len(sh.dirty))
	for k := range sh.dirty {
		dirty = append(dirty, k)
	}
	slices.Sort(dirty)
	f, err := os.CreateTemp(s.dir, "shard-*.seg")
	if err != nil {
		return nil, err
	}
	var src io.Reader
	if sh.seg != nil {
		src = sh.seg.values()
	}
	w := bufio.NewWriterSize(f, 64<<10)
	keys, offs, size, err := writeSegment(w, s.codec, sh.seg, src, dirty, func(k uint32) (V, bool) {
		v, ok := sh.over[k]
		return v, ok
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil || len(keys) == 0 {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	s.stats.SegmentWrites++
	s.stats.SegmentBytes += size
	return &segment{f: f, path: f.Name(), size: size, keys: keys, offs: offs}, nil
}

func (s *spillStore[V]) Frozen(shard int) *Frozen[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	sg := s.shards[shard].seg
	if sg == nil {
		return nil
	}
	f, err := os.Open(sg.path)
	if err != nil {
		panic(fmt.Sprintf("storage: reopening segment %s: %v", sg.path, err))
	}
	return &Frozen[V]{f: f, size: sg.size, codec: s.codec}
}

func (s *spillStore[V]) TakeRewritten() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rewritten) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.rewritten))
	for si := range s.rewritten {
		out = append(out, si)
	}
	clear(s.rewritten)
	slices.Sort(out)
	return out
}

func (s *spillStore[V]) ResidentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

func (s *spillStore[V]) Stats() SpillStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *spillStore[V]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *spillStore[V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for i := range s.shards {
		if sg := s.shards[i].seg; sg != nil {
			sg.release()
			s.shards[i].seg = nil
		}
	}
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}
