// Package storage is the pluggable persistence substrate under the blocking
// index and the stream's executed-pair dedup set. It exists so the paper's
// incremental setting — streams that never end — can run in bounded RSS: the
// default backend keeps everything in process memory exactly as before, and
// the memory-bounded backend keeps each shard as a resident overlay of blocks
// over one immutable flat segment file under a fixed byte budget, faulting
// single blocks in and rewriting only the blocks that changed, with LRU shard
// residency (spill.go); it keeps the dedup set in an LSM-style active-set +
// sorted-segment layout (dedup.go).
//
// The package is deliberately stdlib-only and knows nothing about blocks,
// profiles, or symbols: PostingStore is generic over the value type and the
// owner supplies a Codec that serializes one value and prices entries for
// the budget. That dependency inversion is what internal/arch enforces —
// substrates must not reach upward into domain packages.
//
// Concurrency contract: PostingStore implementations do not add locking of
// their own beyond what spilling itself needs. The in-memory backend is a
// plain sharded map and inherits the caller's discipline (the blocking
// collection's single-writer contract); the spill
// backend serializes every call on one internal leaf mutex because residency
// and the byte budget are global state. Callers must never re-enter the store
// from a Range/RangeMeta callback. Eviction happens only inside Maintain —
// Get and Put fault blocks in but never out — so pointers obtained between
// two Maintain calls stay backed by resident state.
package storage

import (
	"fmt"
	"sync/atomic"
)

// Config selects and tunes the storage backend.
type Config struct {
	// Budget is the approximate resident-byte budget in bytes. <= 0 selects
	// the unbounded in-memory backend; > 0 selects the spill backend, which
	// keeps resident posting blocks (or the dedup active set) at or under
	// the budget and spills the excess to disk. The budget prices the bulk
	// data (posting-list members, dedup keys); small always-resident
	// bookkeeping — per-key metadata, bloom filters, fence indexes — rides
	// on top and is documented per backend.
	Budget int64
	// Dir is the parent directory for spill files; empty means the system
	// temp directory. Each store creates (and removes on Close) its own
	// subdirectory, so concurrent stores never collide.
	Dir string
}

// Enabled reports whether the config selects the memory-bounded spill
// backend.
func (c Config) Enabled() bool { return c.Budget > 0 }

// Meta is the always-resident per-entry metadata of a PostingStore: the two
// per-source member counts of a posting list. It answers size and liveness
// queries without faulting spilled blocks in, which keeps
// the strategies' sorted-scan and weighting paths from thrashing the budget.
type Meta struct {
	// A and B are the per-source member counts (B is 0 for dirty ER).
	A, B int32
}

// Size returns the number of members the entry holds.
func (m Meta) Size() int { return int(m.A) + int(m.B) }

// Codec serializes single values for spill segments and prices entries for
// the byte budget. AppendValue must be deterministic for a given value so
// spill segments are reproducible.
type Codec[V any] interface {
	// AppendValue appends the encoding of v to buf and returns the extended
	// slice.
	AppendValue(buf []byte, v V) []byte
	// DecodeValue decodes the value stored under key from exactly the bytes
	// AppendValue wrote: missing or leftover bytes are an error. The result
	// must not alias data, which the store reuses.
	DecodeValue(key uint32, data []byte) (V, error)
	// MetaOf extracts the resident metadata of a value. It is captured at
	// Put time, so values mutated in place must be re-Put (see
	// PostingStore.Put).
	MetaOf(v V) Meta
	// Size estimates the resident bytes of an entry with the given metadata.
	// The estimate, not the value itself, is what the budget meters —
	// values are routinely mutated in place between Put calls.
	Size(m Meta) int
}

// PostingStore is a sharded key→value store with an optional resident-byte
// budget. Shard indices are assigned by the caller (the blocking collection
// uses sym & mask, matching its index shards); keys are the raw symbol values.
//
// Mutation protocol: values may be mutated in place by the owner, but every
// mutation must be followed by Put (or Delete) before the next Maintain, so
// the store can refresh metadata and mark spill segments stale. Get never
// evicts; only Maintain does.
type PostingStore[V any] interface {
	// NumShards returns the shard count fixed at construction.
	NumShards() int
	// Get returns the value under key, faulting that one entry in from its
	// shard's segment when it is not resident. A key absent from the shard
	// returns the zero value and false without touching disk (metadata is
	// always resident).
	Get(shard int, key uint32) (V, bool)
	// Put inserts or replaces the value under key, makes it resident, and
	// refreshes its metadata.
	Put(shard int, key uint32, v V)
	// Touch is Put for a value that is already stored under key and was
	// mutated in place through the pointer Get returned: it refreshes the
	// entry's derived metadata and pricing without the map write. Backends
	// whose Meta reads the live value directly make it a no-op, which is
	// what earns the in-place ingest hot path its saving. Calling Touch for
	// a key that is absent (or maps to a different value) is a contract
	// violation.
	Touch(shard int, key uint32, v V)
	// Delete removes the key if present; absent keys are a no-op. It never
	// touches disk.
	Delete(shard int, key uint32)
	// Contains reports whether the key is present, without fault-in.
	Contains(shard int, key uint32) bool
	// Meta returns the key's resident metadata, without fault-in.
	Meta(shard int, key uint32) (Meta, bool)
	// Len returns the number of entries in the shard, without fault-in.
	Len(shard int) int
	// Range calls fn for every entry of the shard until fn returns false,
	// reading spilled entries from the segment without making them
	// resident. Iteration order is unspecified. fn must not call back into
	// the store.
	Range(shard int, fn func(key uint32, v V) bool)
	// RangeStored is Range over the entries' codec encodings, the bytes
	// AppendValue writes: spilled entries are copied from the segment as
	// stored, without a decode, and resident ones are encoded afresh.
	// enc is only valid during the call. It returns a failed read of the
	// segment, which Err keeps as well; fn then has not been called.
	RangeStored(shard int, fn func(key uint32, enc []byte) bool) error
	// RangeNewer is Range over the entries newer than the shard's current
	// segment — every entry when the shard has none. They are the entries a
	// reader cannot take from the segment Frozen returns.
	RangeNewer(shard int, fn func(key uint32, v V) bool)
	// RangeMeta is Range over the resident metadata only — never faults.
	RangeMeta(shard int, fn func(key uint32, m Meta) bool)
	// Maintain enforces the byte budget, evicting least-recently-used shard
	// overlays until resident bytes fit; an overlay holding entries newer
	// than its segment is merged into a new segment first. Only the owner
	// goroutine calls it, at quiescent points (never during an AddBatch
	// fan-out). A no-op for the in-memory backend, and after a failed
	// segment write (see Err).
	Maintain()
	// Frozen returns an immutable handle on the shard's current segment, or
	// nil if the shard has none. The handle stays readable after the store
	// rewrites or unlinks the segment (it owns its own file descriptor); the
	// RCU snapshot path serves unchanged entries through it.
	Frozen(shard int) *Frozen[V]
	// TakeRewritten returns the sorted indices of shards given a new
	// segment since the previous call and resets the log. The publish path
	// re-marks their snapshot entries.
	TakeRewritten() []int
	// ResidentBytes returns the budget-priced bytes currently resident.
	ResidentBytes() int64
	// Stats returns the backend's disk-traffic counters.
	Stats() SpillStats
	// Err returns the first failed segment write, spill-directory creation
	// or segment scan, or nil. After one the store keeps everything resident
	// and stops spilling: nothing resident is lost, but the budget no longer
	// holds.
	Err() error
	// Close releases spill files and directories. The store must not be
	// used afterwards; Frozen handles taken earlier stay valid until
	// garbage-collected.
	Close() error
}

// NewPostingStore returns the backend selected by cfg: the unbounded
// in-memory store for a zero config, the disk-spill store for a positive
// budget. shards must be >= 1 and match the caller's shard layout.
func NewPostingStore[V any](shards int, codec Codec[V], cfg Config) PostingStore[V] {
	if shards < 1 {
		panic(fmt.Sprintf("storage: invalid shard count %d", shards))
	}
	if cfg.Enabled() {
		return newSpillStore[V](shards, codec, cfg)
	}
	return newMemStore[V](shards, codec)
}

// memStore is the default backend: one plain map per shard, no internal
// locking (the caller's single-writer contract applies), no spilling. It is behaviorally the pre-seam representation of the blocking
// index.
type memStore[V any] struct {
	codec  Codec[V]
	shards []map[uint32]V
	bytes  atomic.Int64
}

func newMemStore[V any](shards int, codec Codec[V]) *memStore[V] {
	s := &memStore[V]{codec: codec, shards: make([]map[uint32]V, shards)}
	for i := range s.shards {
		s.shards[i] = make(map[uint32]V, 64)
	}
	return s
}

func (s *memStore[V]) NumShards() int { return len(s.shards) }

func (s *memStore[V]) Get(shard int, key uint32) (V, bool) {
	v, ok := s.shards[shard][key]
	return v, ok
}

func (s *memStore[V]) Put(shard int, key uint32, v V) {
	m := s.shards[shard]
	delta := s.codec.Size(s.codec.MetaOf(v))
	if old, ok := m[key]; ok {
		delta -= s.codec.Size(s.codec.MetaOf(old))
	}
	m[key] = v
	// Atomic because a metrics scraper may read the total while the owner
	// puts.
	s.bytes.Add(int64(delta))
}

// Touch is a no-op: Meta and pricing read the live value through the stored
// pointer, so an in-place mutation is already visible, and a same-pointer
// re-Put's pricing delta is zero by construction.
func (s *memStore[V]) Touch(shard int, key uint32, v V) {}

func (s *memStore[V]) Delete(shard int, key uint32) {
	m := s.shards[shard]
	if old, ok := m[key]; ok {
		s.bytes.Add(-int64(s.codec.Size(s.codec.MetaOf(old))))
		delete(m, key)
	}
}

func (s *memStore[V]) Contains(shard int, key uint32) bool {
	_, ok := s.shards[shard][key]
	return ok
}

func (s *memStore[V]) Meta(shard int, key uint32) (Meta, bool) {
	v, ok := s.shards[shard][key]
	if !ok {
		return Meta{}, false
	}
	return s.codec.MetaOf(v), true
}

func (s *memStore[V]) Len(shard int) int { return len(s.shards[shard]) }

func (s *memStore[V]) Range(shard int, fn func(key uint32, v V) bool) {
	for k, v := range s.shards[shard] {
		if !fn(k, v) {
			return
		}
	}
}

func (s *memStore[V]) RangeStored(shard int, fn func(key uint32, enc []byte) bool) error {
	var buf []byte
	for k, v := range s.shards[shard] {
		buf = s.codec.AppendValue(buf[:0], v)
		if !fn(k, buf) {
			break
		}
	}
	return nil
}

func (s *memStore[V]) RangeMeta(shard int, fn func(key uint32, m Meta) bool) {
	for k, v := range s.shards[shard] {
		if !fn(k, s.codec.MetaOf(v)) {
			return
		}
	}
}

// RangeNewer is Range: without a segment, every entry is newer than it.
func (s *memStore[V]) RangeNewer(shard int, fn func(key uint32, v V) bool) { s.Range(shard, fn) }

func (s *memStore[V]) Maintain()             {}
func (s *memStore[V]) Frozen(int) *Frozen[V] { return nil }
func (s *memStore[V]) TakeRewritten() []int  { return nil }
func (s *memStore[V]) ResidentBytes() int64  { return s.bytes.Load() }
func (s *memStore[V]) Stats() SpillStats     { return SpillStats{} }
func (s *memStore[V]) Err() error            { return nil }
func (s *memStore[V]) Close() error          { return nil }
