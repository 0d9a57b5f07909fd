package storage

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

// lookup is a writeSegment value source backed by a model map.
func lookup(m map[uint32][]int) func(uint32) ([]int, bool) {
	return func(k uint32) ([]int, bool) {
		v, ok := m[k]
		return v, ok
	}
}

// encodeModel writes model as a fresh segment — the merge with no old
// segment — and returns its tables and bytes.
func encodeModel(t *testing.T, model map[uint32][]int) (*segment, []byte) {
	t.Helper()
	keys := make([]uint32, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf bytes.Buffer
	fence, offs, size, err := writeSegment[[]int](&buf, listCodec{}, nil, nil, keys, lookup(model))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if size != int64(buf.Len()) || !slices.Equal(fence, keys) {
		t.Fatalf("write reported %d bytes and fence %v; wrote %d bytes of keys %v", size, fence, buf.Len(), keys)
	}
	return &segment{size: size, keys: fence, offs: offs}, buf.Bytes()
}

// checkImage decodes a segment image and compares it with the model.
func checkImage(t *testing.T, model map[uint32][]int, img []byte) {
	t.Helper()
	keys, vals, err := decodeSegment(img, listCodec{})
	if err != nil {
		t.Fatalf("decode of own encoding: %v", err)
	}
	got := make(map[uint32][]int, len(keys))
	for i, k := range keys {
		got[k] = vals[i]
	}
	sameLists(t, model, got)
}

// FuzzSpillSegmentRoundTrip checks the flat segment layout against the
// in-memory posting-list model. Any shard the fuzzer constructs must survive
// writeSegment → decodeSegment bit-identically, both written whole and
// merged over an older segment. Malformed bytes — raw fuzz input, unsorted
// keys, decreasing or overrunning offsets, a truncated or trailing varint —
// must fail cleanly with an error, never a panic: a torn or foreign spill
// file surfaces as a storage error, not silent index corruption.
func FuzzSpillSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 4, 2, 2, 9, 9, 9, 0, 0, 3, 1, 7})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(append([]byte("PSG2"), 0x03, 0x7f, 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			return
		}
		// Part 1: build a model shard from the input and round-trip it.
		// Members alternate in sign and grow, so deltas are signed and wide.
		model := make(map[uint32][]int)
		for i := 0; i+3 <= len(data) && len(model) < 256; i += 3 {
			key := uint32(binary.LittleEndian.Uint16(data[i:]))
			n := int(data[i+2]) % 8
			members := make([]int, n)
			for j := range members {
				members[j] = int(int8(data[i])) * (1 - 2*(j%2)) << (7 * j)
			}
			model[key] = members
		}
		seg, img := encodeModel(t, model)
		checkImage(t, model, img)

		// Part 2: merge over the segment just written — rewrite every third
		// key, delete every fifth, add keys past the old range. Only the
		// dirty keys are encoded; the rest are copied byte for byte.
		next := maps.Clone(model)
		var dirty []uint32
		for i, k := range seg.keys {
			switch {
			case i%5 == 0:
				delete(next, k)
				dirty = append(dirty, k)
			case i%3 == 0:
				next[k] = append(slices.Clone(next[k]), i)
				dirty = append(dirty, k)
			}
		}
		for k := uint32(1 << 16); k < 1<<16+uint32(len(data)%4); k++ {
			next[k] = []int{int(k)}
			dirty = append(dirty, k)
		}
		var buf bytes.Buffer
		_, _, size, err := writeSegment[[]int](&buf, listCodec{}, seg, bytes.NewReader(img[seg.valuesAt():]), dirty, lookup(next))
		if err != nil || size != int64(buf.Len()) {
			t.Fatalf("merge: %v (reported %d bytes, wrote %d)", err, size, buf.Len())
		}
		checkImage(t, next, buf.Bytes())

		// Part 3: targeted corruptions of a valid image must each error.
		n := len(seg.keys)
		offsAt := 8 + 4*n
		mustFail := func(what string, bad []byte) {
			t.Helper()
			if _, _, err := decodeSegment(bad, listCodec{}); err == nil {
				t.Fatalf("decode accepted %s", what)
			}
		}
		if n >= 2 {
			bad := slices.Clone(img)
			copy(bad[8:12], img[12:16])
			copy(bad[12:16], img[8:12])
			mustFail("unsorted keys", bad)
		}
		if n >= 1 {
			bad := slices.Clone(img)
			binary.LittleEndian.PutUint32(bad[offsAt+4:], seg.offs[n]+1)
			mustFail("a decreasing or overrunning offset", bad)
			bad = slices.Clone(img)
			binary.LittleEndian.PutUint32(bad[offsAt+4*n:], seg.offs[n]+1)
			mustFail("an overrunning last offset", bad)
		}
		mustFail("a trailing byte", append(slices.Clone(img), 0))
		mustFail("a truncated image", img[:len(img)-1])
		for i, k := range seg.keys {
			val := img[seg.valuesAt()+int64(seg.offs[i]) : seg.valuesAt()+int64(seg.offs[i+1])]
			if _, err := (listCodec{}).DecodeValue(k, val[:len(val)-1]); err == nil {
				t.Fatalf("key %d: a truncated varint decoded", k)
			}
			if _, err := (listCodec{}).DecodeValue(k, append(slices.Clone(val), 0)); err == nil {
				t.Fatalf("key %d: a trailing varint decoded", k)
			}
		}

		// Part 4: raw fuzz bytes as a segment, bare and behind the magic,
		// must error or decode, never panic.
		decodeSegment(data, listCodec{})
		decodeSegment(append(append([]byte{}, segMagic[:]...), data...), listCodec{})
	})
}

// FuzzSpillStoreOps drives a fuzzer-chosen script of Put, Touch, Get,
// Delete, Maintain, Range and Frozen reads through the spill store and the
// in-memory store side by side, over 1–4 shards at a budget of a few
// entries, so blocks fault in alone, overlays are evicted clean and dirty,
// and segments are rewritten by merge. Values, Meta and Len must agree after
// every op; ResidentBytes must fit the budget after every Maintain; and a
// Frozen handle must still read the image it was taken on after the store
// rewrote that segment.
func FuzzSpillStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 3, 0, 2, 5, 4, 0, 0, 6, 1, 0, 4, 0, 0, 2, 1, 0, 3, 2, 0, 6, 2, 0, 4, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 9, 4, 0, 0, 1, 3, 1, 6, 3, 0, 2, 3, 0, 0, 7, 2, 5, 7, 0}, 12))
	f.Fuzz(func(t *testing.T, script []byte) {
		// Every dirty Maintain is a real file write; cap the script so a
		// mutated input stays milliseconds, not seconds.
		if len(script) == 0 || len(script) > 1<<10 {
			return
		}
		shards := int(script[0])%4 + 1
		budget := int64(3 * listCodec{}.Size(Meta{A: 3}))
		mem := NewPostingStore[[]int](shards, listCodec{}, Config{})
		sp := NewPostingStore[[]int](shards, listCodec{}, Config{Budget: budget, Dir: t.TempDir()})
		defer sp.Close()
		type pin struct {
			fz    *Frozen[[]int]
			image map[uint32][]int
		}
		var pins []pin
		for i := 1; i+2 < len(script); i += 3 {
			key := uint32(script[i+1] % 16)
			si := int(key) % shards
			arg := int(script[i+2])
			switch script[i] % 7 {
			case 0:
				// Each store gets its own slice, so an in-place edit of one
				// store's value never reaches the other.
				v := make([]int, arg%5)
				for j := range v {
					v[j] = arg*7 - j*300
				}
				mem.Put(si, key, v)
				sp.Put(si, key, slices.Clone(v))
			case 1:
				// Touch after an in-place edit through the value Get returned.
				vm, ok := mem.Get(si, key)
				vs, _ := sp.Get(si, key)
				if ok && len(vm) > 0 {
					vm[0], vs[0] = -arg, -arg
					mem.Touch(si, key, vm)
					sp.Touch(si, key, vs)
				}
			case 2:
				vm, okm := mem.Get(si, key)
				vs, oks := sp.Get(si, key)
				if okm != oks || !slices.Equal(vm, vs) {
					t.Fatalf("op %d: Get(%d, %d) = %v, %v; memory has %v, %v", i/3, si, key, vs, oks, vm, okm)
				}
			case 3:
				mem.Delete(si, key)
				sp.Delete(si, key)
			case 4:
				sp.Maintain()
				if r := sp.ResidentBytes(); r > budget {
					t.Fatalf("op %d: %d resident bytes after Maintain, budget %d", i/3, r, budget)
				}
			case 5:
				want := make(map[uint32][]int)
				mem.Range(si, func(k uint32, v []int) bool { want[k] = v; return true })
				got := make(map[uint32][]int)
				sp.Range(si, func(k uint32, v []int) bool { got[k] = v; return true })
				sameLists(t, want, got)
			case 6:
				if fz := sp.Frozen(si); fz != nil {
					pins = append(pins, pin{fz, frozenImage(t, fz)})
				}
			}
			if mem.Len(si) != sp.Len(si) {
				t.Fatalf("op %d: shard %d Len %d, memory %d", i/3, si, sp.Len(si), mem.Len(si))
			}
			mm, okm := mem.Meta(si, key)
			ms, oks := sp.Meta(si, key)
			if okm != oks || mm != ms {
				t.Fatalf("op %d: Meta(%d, %d) = %v, %v; memory has %v, %v", i/3, si, key, ms, oks, mm, okm)
			}
		}
		for _, p := range pins {
			sameLists(t, p.image, frozenImage(t, p.fz))
		}
	})
}

// FuzzSpillDedupSet drives the LSM-style spill dedup set with a fuzzer-chosen
// op sequence against a model map: Has/Add/Delete/Len must agree with the
// model after every op, across however many seals, size-tiered merges and
// tombstone-dropping full merges the tiny seal threshold forces. The set
// promises *exact* membership — bloom filters and tombstones are
// accelerations, never the answer — so any disagreement is a bug.
func FuzzSpillDedupSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{0, 7, 2, 7, 1, 7}, 40))
	f.Add(dedupSealScript())
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Each seal is a real file write; cap the op count so a mutated
		// input stays milliseconds, not seconds.
		if len(ops) > 1<<9 {
			return
		}
		replayDedupScript(t, ops)
	})
}

// dedupSealScript's key space and the seal threshold replayDedupScript sets:
// a seal every few new keys, so short scripts cross every boundary of the set.
const (
	dedupScriptKeys   = 32
	dedupScriptSealAt = 4
)

// dedupSealScript is a FuzzSpillDedupSet script of op/key byte pairs (op%3:
// 0 add, 1 delete, 2 has) that forces at least 32 seals: it fills the key
// space, then round after round deletes a window of four sealed keys — two
// tombstones already trigger a full merge — and adds them back, which seals
// them anew. The replay's final sweep probes every key.
func dedupSealScript() []byte {
	var ops []byte
	for k := 0; k < dedupScriptKeys; k++ {
		ops = append(ops, 0, byte(k))
	}
	for r := 0; len(ops)+16 <= 1<<9; r++ {
		w := byte(4*r+1) % dedupScriptKeys
		for k := w; k < w+4; k++ {
			ops = append(ops, 1, k%dedupScriptKeys)
		}
		for k := w; k < w+4; k++ {
			ops = append(ops, 0, k%dedupScriptKeys)
		}
	}
	return ops
}

// replayDedupScript runs a FuzzSpillDedupSet script against a model map,
// failing on the first disagreement, and returns how many seals and full
// merges it caused. A seal is seen as the active table emptying where the op
// would have left keys in it, a full merge as tombstones vanishing.
func replayDedupScript(t *testing.T, ops []byte) (seals, fullMerges int) {
	t.Helper()
	ded := newSpillDedup(Config{Budget: 64, Dir: t.TempDir()})
	ded.sealAt = dedupScriptSealAt
	defer ded.Close()
	model := make(map[uint64]struct{})
	for i := 0; i+1 < len(ops); i += 2 {
		key := uint64(ops[i+1]) % dedupScriptKeys // small key space: collisions and re-adds are the point
		active, tombs := ded.active.Len(), ded.tombs.Len()
		_, had := model[key]
		switch ops[i] % 3 {
		case 0:
			switch {
			case ded.tombs.Has(key):
				tombs--
			case !had:
				active++
			}
			ded.Add(key)
			model[key] = struct{}{}
		case 1:
			switch {
			case ded.active.Has(key):
				active--
			case had:
				tombs++
			}
			ded.Delete(key)
			delete(model, key)
		case 2:
			if got := ded.Has(key); got != had {
				t.Fatalf("op %d: Has(%d) = %v, model says %v", i/2, key, got, had)
			}
		}
		if active > 0 && ded.active.Len() == 0 {
			seals++
		}
		if tombs > 0 && ded.tombs.Len() == 0 {
			fullMerges++
		}
		if got, want := ded.Len(), len(model); got != want {
			t.Fatalf("op %d: Len() = %d, model holds %d", i/2, got, want)
		}
	}
	for key := uint64(0); key < dedupScriptKeys; key++ {
		_, want := model[key]
		if got := ded.Has(key); got != want {
			t.Fatalf("final sweep: Has(%d) = %v, model says %v", key, got, want)
		}
	}
	n := 0
	if err := ded.Range(func(key uint64) bool {
		if _, ok := model[key]; !ok {
			t.Fatalf("Range yielded %d, not in the model", key)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	if n != len(model) {
		t.Fatalf("Range yielded %d keys, model holds %d", n, len(model))
	}
	if err := ded.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
	return seals, fullMerges
}

// TestDedupSealScriptForcesSeals pins what dedupSealScript is for: replayed,
// it seals at least 32 times and drops tombstones in full merges.
func TestDedupSealScriptForcesSeals(t *testing.T) {
	seals, fullMerges := replayDedupScript(t, dedupSealScript())
	t.Logf("%d seals, %d full merges", seals, fullMerges)
	if seals < 32 || fullMerges == 0 {
		t.Fatalf("the seal script caused %d seals and %d full merges, want at least 32 and 1", seals, fullMerges)
	}
}

// FuzzDedupStore drives both DedupStore backends — the flat in-memory table
// and the spill set — with one fuzzer-chosen op sequence against a model
// map: AddIfNew's answer, Has, Len and finally Range must agree with the
// model after every op. Keys are built so that 0 (the table's empty-slot
// value) is one of them and 256 distinct keys grow the table from its first
// size several times; deletes inside probe runs exercise the backward shift.
func FuzzDedupStore(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 1, 0, 17, 0, 33, 1, 1, 2, 17, 2, 33, 0, 1})
	// Bytes 25, 27 and 29 give keys with one home slot in the first table:
	// deleting the head of their probe run must keep the other two findable.
	f.Add([]byte{0, 25, 0, 27, 0, 29, 1, 25, 2, 27, 2, 29, 1, 27, 2, 29})
	ramp := make([]byte, 0, 600)
	for b := 0; b < 200; b++ {
		ramp = append(ramp, 0, byte(b))
	}
	for b := 0; b < 200; b += 3 {
		ramp = append(ramp, 1, byte(b))
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<10 {
			return
		}
		// The spill set seals every 16 active+tombstone keys, so sealed
		// segments, tombstones and merges all take part.
		spill := newSpillDedup(Config{Budget: 64, Dir: t.TempDir()})
		spill.sealAt = 16
		defer spill.Close()
		stores := map[string]DedupStore{"mem": NewDedupStore(Config{}), "spill": spill}
		model := make(map[uint64]struct{})
		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i+1]
			key := uint64(b&0x0f)<<32 | uint64(b>>4) // a pair key; byte 0 is key 0
			_, had := model[key]
			switch ops[i] % 3 {
			case 0:
				for name, d := range stores {
					if got := d.AddIfNew(key); got != !had {
						t.Fatalf("op %d: %s AddIfNew(%#x) = %v, model held it: %v", i/2, name, key, got, had)
					}
				}
				model[key] = struct{}{}
			case 1:
				for _, d := range stores {
					d.Delete(key)
				}
				delete(model, key)
			case 2:
				for name, d := range stores {
					if got := d.Has(key); got != had {
						t.Fatalf("op %d: %s Has(%#x) = %v, model says %v", i/2, name, key, got, had)
					}
				}
			}
			for name, d := range stores {
				if got := d.Len(); got != len(model) {
					t.Fatalf("op %d: %s Len() = %d, model holds %d", i/2, name, got, len(model))
				}
			}
		}
		for name, d := range stores {
			seen := make(map[uint64]struct{})
			d.Range(func(key uint64) bool {
				if _, ok := model[key]; !ok {
					t.Fatalf("%s Range yielded %#x, not in the model", name, key)
				}
				if _, dup := seen[key]; dup {
					t.Fatalf("%s Range yielded %#x twice", name, key)
				}
				seen[key] = struct{}{}
				return true
			})
			if len(seen) != len(model) {
				t.Fatalf("%s Range yielded %d keys, model holds %d", name, len(seen), len(model))
			}
			for key := range model {
				if !d.Has(key) {
					t.Fatalf("final sweep: %s lost %#x", name, key)
				}
			}
		}
	})
}
