package metablocking

import (
	"slices"

	"pier/internal/blocking"
	"pier/internal/profile"
)

// This file is the sweep-based weighting kernel: all of one profile's edge
// weights computed in a single pass over its posting lists with a dense,
// epoch-stamped counter array — O(Σ block sizes) per profile instead of
// O(pairs × key-list length) — following the meta-blocking literature's
// neighbor-accumulator technique. It is the only production weigher; the
// map-based Candidates and two-pointer SharedBlocks of reference.go are the
// specification the differential battery (kernel_test.go, internal/check)
// pins its emission bit-identical to.

// kernelDenseLimit bounds the dense scratch arrays, mirroring the RCU
// registry's dense/overflow split: profile IDs in [0, kernelDenseLimit) get
// array slots, anything else (negative probe IDs, hostile huge IDs) goes
// through a spill map — so one outlier ID cannot force a multi-GB array.
const kernelDenseLimit = 1 << 22

// noLimit disables the smaller-ID partner restriction (used by anchor sweeps
// and probe-side accumulation, where every indexed profile is a legitimate
// partner).
const noLimit = int(^uint(0) >> 1)

// acc aggregates the per-shared-block statistics of one candidate partner:
// the spill-map twin of kslot, and the reference accumulator's value type.
type acc struct {
	common int
	arcs   float64
	bsize  int
}

// kslot is one dense scratch slot: a partner's accumulated statistics, valid
// only while stamp matches the kernel's current epoch. One 24-byte struct per
// partner keeps all four fields on the same cache line — the sweep touches a
// slot once per shared block.
type kslot struct {
	stamp  uint32
	common int32
	bsize  int32
	arcs   float64
}

// dslot is one denominator-cache slot: a profile's |B(p)|, valid while stamp
// matches the denominator epoch (bumped whenever the collection's version
// moves).
type dslot struct {
	stamp uint32
	val   int32
}

// Kernel is the reusable sweep-based weighting scratch. It serves three
// access patterns with one epoch-stamped accumulator:
//
//   - Candidates: all weighted edges of one new profile in a single sweep
//     over its (ghosted) blocks, on the incremental generation hot path.
//   - SharedBlocks: per-pair CBS weights during block scans (I-PBS emission,
//     the PBS baseline), amortized by sweeping the anchor's blocks once into
//     neighbor counts and answering each partner in O(1).
//   - BeginProbe/Accumulate/Partners/ProbeStats: the serving path's probe-side
//     accumulation over pinned posting snapshots (stream.Query), which never
//     touches the collection's owner-only read path.
//
// Reset is O(touched), not O(universe): slots carry an epoch stamp, and a new
// sweep simply bumps the epoch, invalidating every stale slot at once. JS and
// ECBS denominators (|B(p)| per profile, |B| total) are cached per collection
// version in their own epoch-stamped slots, so a whole increment's weighting
// reuses them instead of recounting per pair.
//
// A Kernel is single-goroutine state: the parallel candidate-generation path
// owns one per worker slot, the serving path pools them per query. The zero
// value is ready to use, and assigning Kernel{} resets all caches (the
// checkpoint-restore path relies on that).
type Kernel struct {
	epoch   uint32
	slots   []kslot
	touched []int       // partner IDs of the current sweep, first-touch order
	over    map[int]acc // spill accumulator for IDs outside the dense range

	out []Comparison

	// Anchor state of SharedBlocks: which (collection, version, profile) the
	// current neighbor counts were swept for.
	aCol    *blocking.Collection
	aVer    uint64
	aID     int
	aOK     bool
	aBlocks []*blocking.Block

	// Denominator cache, keyed on (collection, version). dEpoch stamps dSlots;
	// dTotal caches NumBlocks() for ECBS.
	dCol     *blocking.Collection
	dVer     uint64
	dEpoch   uint32
	dSlots   []dslot
	dOver    map[int]int
	dTotal   int
	dTotalOK bool
}

// begin starts a fresh accumulation sweep: bump the epoch (hard-resetting
// stamps on the rare uint32 wrap, so a stale stamp can never alias a future
// epoch), truncate the touched list, clear the spill map, and invalidate any
// cached anchor sweep.
func (k *Kernel) begin() {
	k.epoch++
	if k.epoch == 0 {
		for i := range k.slots {
			k.slots[i].stamp = 0
		}
		k.epoch = 1
	}
	k.touched = k.touched[:0]
	if len(k.over) != 0 {
		clear(k.over)
	}
	k.aOK = false
}

// growSlots extends the dense scratch to cover id (amortized doubling; the
// caller guarantees id < kernelDenseLimit). Stale stamps in the copied prefix
// stay valid — they are simply from an older epoch.
func (k *Kernel) growSlots(id int) {
	n := max(id+1, 2*len(k.slots), 1024)
	grown := make([]kslot, n)
	copy(grown, k.slots)
	k.slots = grown
}

// accumulate folds one member list into the current sweep: every id below
// limit gets common++, arcs += inv, bsize = min(bsize, size). The loop is the
// kernel's hot path — one stamp compare and one slot update per block
// membership. The per-partner update order is identical to the reference's
// (same block order, same intra-block ID order), which is what keeps the
// float arcs sums bit-identical.
func (k *Kernel) accumulate(ids []int, limit int, inv float64, size int32) {
	for _, id := range ids {
		if id >= limit {
			continue
		}
		if uint(id) < uint(kernelDenseLimit) {
			if id >= len(k.slots) {
				k.growSlots(id)
			}
			s := &k.slots[id]
			if s.stamp != k.epoch {
				s.stamp = k.epoch
				s.common = 1
				s.arcs = inv
				s.bsize = size
				k.touched = append(k.touched, id)
			} else {
				s.common++
				s.arcs += inv
				if size < s.bsize {
					s.bsize = size
				}
			}
			continue
		}
		if k.over == nil {
			k.over = make(map[int]acc)
		}
		a, ok := k.over[id]
		if !ok {
			a.bsize = int(size)
			k.touched = append(k.touched, id)
		}
		a.common++
		a.arcs += inv
		if int(size) < a.bsize {
			a.bsize = int(size)
		}
		k.over[id] = a
	}
}

// statsOf returns the accumulated statistics of a touched partner.
func (k *Kernel) statsOf(id int) (common int, arcs float64, bsize int) {
	if uint(id) < uint(kernelDenseLimit) {
		s := &k.slots[id]
		return int(s.common), s.arcs, int(s.bsize)
	}
	a := k.over[id]
	return a.common, a.arcs, a.bsize
}

// Candidates generates the weighted comparisons of a newly arrived profile p
// against earlier profiles from the given block slice, exactly like the
// reference Candidates but in one sweep over dense scratch: same partner
// statistics (including float accumulation order), same Scheme.Weight (JS and
// ECBS through the cached denominators), same sort — so the output is
// bit-for-bit the reference's. The returned slice is owned by the Kernel and
// valid until its next call.
func (k *Kernel) Candidates(col *blocking.Collection, p *profile.Profile, blocks []*blocking.Block, scheme Scheme) []Comparison {
	k.begin()
	cc := col.CleanClean()
	for _, b := range blocks {
		inv := 1.0 / float64(max(1, b.Comparisons(cc)))
		size := int32(b.Size())
		if cc {
			if p.Source == profile.SourceA {
				k.accumulate(b.B, p.ID, inv, size)
			} else {
				k.accumulate(b.A, p.ID, inv, size)
			}
		} else {
			k.accumulate(b.A, p.ID, inv, size)
			k.accumulate(b.B, p.ID, inv, size)
		}
	}
	out := k.out[:0]
	for _, id := range k.touched {
		common, arcs, bsize := k.statsOf(id)
		out = append(out, Comparison{
			X:      p.ID,
			Y:      id,
			Weight: k.weigh(col, scheme, p.ID, id, common, arcs),
			BSize:  bsize,
		})
	}
	slices.SortFunc(out, cmpByWeightDesc)
	k.out = out
	return out
}

// weigh is Scheme.Weight fed from the version-keyed denominator caches.
func (k *Kernel) weigh(col *blocking.Collection, scheme Scheme, x, y, common int, arcs float64) float64 {
	if !scheme.UsesCardinalities() {
		return scheme.Weight(common, arcs, 0, 0, 0)
	}
	return scheme.Weight(common, arcs, k.numBlocksOf(col, x), k.numBlocksOf(col, y), k.numBlocks(col))
}

// syncDenoms invalidates the denominator cache when the collection (or its
// version) has moved since the cache was filled. Collection.Version() bumps on
// every mutation, so within one UpdateIndex every partner's |B(p)| is counted
// at most once instead of once per pair.
func (k *Kernel) syncDenoms(col *blocking.Collection) {
	if k.dCol == col && k.dVer == col.Version() {
		return
	}
	k.dCol, k.dVer = col, col.Version()
	k.dEpoch++
	if k.dEpoch == 0 {
		for i := range k.dSlots {
			k.dSlots[i].stamp = 0
		}
		k.dEpoch = 1
	}
	if len(k.dOver) != 0 {
		clear(k.dOver)
	}
	k.dTotalOK = false
}

// numBlocks is col.NumBlocks() cached per collection version.
func (k *Kernel) numBlocks(col *blocking.Collection) int {
	k.syncDenoms(col)
	if !k.dTotalOK {
		k.dTotal = col.NumBlocks()
		k.dTotalOK = true
	}
	return k.dTotal
}

// numBlocksOf is col.NumBlocksOf(id) cached per collection version.
func (k *Kernel) numBlocksOf(col *blocking.Collection, id int) int {
	k.syncDenoms(col)
	if uint(id) < uint(kernelDenseLimit) {
		if id >= len(k.dSlots) {
			n := max(id+1, 2*len(k.dSlots), 1024)
			grown := make([]dslot, n)
			copy(grown, k.dSlots)
			k.dSlots = grown
		}
		s := &k.dSlots[id]
		if s.stamp != k.dEpoch {
			s.stamp = k.dEpoch
			s.val = int32(col.NumBlocksOf(id))
		}
		return int(s.val)
	}
	if k.dOver == nil {
		k.dOver = make(map[int]int)
	}
	v, ok := k.dOver[id]
	if !ok {
		v = col.NumBlocksOf(id)
		k.dOver[id] = v
	}
	return v
}

// SharedBlocks counts the live blocks shared by x and y, for block-scan paths
// where one anchor x is weighed against many partners in a row. On anchor
// change it sweeps x's live blocks once, accumulating a co-occurrence count
// for every member profile; each partner then answers in O(1) from the dense
// scratch. Callers keep the anchor in the first argument position across a
// scan to benefit from the cache; correctness does not depend on it.
func (k *Kernel) SharedBlocks(col *blocking.Collection, x, y int) int {
	if !k.aOK || k.aCol != col || k.aVer != col.Version() || k.aID != x {
		k.beginAnchor(col, x)
	}
	if uint(y) < uint(kernelDenseLimit) {
		if y < len(k.slots) {
			if s := &k.slots[y]; s.stamp == k.epoch {
				return int(s.common)
			}
		}
		return 0
	}
	return k.over[y].common
}

// beginAnchor sweeps anchor x's live blocks into neighbor co-occurrence
// counts: a profile y co-occurs with x in exactly common(y) of x's live
// blocks, which is the pair's CBS weight. The sweep costs O(Σ sizes of x's
// blocks) once, against O(|B(x)|+|B(y)|) per pair for the two-pointer
// reference — a win whenever the anchor is weighed against more than a
// handful of partners, which is what block scans do.
func (k *Kernel) beginAnchor(col *blocking.Collection, x int) {
	k.begin()
	k.aBlocks = col.AppendBlocksOf(x, k.aBlocks[:0])
	for _, b := range k.aBlocks {
		k.accumulate(b.A, noLimit, 0, 0)
		k.accumulate(b.B, noLimit, 0, 0)
	}
	k.aCol, k.aVer, k.aID, k.aOK = col, col.Version(), x, true
}

// BeginProbe starts a probe-side accumulation sweep for the serving path.
// The probe's statistics are then folded in posting list by posting list via
// Accumulate; none of the probe methods touch a Collection, so they are safe
// against pinned snapshot views.
func (k *Kernel) BeginProbe() { k.begin() }

// Accumulate folds one posting member list into the probe sweep: every id
// gets common++ and arcs += inv, with no partner-ID restriction (a probe is
// outside the stream, so every indexed profile is a legitimate partner).
func (k *Kernel) Accumulate(ids []int, inv float64) {
	k.accumulate(ids, noLimit, inv, 0)
}

// Partners returns the IDs touched by the current sweep in first-touch order.
// The slice is owned by the Kernel and valid until the next sweep.
func (k *Kernel) Partners() []int { return k.touched }

// ProbeStats returns the accumulated (shared-block count, ARCS reciprocal
// sum) of one touched partner.
func (k *Kernel) ProbeStats(id int) (common int, arcs float64) {
	c, a, _ := k.statsOf(id)
	return c, a
}
