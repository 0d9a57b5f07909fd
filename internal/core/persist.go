package core

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"pier/internal/intern"
	"pier/internal/metablocking"
)

// Checkpointing: each PIER strategy can serialize its complete index state —
// queues in heap layout, scan cursors, routing statistics, and a private
// executed-pair set — and restore it into a freshly constructed instance of
// the same strategy and configuration. Restoring the exact queue layouts (not
// just the queued elements) makes the restored dequeue order byte-identical
// to the uninterrupted one, which is what the recovery-equivalence oracle in
// internal/check asserts. Configuration (scheme, capacities, β) is NOT
// persisted: the caller reconstructs the strategy from its own configuration,
// and restoring into a differently configured instance is undefined.
//
// An executed-pair set lent through ShareExecuted belongs to the pipeline,
// which persists it with its own state: the image then carries no executed
// keys, and the pipeline lends the restored set after LoadState. Images
// written before the shared set carried a Bloom filter under the field name
// Executed; gob skips it, and restores proceed with the pipeline's exact set.

// Persistent is implemented by strategies whose full incremental state can be
// checkpointed. SaveState writes a self-contained gob image; LoadState
// replaces the receiver's state with a previously saved image, including the
// private executed-pair set. LoadState must be called on a fresh instance
// built with the same Config.
type Persistent interface {
	Strategy
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

var (
	_ Persistent = (*IPCS)(nil)
	_ Persistent = (*IPBS)(nil)
	_ Persistent = (*IPES)(nil)
)

// privateKeys returns the marked keys in ascending order when the set is the
// strategy's own, and nil when a pipeline lent it.
func (e *Executed) privateKeys() []uint64 {
	if e.lent || e.set == nil {
		return nil
	}
	m := e.set.(pairMap)
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// restorePrivate makes keys the strategy's own executed-pair set.
func (e *Executed) restorePrivate(keys []uint64) {
	m := make(pairMap, len(keys))
	for _, k := range keys {
		m[k] = struct{}{}
	}
	e.set, e.lent = m, false
}

// generatorImage is the persisted state of the shared candidate-generation
// core: the private executed-pair set and the fallback-scan cursor. The scan
// cursor is persisted as raw symbol values: symbol numbering is append-only
// and saved verbatim with the block collection, and a strategy image is only
// ever restored alongside the collection it was checkpointed with (the
// snapshot container orders the sections that way), so the symbols resolve
// identically after the restore. Images written before the cursor held only
// pair-bearing blocks may list pairless ones too; the scan skips those from
// the block metadata, so they restore unchanged.
type generatorImage struct {
	Marked      []uint64
	ScanSyms    []uint32
	ScanPos     int
	ScanVersion uint64
	ScanValid   bool
}

func (g *generator) image() generatorImage {
	img := generatorImage{
		Marked:      g.privateKeys(),
		ScanSyms:    make([]uint32, len(g.scanSyms)),
		ScanPos:     g.scanPos,
		ScanVersion: g.scanVersion,
		ScanValid:   g.scanValid,
	}
	for i, sym := range g.scanSyms {
		img.ScanSyms[i] = uint32(sym)
	}
	return img
}

func (g *generator) restore(img generatorImage) error {
	if img.ScanPos < 0 || img.ScanPos > len(img.ScanSyms) {
		return fmt.Errorf("leftover scan cursor %d outside its %d blocks", img.ScanPos, len(img.ScanSyms))
	}
	g.restorePrivate(img.Marked)
	g.scanSyms = make([]intern.Sym, len(img.ScanSyms))
	for i, s := range img.ScanSyms {
		g.scanSyms[i] = intern.Sym(s)
	}
	g.scanPos = img.ScanPos
	g.scanVersion = img.ScanVersion
	g.scanValid = img.ScanValid
	return nil
}

// ipcsImage is the persisted state of I-PCS.
type ipcsImage struct {
	Gen   generatorImage
	Index []metablocking.Comparison
}

// SaveState implements Persistent.
func (s *IPCS) SaveState(w io.Writer) error {
	img := ipcsImage{Gen: s.gen.image(), Index: s.index.Snapshot()}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("core: save I-PCS: %w", err)
	}
	return nil
}

// LoadState implements Persistent.
func (s *IPCS) LoadState(r io.Reader) error {
	var img ipcsImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("core: load I-PCS: %w", err)
	}
	if err := s.gen.restore(img.Gen); err != nil {
		return fmt.Errorf("core: load I-PCS: %w", err)
	}
	s.index.Restore(img.Index)
	return nil
}

// ciEntryImage mirrors the unexported ciEntry for encoding. The key string
// rides along so the restored heap keeps its exact tie-break order without a
// symbol-table lookup at load time.
type ciEntryImage struct {
	Count int
	Sym   uint32
	Key   string
}

// ipbsImage is the persisted state of I-PBS. CI and PI are keyed by raw
// symbol values, valid against the collection checkpointed alongside (see
// generatorImage on why that is sound). Generated is the comparison filter
// CF, ascending; an image written while CF was a Bloom filter stored it under
// the field name CF, which gob skips, so such a restore starts with an empty
// CF and may regenerate a pair — which Dequeue then finds marked, or queues
// twice and emits once.
type ipbsImage struct {
	Index        []metablocking.Comparison
	CI           map[uint32]int
	PI           map[uint32][]int
	Heap         []ciEntryImage
	Generated    []uint64
	Marked       []uint64
	InvertRefill bool
}

// SaveState implements Persistent.
func (s *IPBS) SaveState(w io.Writer) error {
	img := ipbsImage{
		Index:        s.index.Snapshot(),
		CI:           make(map[uint32]int, len(s.ci)),
		PI:           make(map[uint32][]int, len(s.pi)),
		Generated:    make([]uint64, 0, len(s.cf)),
		Marked:       s.privateKeys(),
		InvertRefill: s.InvertRefill,
	}
	for k := range s.cf {
		img.Generated = append(img.Generated, k)
	}
	slices.Sort(img.Generated)
	for sym, n := range s.ci {
		img.CI[uint32(sym)] = n
	}
	for sym, ids := range s.pi {
		img.PI[uint32(sym)] = ids
	}
	for _, e := range s.minHeap.Snapshot() {
		img.Heap = append(img.Heap, ciEntryImage{Count: e.count, Sym: uint32(e.sym), Key: e.key})
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("core: save I-PBS: %w", err)
	}
	return nil
}

// LoadState implements Persistent.
func (s *IPBS) LoadState(r io.Reader) error {
	// Non-nil maps bound what a damaged gob count can allocate (DESIGN.md §9).
	img := ipbsImage{CI: map[uint32]int{}, PI: map[uint32][]int{}}
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("core: load I-PBS: %w", err)
	}
	s.index.Restore(img.Index)
	s.ci = make(map[intern.Sym]int, len(img.CI))
	for sym, n := range img.CI {
		s.ci[intern.Sym(sym)] = n
	}
	s.pi = make(map[intern.Sym][]int, len(img.PI))
	for sym, ids := range img.PI {
		s.pi[intern.Sym(sym)] = ids
	}
	s.piFree = nil // recycled scratch from the pre-restore life is stale
	heap := make([]ciEntry, len(img.Heap))
	for i, e := range img.Heap {
		heap[i] = ciEntry{count: e.Count, sym: intern.Sym(e.Sym), key: e.Key}
	}
	s.minHeap.Restore(heap)
	s.cf = make(pairMap, len(img.Generated))
	for _, k := range img.Generated {
		s.cf[k] = struct{}{}
	}
	s.restorePrivate(img.Marked)
	s.InvertRefill = img.InvertRefill
	s.weigher = metablocking.Kernel{}
	return nil
}

// entityEntryImage mirrors the unexported entityEntry for encoding.
type entityEntryImage struct {
	ID     int
	Weight float64
}

// entityStateImage mirrors the unexported entityState for encoding.
type entityStateImage struct {
	Items    []metablocking.Comparison
	InsSum   float64
	InsCount int
}

// ipesImage is the persisted state of I-PES.
type ipesImage struct {
	Gen         generatorImage
	EntityQueue []entityEntryImage
	EPQ         map[int]entityStateImage
	PQ          []metablocking.Comparison
	Total       float64
	Count       int
	Pending     int
}

// SaveState implements Persistent.
func (s *IPES) SaveState(w io.Writer) error {
	img := ipesImage{
		Gen:     s.gen.image(),
		PQ:      s.pq.Snapshot(),
		EPQ:     make(map[int]entityStateImage, len(s.epq)),
		Total:   s.total,
		Count:   s.count,
		Pending: s.pending,
	}
	for _, e := range s.entityQueue.Snapshot() {
		img.EntityQueue = append(img.EntityQueue, entityEntryImage{ID: e.id, Weight: e.weight})
	}
	for id, st := range s.epq {
		img.EPQ[id] = entityStateImage{
			Items:    st.q.Snapshot(),
			InsSum:   st.insSum,
			InsCount: st.insCount,
		}
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("core: save I-PES: %w", err)
	}
	return nil
}

// LoadState implements Persistent.
func (s *IPES) LoadState(r io.Reader) error {
	// Non-nil maps bound what a damaged gob count can allocate (DESIGN.md §9).
	img := ipesImage{EPQ: map[int]entityStateImage{}}
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("core: load I-PES: %w", err)
	}
	// The counter gates the fallback scan (indexEmpty), so an image whose
	// Pending disagrees with the comparisons it carries would starve or
	// flood the matcher for the rest of the run.
	held := len(img.PQ)
	for _, sti := range img.EPQ {
		held += len(sti.Items)
	}
	if held != img.Pending {
		return fmt.Errorf("core: load I-PES: image records %d pending comparisons but carries %d in E_PQ+PQ", img.Pending, held)
	}
	if err := s.gen.restore(img.Gen); err != nil {
		return fmt.Errorf("core: load I-PES: %w", err)
	}
	eq := make([]entityEntry, len(img.EntityQueue))
	for i, e := range img.EntityQueue {
		eq[i] = entityEntry{id: e.ID, weight: e.Weight}
	}
	s.entityQueue.Restore(eq)
	s.epq = make(map[int]*entityState, len(img.EPQ))
	s.nonEmpty = nil
	for id, sti := range img.EPQ {
		st := &entityState{insSum: sti.InsSum, insCount: sti.InsCount, id: id, slot: -1}
		st.q.Init(s.cfg.PerEntityCapacity, metablocking.Compare)
		st.q.Restore(sti.Items)
		s.epq[id] = st
		if st.q.Len() > 0 {
			s.nonEmpty = append(s.nonEmpty, st)
		}
	}
	// Ascending id, so a restored instance does not inherit gob's map order.
	slices.SortFunc(s.nonEmpty, func(a, b *entityState) int { return cmp.Compare(a.id, b.id) })
	for i, st := range s.nonEmpty {
		st.slot = i
	}
	s.pq.Restore(img.PQ)
	s.total = img.Total
	s.count = img.Count
	s.pending = img.Pending
	return nil
}
