package core

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"pier/internal/bloom"
	"pier/internal/intern"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/skiplist"
)

// Checkpointing: each PIER strategy can serialize its complete index state —
// queues in heap layout, executed-pair filters, scan cursors, routing
// statistics — and restore it into a freshly constructed instance of the same
// strategy and configuration. Restoring the exact queue layouts (not just the
// queued elements) makes the restored dequeue order byte-identical to the
// uninterrupted one, which is what the recovery-equivalence oracle in
// internal/check asserts. Configuration (scheme, capacities, β) is NOT
// persisted: the caller reconstructs the strategy from its own configuration,
// and restoring into a differently configured instance is undefined.

// Persistent is implemented by strategies whose full incremental state can be
// checkpointed. SaveState writes a self-contained gob image; LoadState
// replaces the receiver's state with a previously saved image. LoadState must
// be called on a fresh instance built with the same Config.
type Persistent interface {
	Strategy
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

var (
	_ Persistent = (*IPCS)(nil)
	_ Persistent = (*IPBS)(nil)
	_ Persistent = (*IPES)(nil)
	_ Persistent = (*ISN)(nil)
)

// generatorImage is the persisted state of the shared candidate-generation
// core: the executed-pair filter and the fallback-scan cursor. The scan
// cursor is persisted as raw symbol values: symbol numbering is append-only
// and saved verbatim with the block collection, and a strategy image is only
// ever restored alongside the collection it was checkpointed with (the
// snapshot container orders the sections that way), so the symbols resolve
// identically after the restore. The weigher is a cache keyed on the
// collection's identity and version; it rebuilds itself on first use after a
// restore.
type generatorImage struct {
	Executed    bloom.State
	ScanSyms    []uint32
	ScanPos     int
	ScanVersion uint64
	ScanValid   bool
}

func (g *generator) image() (generatorImage, error) {
	ex, err := bloom.StateOf(g.executed)
	if err != nil {
		return generatorImage{}, err
	}
	img := generatorImage{
		Executed:    ex,
		ScanSyms:    make([]uint32, len(g.scanSyms)),
		ScanPos:     g.scanPos,
		ScanVersion: g.scanVersion,
		ScanValid:   g.scanValid,
	}
	for i, sym := range g.scanSyms {
		img.ScanSyms[i] = uint32(sym)
	}
	return img, nil
}

func (g *generator) restore(img generatorImage) {
	g.executed = bloom.RestoreMembership(img.Executed)
	g.scanSyms = make([]intern.Sym, len(img.ScanSyms))
	for i, s := range img.ScanSyms {
		g.scanSyms[i] = intern.Sym(s)
	}
	g.scanPos = img.ScanPos
	g.scanVersion = img.ScanVersion
	g.scanValid = img.ScanValid
	g.weigher = metablocking.Kernel{} // cache: rebuilt lazily
}

// ipcsImage is the persisted state of I-PCS.
type ipcsImage struct {
	Gen   generatorImage
	Index []metablocking.Comparison
}

// SaveState implements Persistent.
func (s *IPCS) SaveState(w io.Writer) error {
	gen, err := s.gen.image()
	if err != nil {
		return fmt.Errorf("core: save I-PCS: %w", err)
	}
	img := ipcsImage{Gen: gen, Index: s.index.Snapshot()}
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
	s.gen.restore(img.Gen)
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
// generatorImage on why that is sound).
type ipbsImage struct {
	Index        []metablocking.Comparison
	CI           map[uint32]int
	PI           map[uint32][]int
	Heap         []ciEntryImage
	CF           bloom.State
	InvertRefill bool
}

// SaveState implements Persistent.
func (s *IPBS) SaveState(w io.Writer) error {
	cf, err := bloom.StateOf(s.cf)
	if err != nil {
		return fmt.Errorf("core: save I-PBS: %w", err)
	}
	img := ipbsImage{
		Index:        s.index.Snapshot(),
		CI:           make(map[uint32]int, len(s.ci)),
		PI:           make(map[uint32][]int, len(s.pi)),
		CF:           cf,
		InvertRefill: s.InvertRefill,
	}
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
	var img ipbsImage
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
	s.cf = bloom.RestoreMembership(img.CF)
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
	gen, err := s.gen.image()
	if err != nil {
		return fmt.Errorf("core: save I-PES: %w", err)
	}
	img := ipesImage{
		Gen:     gen,
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
	var img ipesImage
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
	s.gen.restore(img.Gen)
	eq := make([]entityEntry, len(img.EntityQueue))
	for i, e := range img.EntityQueue {
		eq[i] = entityEntry{id: e.ID, weight: e.Weight}
	}
	s.entityQueue.Restore(eq)
	s.epq = make(map[int]*entityState, len(img.EPQ))
	s.nonEmpty = nil
	for id, sti := range img.EPQ {
		st := &entityState{insSum: sti.InsSum, insCount: sti.InsCount, id: id, slot: -1}
		st.q.Init(s.cfg.PerEntityCapacity, metablocking.Less)
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

// snKeyImage mirrors the unexported snKey for encoding.
type snKeyImage struct {
	Token string
	ID    int
	Src   uint8
}

// isnImage is the persisted state of I-SN.
type isnImage struct {
	Keys  []snKeyImage
	Queue []metablocking.Comparison
}

// SaveState implements Persistent.
func (s *ISN) SaveState(w io.Writer) error {
	img := isnImage{Queue: s.queue.Snapshot()}
	for n := s.index.First(); n != nil; n = n.Next() {
		img.Keys = append(img.Keys, snKeyImage{Token: n.Key.token, ID: n.Key.id, Src: uint8(n.Key.src)})
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("core: save I-SN: %w", err)
	}
	return nil
}

// LoadState implements Persistent. The sorted-neighborhood index is rebuilt
// by re-inserting the saved keys in order; tower heights re-randomize, but
// candidate generation only walks level-0 links, whose order is fully
// determined by the keys, so future emissions are unaffected.
func (s *ISN) LoadState(r io.Reader) error {
	var img isnImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("core: load I-SN: %w", err)
	}
	s.index = skiplist.New(snLess, 1)
	for _, k := range img.Keys {
		s.index.Insert(snKey{token: k.Token, id: k.ID, src: profile.Source(k.Src)})
	}
	s.queue.Restore(img.Queue)
	return nil
}
