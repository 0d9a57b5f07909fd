package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pier/internal/metablocking"
	"pier/internal/obsv"
)

// refIPES is the executable specification of I-PES's CmpIndex: Algorithm 4
// over plain slices, every "best" found by a linear scan, and a new round
// started the way the paper states it — by walking every entity ever seen and
// taking the ones with pending comparisons. IPES must agree with it step by
// step whatever it keeps beside the map to avoid that walk.
type refIPES struct {
	perEntityCap, pqCap int

	entityQueue []entityEntry
	epq         map[int]*refEntity
	pq          []metablocking.Comparison

	total float64
	count int
}

type refEntity struct {
	items    []metablocking.Comparison
	insSum   float64
	insCount int
}

func newRefIPES(cfg Config) *refIPES {
	return &refIPES{perEntityCap: cfg.PerEntityCapacity, pqCap: cfg.IndexCapacity, epq: map[int]*refEntity{}}
}

// bestOf returns the index of the comparison that orders greatest under
// metablocking.Less, worstOf of the one that orders least; -1 when empty.
func bestOf(items []metablocking.Comparison) int {
	best := -1
	for i, c := range items {
		if best < 0 || metablocking.Less(items[best], c) {
			best = i
		}
	}
	return best
}

func worstOf(items []metablocking.Comparison) int {
	worst := -1
	for i, c := range items {
		if worst < 0 || metablocking.Less(c, items[worst]) {
			worst = i
		}
	}
	return worst
}

// boundedPush is queue.Bounded.Push on a slice: a full queue keeps the best
// capacity elements of its contents and x.
func boundedPush(items []metablocking.Comparison, capacity int, x metablocking.Comparison) []metablocking.Comparison {
	if capacity <= 0 || len(items) < capacity {
		return append(items, x)
	}
	if w := worstOf(items); metablocking.Less(items[w], x) {
		items[w] = x
	}
	return items
}

func popAt(items []metablocking.Comparison, i int) ([]metablocking.Comparison, metablocking.Comparison) {
	c := items[i]
	items[i] = items[len(items)-1]
	return items[:len(items)-1], c
}

func (r *refIPES) top(id int) float64 {
	if st, ok := r.epq[id]; ok && len(st.items) > 0 {
		return st.items[bestOf(st.items)].Weight
	}
	return -1
}

func (r *refIPES) push(id int, c metablocking.Comparison) {
	st, ok := r.epq[id]
	if !ok {
		st = &refEntity{}
		r.epq[id] = st
	}
	st.insSum += c.Weight
	st.insCount++
	st.items = boundedPush(st.items, r.perEntityCap, c)
}

func (r *refIPES) queueLen(id int) int {
	if st, ok := r.epq[id]; ok {
		return len(st.items)
	}
	return 0
}

func (r *refIPES) route(c metablocking.Comparison) {
	w := c.Weight
	r.total += w
	r.count++
	switch {
	case r.top(c.X) < w:
		r.push(c.X, c)
		r.entityQueue = append(r.entityQueue, entityEntry{id: c.X, weight: w})
	case r.top(c.Y) < w:
		r.push(c.Y, c)
		r.entityQueue = append(r.entityQueue, entityEntry{id: c.Y, weight: w})
	case w > r.total/float64(r.count):
		target := c.X
		if r.queueLen(c.Y) < r.queueLen(c.X) {
			target = c.Y
		}
		if st, ok := r.epq[target]; ok && st.insCount > 0 && w <= st.insSum/float64(st.insCount) {
			return
		}
		r.push(target, c)
	default:
		r.pushLowWeight(c)
	}
}

func (r *refIPES) pushLowWeight(c metablocking.Comparison) {
	r.pq = boundedPush(r.pq, r.pqCap, c)
}

func (r *refIPES) dequeue() (metablocking.Comparison, bool) {
	for {
		if len(r.entityQueue) == 0 {
			// A new round: one ⟨e, top weight⟩ per entity with pending
			// comparisons, found by asking every entity.
			for id, st := range r.epq {
				if len(st.items) > 0 {
					r.entityQueue = append(r.entityQueue, entityEntry{id: id, weight: r.top(id)})
				}
			}
			if len(r.entityQueue) == 0 {
				break
			}
		}
		first := 0
		for i, e := range r.entityQueue {
			if entityLess(e, r.entityQueue[first]) {
				first = i
			}
		}
		e := r.entityQueue[first]
		r.entityQueue[first] = r.entityQueue[len(r.entityQueue)-1]
		r.entityQueue = r.entityQueue[:len(r.entityQueue)-1]
		st, ok := r.epq[e.id]
		if !ok || len(st.items) == 0 {
			continue // stale tuple
		}
		var c metablocking.Comparison
		st.items, c = popAt(st.items, bestOf(st.items))
		return c, true
	}
	if len(r.pq) == 0 {
		return metablocking.Comparison{}, false
	}
	var c metablocking.Comparison
	r.pq, c = popAt(r.pq, bestOf(r.pq))
	return c, true
}

func (r *refIPES) pending() int {
	n := len(r.pq)
	for _, st := range r.epq {
		n += len(st.items)
	}
	return n
}

// restored checkpoints s and restores the image into a fresh instance.
func restored(t *testing.T, s *IPES) *IPES {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewIPES(s.cfg)
	if err := fresh.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestIPESDequeueMatchesReference drives IPES and the reference through the
// same seeded interleaving of routed candidates, low-weight pushes (what the
// fallback scan does), dequeues and checkpoint→restore hand-overs, and holds
// them to the same Dequeue result and Pending() after every step, with the
// index invariants checked as it goes.
func TestIPESDequeueMatchesReference(t *testing.T) {
	const entities = 24 // per side; small, so queues empty and refill often
	for _, perEntity := range []int{0, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("cap=%d/seed=%d", perEntity, seed), func(t *testing.T) {
				cfg := testConfig()
				cfg.PerEntityCapacity = perEntity
				cfg.IndexCapacity = 16 // PQ drops too
				s, ref := NewIPES(cfg), newRefIPES(cfg)
				rng := rand.New(rand.NewSource(seed))
				var refilled, pqServed, zeroDrains, restores int

				comparison := func() metablocking.Comparison {
					// Few distinct weights: ties in both queues' orders.
					return metablocking.Comparison{X: rng.Intn(entities), Y: entities + rng.Intn(entities), Weight: float64(1 + rng.Intn(6))}
				}
				check := func(step string) {
					t.Helper()
					s.verify()
					if s.Pending() != ref.pending() {
						t.Fatalf("%s: Pending() = %d, reference holds %d", step, s.Pending(), ref.pending())
					}
				}
				route := func() {
					c := comparison()
					wasEmptied := func(id int) bool { st, ok := s.epq[id]; return ok && st.slot < 0 }
					emptiedX, emptiedY := wasEmptied(c.X), wasEmptied(c.Y)
					s.route(c)
					ref.route(c)
					if (emptiedX && s.epq[c.X].slot >= 0) || (emptiedY && s.epq[c.Y].slot >= 0) {
						refilled++
					}
					check("route")
				}
				dequeue := func() bool {
					fromPQ := len(s.nonEmpty) == 0
					got, ok := s.Dequeue()
					want, wantOK := ref.dequeue()
					if got != want || ok != wantOK {
						t.Fatalf("Dequeue() = %v, %v; reference %v, %v", got, ok, want, wantOK)
					}
					if ok && fromPQ {
						pqServed++
					}
					check("dequeue")
					return ok
				}
				drain := func() {
					for dequeue() {
					}
					if s.Pending() != 0 {
						t.Fatalf("drained, yet Pending() = %d", s.Pending())
					}
					zeroDrains++
				}

				for phase := 0; phase < 6; phase++ {
					for i := 0; i < 150; i++ {
						switch op := rng.Intn(20); {
						case op < 9:
							route()
						case op < 17:
							dequeue()
						case op < 19:
							c := comparison()
							s.pushLowWeight(c)
							ref.pushLowWeight(c)
							check("low-weight push")
						default:
							s = restored(t, s)
							restores++
							check("restore")
						}
					}
					if phase%2 == 1 {
						drain()
						// The next phase routes into entities that were all
						// seen and emptied.
					}
				}
				drain()
				if refilled == 0 || pqServed == 0 || zeroDrains == 0 || restores == 0 {
					t.Fatalf("script too tame: %d emptied entities refilled, %d PQ-served dequeues, %d drains to zero, %d restores",
						refilled, pqServed, zeroDrains, restores)
				}
			})
		}
	}
}

// TestIPESDequeueFromPQAllocatesNothing: with thousands of tracked entities
// and none of them holding work, a dequeue served by PQ starts no round and
// allocates nothing.
func TestIPESDequeueFromPQAllocatesNothing(t *testing.T) {
	const tracked, lowWeight = 10_000, 1_000
	s := NewIPES(testConfig())
	for i := 0; i < tracked; i++ {
		s.route(metablocking.Comparison{X: i, Y: tracked + i, Weight: 2})
	}
	for s.Pending() > 0 {
		s.Dequeue()
	}
	for i := 0; i < lowWeight; i++ {
		s.pushLowWeight(metablocking.Comparison{X: i, Y: 2*tracked + i, Weight: 1})
	}
	if len(s.epq) != tracked || len(s.nonEmpty) != 0 {
		t.Fatalf("set-up: %d tracked entities, %d non-empty; want %d and 0", len(s.epq), len(s.nonEmpty), tracked)
	}
	allocs := testing.AllocsPerRun(lowWeight/2, func() {
		if _, ok := s.Dequeue(); !ok {
			t.Fatal("PQ ran dry inside the measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("PQ-served Dequeue allocates %v times per call, want 0", allocs)
	}
}

// reencoded saves s, lets damage edit the decoded image, and returns the
// re-encoded bytes.
func reencoded(t *testing.T, s *IPES, damage func(*ipesImage)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	var img ipesImage
	if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
		t.Fatal(err)
	}
	damage(&img)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&img); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestIPESLoadStateRejectsPendingDrift: Pending gates the fallback scan, so an
// image whose counter disagrees with the comparisons it carries must not load.
func TestIPESLoadStateRejectsPendingDrift(t *testing.T) {
	s := NewIPES(testConfig())
	s.route(metablocking.Comparison{X: 1, Y: 50, Weight: 10})
	s.route(metablocking.Comparison{X: 2, Y: 60, Weight: 10})
	s.route(metablocking.Comparison{X: 1, Y: 2, Weight: 0.5}) // lands in PQ
	if s.pq.Len() != 1 || len(s.nonEmpty) != 2 {
		t.Fatalf("set-up: PQ holds %d, %d entities non-empty; want 1 and 2", s.pq.Len(), len(s.nonEmpty))
	}

	damages := map[string]func(*ipesImage){
		"counter raised":       func(img *ipesImage) { img.Pending++ },
		"counter zeroed":       func(img *ipesImage) { img.Pending = 0 },
		"entity queue emptied": func(img *ipesImage) { st := img.EPQ[1]; st.Items = nil; img.EPQ[1] = st },
		"PQ emptied":           func(img *ipesImage) { img.PQ = nil },
	}
	for name, damage := range damages {
		err := NewIPES(s.cfg).LoadState(reencoded(t, s, damage))
		if err == nil || !strings.Contains(err.Error(), "pending") {
			t.Errorf("%s: LoadState = %v, want a pending-count error", name, err)
		}
	}

	fresh := restored(t, s)
	fresh.verify()
	if fresh.Pending() != 3 || len(fresh.nonEmpty) != 2 || fresh.nonEmpty[0].id != 1 || fresh.nonEmpty[1].id != 2 {
		t.Errorf("restored: Pending %d, non-empty set %v; want 3 and entities 1, 2 in that order", fresh.Pending(), fresh.nonEmpty)
	}
}

// TestLoadStateRejectsScanCursorOutOfRange: the leftover scan indexes its
// block list with the cursor, so a cursor outside it must not load.
func TestLoadStateRejectsScanCursorOutOfRange(t *testing.T) {
	s := NewIPES(testConfig())
	s.route(metablocking.Comparison{X: 1, Y: 50, Weight: 10})
	for _, pos := range []int{-1, 1} {
		err := NewIPES(s.cfg).LoadState(reencoded(t, s, func(img *ipesImage) { img.Gen.ScanPos = pos }))
		if err == nil || !strings.Contains(err.Error(), "scan cursor") {
			t.Errorf("ScanPos %d: LoadState = %v, want a scan-cursor error", pos, err)
		}
	}
}

// TestIPESVerifyFiresOnNonEmptySetDrift breaks the non-empty set by hand in
// each way the invariant names and expects verify to object.
func TestIPESVerifyFiresOnNonEmptySetDrift(t *testing.T) {
	build := func() *IPES {
		s := NewIPES(testConfig())
		s.route(metablocking.Comparison{X: 1, Y: 50, Weight: 10})
		s.route(metablocking.Comparison{X: 2, Y: 60, Weight: 10})
		s.route(metablocking.Comparison{X: 3, Y: 70, Weight: 10})
		s.Dequeue() // entity 1 is now tracked and empty
		s.verify()
		return s
	}
	breaks := map[string]func(*IPES){
		"non-empty entity missing":   func(s *IPES) { s.nonEmpty = s.nonEmpty[:1] },
		"non-empty entity unslotted": func(s *IPES) { s.epq[2].slot = -1 },
		"wrong slot":                 func(s *IPES) { s.epq[2].slot, s.epq[3].slot = s.epq[3].slot, s.epq[2].slot },
		"listed twice":               func(s *IPES) { s.nonEmpty = append(s.nonEmpty, s.epq[2]) },
		"empty entity listed":        func(s *IPES) { s.epq[1].slot = len(s.nonEmpty); s.nonEmpty = append(s.nonEmpty, s.epq[1]) },
		"empty entity slotted":       func(s *IPES) { s.epq[1].slot = 0 },
	}
	for name, brk := range breaks {
		t.Run(name, func(t *testing.T) {
			s := build()
			brk(s)
			defer func() {
				if recover() == nil {
					t.Error("verify accepted the broken index")
				}
			}()
			s.verify()
		})
	}
}

// TestIPESGaugesMove: the three I-PES gauges are set by UpdateIndex and tell
// "tracked ≫ pending while PQ drains" apart from an index with entity work.
func TestIPESGaugesMove(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	s := NewIPES(cfg)
	tracked := reg.Gauge("pier_ipes_entities", "")
	pending := reg.Gauge("pier_ipes_entities_pending", "")
	lowWeight := reg.Gauge("pier_ipes_low_weight_pending", "")

	col, incs := genWorld(3, true, 120, 40)
	for _, inc := range incs {
		s.UpdateIndex(col, inc)
	}
	if tracked.Value() == 0 || tracked.Value() != int64(len(s.epq)) ||
		pending.Value() == 0 || pending.Value() != int64(len(s.nonEmpty)) {
		t.Fatalf("after ingest: tracked %d (E_PQ %d), pending %d (non-empty %d); want both positive and exact",
			tracked.Value(), len(s.epq), pending.Value(), len(s.nonEmpty))
	}
	for s.Pending() > 0 {
		s.Dequeue()
	}
	if pending.Value() == 0 {
		t.Error("gauges moved inside Dequeue; they are set per UpdateIndex")
	}
	// The tick finds the index empty and files the fallback scan's next
	// block under PQ: entities stay tracked, none has work.
	s.UpdateIndex(col, nil)
	if lowWeight.Value() == 0 || lowWeight.Value() != int64(s.pq.Len()) {
		t.Errorf("after the tick: low-weight gauge %d, PQ holds %d; want equal and positive", lowWeight.Value(), s.pq.Len())
	}
	if pending.Value() != 0 || tracked.Value() != int64(len(s.epq)) {
		t.Errorf("after the tick: pending %d, tracked %d; want 0 and %d", pending.Value(), tracked.Value(), len(s.epq))
	}
}
