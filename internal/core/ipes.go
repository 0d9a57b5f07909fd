package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/obsv"
	"pier/internal/profile"
	"pier/internal/queue"
)

// IPES is Incremental Progressive Entity Scheduling (Algorithm 4), the
// entity-centric PIER strategy and the paper's overall best performer.
// Instead of ranking comparisons globally by a weighting scheme — which CBS
// can mislead toward long, token-rich non-matches — I-PES ranks *entities* by
// the weight of their best pending comparison and emits one comparison per
// entity per round, best entity first. This spreads the matcher's budget
// across distinct entities, compensating for weighting-scheme weaknesses.
//
// CmpIndex is the triple ⟨EntityQueue, E_PQ, PQ⟩:
//
//   - E_PQ maps each entity to a priority queue of its pending comparisons,
//     guarded by a double pruning: a comparison enters some entity's queue
//     only via the rules of Algorithm 4 lines 4–12.
//   - EntityQueue holds ⟨entity, weight⟩ tuples, weight being the entity's
//     top comparison weight at insertion time; stale tuples are skipped at
//     dequeue.
//   - PQ is a bounded priority queue of globally below-average comparisons,
//     drained only when the entity path is exhausted.
type IPES struct {
	cfg Config
	gen *generator

	entityQueue *queue.Heap[entityEntry]
	epq         map[int]*entityState
	pq          *queue.Bounded[metablocking.Comparison]

	// nonEmpty holds exactly the E_PQ entries whose queue is non-empty, each
	// at index entityState.slot, in no particular order: a new round reads
	// it instead of walking epq, whose entries outlive their comparisons
	// (insSum/insCount keep feeding insert()'s pruning). The order cannot
	// reach emission: the EntityQueue is empty when a round starts and
	// entityLess is a total order on ⟨weight, id⟩, so the heap pops one
	// sequence whatever order the tuples were pushed in.
	nonEmpty []*entityState

	total   float64 // running sum of all inserted comparison weights
	count   int     // running count of all inserted comparisons
	pending int     // comparisons currently held across E_PQ and PQ

	// Set at the end of every UpdateIndex, never per Dequeue; nil without
	// Config.Metrics.
	entitiesGauge, entitiesPendingGauge, lowWeightGauge *obsv.Gauge
}

type entityEntry struct {
	id     int
	weight float64
}

// entityLess orders the EntityQueue max-first (implemented on a min-heap by
// inverting), ties by entity ID for determinism.
func entityLess(a, b entityEntry) bool {
	if a.weight != b.weight {
		return a.weight > b.weight
	}
	return a.id < b.id
}

// entityState is one E_PQ entry: the entity's pending comparisons plus the
// statistics backing the insert() average-weight pruning.
type entityState struct {
	q        queue.Bounded[metablocking.Comparison] // by value: one alloc per entity
	insSum   float64
	insCount int
	id       int
	slot     int // index in IPES.nonEmpty; -1 while q is empty
}

// NewIPES returns an I-PES strategy with the given configuration.
func NewIPES(cfg Config) *IPES {
	s := &IPES{
		cfg:         cfg,
		gen:         newGenerator(cfg),
		entityQueue: queue.NewHeap(entityLess),
		epq:         make(map[int]*entityState),
		pq:          queue.NewBounded(cfg.IndexCapacity, metablocking.Compare),
	}
	if cfg.Metrics != nil {
		s.entitiesGauge = cfg.Metrics.Gauge("pier_ipes_entities", "entities tracked in I-PES's E_PQ, with or without pending comparisons")
		s.entitiesPendingGauge = cfg.Metrics.Gauge("pier_ipes_entities_pending", "I-PES entities whose queue holds at least one comparison")
		s.lowWeightGauge = cfg.Metrics.Gauge("pier_ipes_low_weight_pending", "comparisons in I-PES's low-weight queue PQ")
	}
	return s
}

// Name implements Strategy.
func (s *IPES) Name() string { return "I-PES" }

// UpdateIndex implements Algorithm 4: generate the increment's weighted
// comparison list exactly as I-PCS does (Algorithm 2 lines 1–11, including
// the GetComparisons fallback on empty increments), then route every
// comparison into the entity index, the entity queue, or the low-weight
// queue according to lines 1–14.
func (s *IPES) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if s.cfg.CheckInvariants {
		defer s.verify()
	}
	cmpList, cost := s.gen.candidates(col, delta)
	if len(delta) == 0 && s.indexEmpty() {
		var extra time.Duration
		cmpList, extra = s.gen.fallbackScan(col)
		cost += extra
		// Leftovers bypass the double pruning and go straight to the
		// low-weight queue PQ. Routing them through route() can lose work
		// permanently: insert() discards a comparison whose weight is at or
		// below its entity's average, and the fallback scan visits each
		// block once per collection version — a pair discarded from its
		// last unscanned block is never generated again (found by the
		// internal/check oracles; see DESIGN.md). Pruning exists to triage
		// *fresh* candidates; by the time the scan runs, the index is empty
		// and these comparisons are the only remaining work. PQ is empty
		// too, so the block loads as one sorted run.
		s.pq.PushAll(cmpList)
		s.pending = s.pq.Len()
	} else {
		for _, c := range cmpList {
			s.route(c)
		}
	}
	if s.entitiesGauge != nil {
		s.entitiesGauge.Set(int64(len(s.epq)))
		s.entitiesPendingGauge.Set(int64(len(s.nonEmpty)))
		s.lowWeightGauge.Set(int64(s.pq.Len()))
	}
	return cost
}

// route places one weighted comparison per Algorithm 4 lines 2–14.
func (s *IPES) route(c metablocking.Comparison) {
	w := c.Weight
	s.total += w
	s.count++
	switch {
	case s.topWeight(c.X) < w:
		s.epqPush(c.X, c)
		s.entityQueue.Push(entityEntry{id: c.X, weight: w})
	case s.topWeight(c.Y) < w:
		s.epqPush(c.Y, c)
		s.entityQueue.Push(entityEntry{id: c.Y, weight: w})
	case w > s.total/float64(s.count):
		// Double pruning: attach to the endpoint with the smaller
		// queue, but only if the weight beats that entity's average
		// inserted weight; otherwise the comparison is discarded.
		target := c.X
		if s.queueLen(c.Y) < s.queueLen(c.X) {
			target = c.Y
		}
		s.insert(c, target)
	default:
		s.pushLowWeight(c)
	}
}

// pushLowWeight queues c in the bounded low-weight queue PQ.
func (s *IPES) pushLowWeight(c metablocking.Comparison) {
	if _, dropped := s.pq.Push(c); !dropped {
		s.pending++
	}
}

// topWeight returns the weight of the entity's current top comparison, or -1
// if the entity has no pending comparisons (so any weight beats it).
func (s *IPES) topWeight(id int) float64 {
	st, ok := s.epq[id]
	if !ok {
		return -1
	}
	if top, ok := st.q.PeekBest(); ok {
		return top.Weight
	}
	return -1
}

func (s *IPES) queueLen(id int) int {
	if st, ok := s.epq[id]; ok {
		return st.q.Len()
	}
	return 0
}

// epqPush unconditionally inserts c into entity id's queue, updating the
// insertion statistics used by insert().
func (s *IPES) epqPush(id int, c metablocking.Comparison) {
	st, ok := s.epq[id]
	if !ok {
		st = &entityState{id: id, slot: -1}
		st.q.Init(s.cfg.PerEntityCapacity, metablocking.Compare)
		s.epq[id] = st
	}
	st.insSum += c.Weight
	st.insCount++
	if _, dropped := st.q.Push(c); !dropped {
		s.pending++
	}
	if st.slot < 0 { // empty → non-empty: a push into an empty queue never drops
		st.slot = len(s.nonEmpty)
		s.nonEmpty = append(s.nonEmpty, st)
	}
}

// insert implements the paper's insert(c, e, E_PQ(e)): the comparison enters
// the entity's queue only if its weight exceeds the entity's average inserted
// weight; otherwise it is discarded (the second half of the double pruning).
func (s *IPES) insert(c metablocking.Comparison, id int) {
	st, ok := s.epq[id]
	if ok && st.insCount > 0 && c.Weight <= st.insSum/float64(st.insCount) {
		return
	}
	s.epqPush(id, c)
}

func (s *IPES) indexEmpty() bool { return s.pending == 0 }

// Dequeue implements CmpIndex.dequeue() for I-PES: the next comparison in
// I-PES order (see next) that is not marked executed.
func (s *IPES) Dequeue() (metablocking.Comparison, bool) {
	for {
		c, ok := s.next()
		if !ok || s.gen.Mark(c.Key()) {
			return c, ok
		}
	}
}

// ShareExecuted implements Strategy.
func (s *IPES) ShareExecuted(set PairSet) { s.gen.ShareExecuted(set) }

// next pops the best entity from EntityQueue (skipping stale tuples) and
// returns that entity's best pending comparison. When the EntityQueue runs
// dry it is refilled with one tuple per entity that still has pending
// comparisons — starting the next round — and when the entity path is fully
// exhausted, comparisons come from the low-weight queue PQ.
func (s *IPES) next() (metablocking.Comparison, bool) {
	for {
		e, ok := s.entityQueue.Pop()
		if !ok {
			if !s.refillEntityQueue() {
				break
			}
			continue
		}
		st, ok := s.epq[e.id]
		if !ok || st.q.Len() == 0 {
			continue // stale tuple
		}
		c, _ := st.q.PopBest()
		if st.q.Len() == 0 {
			s.dropEmptied(st)
		}
		s.pending--
		return c, true
	}
	if c, ok := s.pq.PopBest(); ok {
		s.pending--
		return c, true
	}
	return metablocking.Comparison{}, false
}

// dropEmptied swap-removes an entity whose queue just emptied from nonEmpty;
// its epq entry and pruning statistics stay.
func (s *IPES) dropEmptied(st *entityState) {
	last := len(s.nonEmpty) - 1
	moved := s.nonEmpty[last]
	s.nonEmpty[st.slot] = moved
	moved.slot = st.slot
	s.nonEmpty[last] = nil
	s.nonEmpty = s.nonEmpty[:last]
	st.slot = -1
}

// refillEntityQueue pushes ⟨e, top.weight⟩ for every entity with pending
// comparisons; it reports whether anything was pushed. The cost follows the
// entities that have work, not the entities ever seen: while only PQ holds
// comparisons it is a length check.
func (s *IPES) refillEntityQueue() bool {
	for _, st := range s.nonEmpty {
		top, _ := st.q.PeekBest()
		s.entityQueue.Push(entityEntry{id: st.id, weight: top.Weight})
	}
	return len(s.nonEmpty) > 0
}

// Pending implements Strategy.
func (s *IPES) Pending() int { return s.pending }
