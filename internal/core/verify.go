package core

import "fmt"

// Self-verification of the strategies' index structures, run after every
// UpdateIndex when Config.CheckInvariants is set. A violation panics: by the
// Strategy contract the index is single-writer, so a broken invariant means a
// bug in the strategy itself, not bad input, and continuing would silently
// corrupt prioritization order.

// mustHold panics on a candidate-generation contract violation: ghosting,
// candidate order or I-WNP pruning (the generator checks each per profile).
func mustHold(step string, err error) {
	if err != nil {
		panic(fmt.Sprintf("core: %s invariant violated: %v", step, err))
	}
}

// verify checks I-PCS's single bounded queue: interval-heap order and the
// capacity bound.
func (s *IPCS) verify() {
	if err := s.index.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PCS index invariant violated: %v", err))
	}
}

// verify checks I-PBS's paired block indexes: CI and PI must track exactly
// the same active blocks, CI counts must be non-negative (a singleton block
// legitimately contributes 0), PI lists must be non-empty, and both the
// comparison queue and the lazy min-heap must satisfy their heap orders.
func (s *IPBS) verify() {
	if len(s.ci) != len(s.pi) {
		panic(fmt.Sprintf("core: I-PBS CI tracks %d blocks but PI %d", len(s.ci), len(s.pi)))
	}
	for sym, count := range s.ci {
		if count < 0 {
			panic(fmt.Sprintf("core: I-PBS CI count for block symbol %d is negative: %d", sym, count))
		}
		if len(s.pi[sym]) == 0 {
			panic(fmt.Sprintf("core: I-PBS block symbol %d active in CI but has no PI profiles", sym))
		}
	}
	if err := s.index.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PBS index invariant violated: %v", err))
	}
	if err := s.minHeap.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PBS min-heap invariant violated: %v", err))
	}
}

// verify checks I-SN's single bounded queue, as for I-PCS.
func (s *ISN) verify() {
	if err := s.queue.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-SN index invariant violated: %v", err))
	}
}

// verify checks I-PES's triple index: the pending counter must equal the
// comparisons actually held across E_PQ and PQ (the counter gates the
// fallback scan, so drift either starves or floods the matcher), every queue
// must satisfy its heap order, and nonEmpty must hold exactly the entities
// whose queue is non-empty, each once, at its recorded slot (rounds start
// from it: an entity it misses is scheduled by no round, one it lists twice
// gets two turns).
func (s *IPES) verify() {
	held := s.pq.Len()
	nonEmpty := 0
	for id, st := range s.epq {
		if err := st.q.Verify(); err != nil {
			panic(fmt.Sprintf("core: I-PES entity %d queue invariant violated: %v", id, err))
		}
		held += st.q.Len()
		if st.id != id {
			panic(fmt.Sprintf("core: I-PES entity %d state records id %d", id, st.id))
		}
		switch {
		case st.q.Len() == 0:
			if st.slot != -1 {
				panic(fmt.Sprintf("core: I-PES entity %d has an empty queue but slot %d in the non-empty set", id, st.slot))
			}
		case st.slot < 0 || st.slot >= len(s.nonEmpty) || s.nonEmpty[st.slot] != st:
			panic(fmt.Sprintf("core: I-PES entity %d holds %d comparisons but is not at its slot %d of the non-empty set", id, st.q.Len(), st.slot))
		default:
			nonEmpty++
		}
	}
	// Every non-empty entity owns a distinct slot, so equal counts leave no
	// room for a duplicate or a stranger.
	if nonEmpty != len(s.nonEmpty) {
		panic(fmt.Sprintf("core: I-PES non-empty set lists %d entities but %d have pending comparisons", len(s.nonEmpty), nonEmpty))
	}
	if held != s.pending {
		panic(fmt.Sprintf("core: I-PES pending counter %d but %d comparisons held in E_PQ+PQ", s.pending, held))
	}
	if err := s.pq.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PES PQ invariant violated: %v", err))
	}
	if err := s.entityQueue.Verify(); err != nil {
		panic(fmt.Sprintf("core: I-PES entity queue invariant violated: %v", err))
	}
}
