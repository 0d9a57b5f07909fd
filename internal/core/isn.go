package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
	"pier/internal/queue"
	"pier/internal/skiplist"
)

// ISN (Incremental Sorted Neighborhood) is an *extension beyond the paper*:
// a fourth prioritization strategy based on dynamic sorted-neighborhood
// indexing instead of token blocking, in the spirit of the paper's related
// work on real-time ER (Ramadan et al., "Dynamic sorted neighborhood
// indexing for real-time entity resolution", JDIQ 2015 — the paper's
// reference [32]) transplanted into the schema-agnostic, progressive
// setting.
//
// Every token of a new profile is inserted into a persistent skip list
// ordered by token; the window of the Window nearest index entries on each
// side of every insertion yields candidate pairs. Near-neighbor keys catch
// duplicates that share no exact token (typos shift a token slightly in sort
// order, not out of the window). Candidates are weighted by aggregated
// window proximity, pruned with I-WNP, and prioritized through the same
// bounded comparison index as I-PCS — so the strategy remains progressive,
// incremental, and global.
type ISN struct {
	cfg    Config
	window int

	index *skiplist.List[snKey]
	queue *queue.Bounded[metablocking.Comparison]

	// Executed is the executed-pair set Dequeue marks.
	Executed
}

// snKey is one sorted-neighborhood index entry.
type snKey struct {
	token string
	id    int
	src   profile.Source
}

func snLess(a, b snKey) bool {
	if a.token != b.token {
		return a.token < b.token
	}
	return a.id < b.id
}

// DefaultSNWindow is the default sliding-window half-width.
const DefaultSNWindow = 4

// NewISN returns an I-SN strategy; window <= 0 uses DefaultSNWindow.
func NewISN(cfg Config, window int) *ISN {
	if window <= 0 {
		window = DefaultSNWindow
	}
	return &ISN{
		cfg:    cfg,
		window: window,
		index:  skiplist.New(snLess, 1),
		queue:  queue.NewBounded(cfg.IndexCapacity, metablocking.Less),
	}
}

// Name implements Strategy.
func (s *ISN) Name() string { return "I-SN" }

// UpdateIndex implements Strategy: index the increment's tokens, harvest
// window neighborhoods into weighted candidates, prune with I-WNP, enqueue.
func (s *ISN) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if s.cfg.CheckInvariants {
		defer s.verify()
	}
	var cost time.Duration
	for _, p := range delta {
		partners := make(map[int]float64)
		consider := func(tok string, keys []snKey) {
			for d, k := range keys {
				if k.id >= p.ID {
					continue // pair generated when the later profile arrives
				}
				if col.CleanClean() && k.src == p.Source {
					continue
				}
				// Weight by window proximity scaled by key similarity:
				// a window slides over *sorted keys*, so adjacency only
				// carries signal when the neighbor key actually resembles
				// the inserted one (identical token, or a near-miss like a
				// trailing typo). Unrelated alphabetic neighbors score 0.
				sim := keyPrefixSim(tok, k.token)
				if sim == 0 {
					continue
				}
				partners[k.id] += float64(s.window-d) * sim
			}
		}
		for _, tok := range p.Tokens() {
			node := s.index.Insert(snKey{token: tok, id: p.ID, src: p.Source})
			before, after := skiplist.Neighborhood(node, s.window)
			consider(tok, before)
			consider(tok, after)
		}
		cands := make([]metablocking.Comparison, 0, len(partners))
		for id, w := range partners {
			cands = append(cands, metablocking.Comparison{X: p.ID, Y: id, Weight: w})
		}
		cost += s.cfg.Costs.Generate(len(cands)) + s.cfg.Costs.Sort(len(p.Tokens()))
		for _, c := range metablocking.IWNP(cands) {
			s.queue.Push(c)
		}
	}
	return cost
}

// keyPrefixSim scores how similar two index keys are: the fraction of the
// longer key covered by their common prefix, zeroed below two shared leading
// runes. Identical tokens score 1; "unique"/"uniqua" score 5/6; unrelated
// neighbors score 0.
func keyPrefixSim(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	n := 0
	for n < len(ra) && n < len(rb) && ra[n] == rb[n] {
		n++
	}
	if n < 2 {
		return 0
	}
	max := len(ra)
	if len(rb) > max {
		max = len(rb)
	}
	return float64(n) / float64(max)
}

// Dequeue implements Strategy.
func (s *ISN) Dequeue() (metablocking.Comparison, bool) {
	for {
		c, ok := s.queue.PopBest()
		if !ok || s.Mark(c.Key()) {
			return c, ok
		}
	}
}

// Pending implements Strategy.
func (s *ISN) Pending() int { return s.queue.Len() }
