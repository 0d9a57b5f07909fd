package core

import (
	"time"

	"pier/internal/blocking"
	"pier/internal/metablocking"
	"pier/internal/profile"
)

// Auto implements the paper's stated future work: "the integration of a
// heuristic for determining the best appropriate method to use for the given
// data". It defers the choice of prioritization strategy until the first
// data increment arrives, inspects that sample's characteristics, and
// instantiates the strategy the paper's evaluation found best for that kind
// of data:
//
//   - short, schema-homogeneous, relational-style records (the census
//     dataset) make the smallest blocks highly informative → I-PBS;
//   - everything else — long values or heterogeneous schemas (bibliographic,
//     movie, web data) — favors the entity-centric I-PES, which compensates
//     for weighting-scheme weaknesses.
//
// Auto is itself a Strategy and transparently forwards to its choice.
type Auto struct {
	cfg   Config
	inner Strategy
	// executed is a set lent before the choice, handed on to the choice.
	executed PairSet
}

// NewAuto returns an automatic strategy selector.
func NewAuto(cfg Config) *Auto { return &Auto{cfg: cfg} }

// Thresholds of the selection heuristic, exposed for documentation and tests.
// They separate census-style records (mean joined length ~55 runes, one
// schema) from the other three workload families (means 90-300, multiple
// schemas).
const (
	autoMaxValueLen  = 90.0 // mean joined-value runes for "short records"
	autoMaxSchemaVar = 1.5  // distinct attribute-name sets per 100 profiles
)

// sampleStats summarizes the first increment for the decision.
type sampleStats struct {
	meanValueLen float64
	schemaRate   float64 // distinct attribute-name signatures per 100 profiles
}

func measure(delta []*profile.Profile) sampleStats {
	if len(delta) == 0 {
		return sampleStats{}
	}
	totalLen := 0
	signatures := make(map[string]struct{})
	for _, p := range delta {
		totalLen += p.ValueLen()
		sig := ""
		for _, a := range p.Attributes {
			sig += a.Name + "\x00"
		}
		signatures[sig] = struct{}{}
	}
	return sampleStats{
		meanValueLen: float64(totalLen) / float64(len(delta)),
		schemaRate:   float64(len(signatures)) / float64(len(delta)) * 100,
	}
}

// choose maps sample statistics to a strategy constructor.
func choose(cfg Config, st sampleStats) Strategy {
	if st.meanValueLen > 0 && st.meanValueLen <= autoMaxValueLen && st.schemaRate <= autoMaxSchemaVar {
		return NewIPBS(cfg)
	}
	return NewIPES(cfg)
}

// Name implements Strategy: "AUTO" before the decision, "AUTO:<chosen>"
// afterwards.
func (a *Auto) Name() string {
	if a.inner == nil {
		return "AUTO"
	}
	return "AUTO:" + a.inner.Name()
}

// UpdateIndex implements Strategy: the first non-empty increment triggers the
// decision; everything is forwarded to the chosen strategy.
func (a *Auto) UpdateIndex(col *blocking.Collection, delta []*profile.Profile) time.Duration {
	if a.inner == nil {
		if len(delta) == 0 {
			return 0
		}
		a.inner = choose(a.cfg, measure(delta))
		if a.executed != nil {
			a.inner.ShareExecuted(a.executed)
		}
	}
	return a.inner.UpdateIndex(col, delta)
}

// Dequeue implements Strategy.
func (a *Auto) Dequeue() (metablocking.Comparison, bool) {
	if a.inner == nil {
		return metablocking.Comparison{}, false
	}
	return a.inner.Dequeue()
}

// Pending implements Strategy.
func (a *Auto) Pending() int {
	if a.inner == nil {
		return 0
	}
	return a.inner.Pending()
}

// ShareExecuted implements Strategy: the set goes to the chosen strategy, now
// or when the first increment chooses it.
func (a *Auto) ShareExecuted(set PairSet) {
	a.executed = set
	if a.inner != nil {
		a.inner.ShareExecuted(set)
	}
}
