// Package obsv is a minimal, dependency-free metrics registry for the PIER
// pipeline: atomic counters, gauges, and fixed-bucket histograms, with
// Prometheus text exposition and an expvar-compatible snapshot. It exists so
// the live pipeline's internals — the adaptive-K trajectory, queue depths,
// batch sizes, eviction behavior — are observable while a stream runs,
// instead of only in the final summary.
//
// The registry is safe for concurrent use: registration is mutex-guarded and
// idempotent (same name returns the same instrument), and all instrument
// updates are lock-free atomics, cheap enough for the pipeline's hot paths.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a metric that can go up and down (queue depth, map size, live K).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// each bucket counts observations <= its upper bound, with an implicit +Inf
// bucket, plus a running sum and count for average queries.
type Histogram struct {
	name, help string
	bounds     []float64       // sorted upper bounds, exclusive of +Inf
	buckets    []atomic.Uint64 // len(bounds)+1; last is +Inf
	count      atomic.Uint64
	sum        atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Find the first bound >= v; the +Inf bucket catches the rest.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts with
// linear interpolation inside the containing bucket — the same estimator
// Prometheus's histogram_quantile applies server-side, available here so the
// serving path can report p50/p95/p99 without a scrape round-trip. Samples in
// the +Inf bucket clamp to the highest finite bound. An empty histogram
// returns 0. The estimate is a point-in-time read: concurrent Observe calls
// may land between bucket loads, which can bias the result by at most the
// in-flight samples — fine for monitoring, not for accounting.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next < rank {
			cum = next
			continue
		}
		if i == len(h.bounds) { // +Inf bucket: clamp to the largest finite bound
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		upper := h.bounds[i]
		return lower + (upper-lower)*((rank-cum)/float64(n))
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at start
// and growing by factor — the usual shape for latencies and sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obsv.ExpBuckets: need start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds a named set of instruments. Instruments are registered
// lazily and idempotently: asking for an existing name returns the existing
// instrument, so pipeline stages can share counters without coordination.
type Registry struct {
	mu    sync.Mutex
	order []string // registration order, for stable exposition
	insts map[string]interface{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]interface{})}
}

// Counter returns the counter with the given name, creating it on first use.
// It panics if the name is already registered as a different instrument kind.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.insts[name]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obsv: %q already registered as %T", name, got))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.insts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// It panics if the name is already registered as a different instrument kind.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.insts[name]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obsv: %q already registered as %T", name, got))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.insts[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use with the given bucket upper bounds (sorted ascending; +Inf is implicit).
// Buckets of an existing histogram are not changed. It panics if the name is
// already registered as a different instrument kind.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.insts[name]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obsv: %q already registered as %T", name, got))
		}
		return h
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.insts[name] = h
	r.order = append(r.order, name)
	return h
}

// each visits every instrument in registration order.
func (r *Registry) each(fn func(name string, inst interface{})) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	insts := make([]interface{}, len(names))
	for i, n := range names {
		insts[i] = r.insts[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		fn(n, insts[i])
	}
}

// Snapshot returns a point-in-time map of every instrument's value: counters
// and gauges as numbers, histograms as {count, sum, mean}. The result is
// JSON-encodable, which is what expvar.Func needs.
func (r *Registry) Snapshot() map[string]interface{} {
	out := make(map[string]interface{})
	r.each(func(name string, inst interface{}) {
		switch m := inst.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			out[name] = map[string]interface{}{
				"count": m.Count(),
				"sum":   m.Sum(),
				"mean":  m.Mean(),
				"p50":   m.Quantile(0.50),
				"p95":   m.Quantile(0.95),
				"p99":   m.Quantile(0.99),
			}
		}
	})
	return out
}
