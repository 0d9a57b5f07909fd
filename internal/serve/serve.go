// Package serve is the production plumbing around the online query path:
// admission control with a bounded in-flight count and fast-fail rejection,
// plus a token-bucket per-tenant rate limiter. It exists so a burst of
// queries degrades into prompt, observable rejections instead of unbounded
// goroutine pile-up on the blocking index's read locks — the serving-side
// analogue of the ingest path's bounded channels.
//
// The package is deliberately tiny and stdlib-only: a Gate is an atomic
// counter and a mutex-guarded bucket map, both cheap enough to sit in front
// of every query.
package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pier/internal/obsv"
)

// Sentinel errors of the admission layer. Both reject fast: the caller never
// blocks waiting for capacity.
var (
	// ErrOverloaded reports that the in-flight query bound was reached.
	ErrOverloaded = errors.New("serve: too many in-flight queries")
	// ErrRateLimited reports that the tenant's token bucket was empty.
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
)

// Config tunes a Gate.
type Config struct {
	// MaxInFlight bounds concurrently admitted queries; 0 applies
	// DefaultMaxInFlight, negative disables the bound.
	MaxInFlight int
	// Rate is the per-tenant token refill rate in queries per second;
	// <= 0 disables rate limiting entirely.
	Rate float64
	// Burst is the per-tenant bucket capacity; <= 0 with rate limiting on
	// defaults to max(1, Rate) — one second of traffic.
	Burst float64
}

// DefaultMaxInFlight is the in-flight bound when Config.MaxInFlight is 0.
const DefaultMaxInFlight = 64

// maxTenants bounds the limiter's bucket map: when exceeded, fully refilled
// buckets (indistinguishable from fresh ones) are evicted. An adversarial
// stream of unique tenant names therefore costs bounded memory.
const maxTenants = 4096

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// limiter is a token-bucket per-tenant rate limiter with an injectable clock.
type limiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time
}

// allow takes one token from tenant's bucket, reporting false when empty.
func (l *limiter) allow(tenant string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxTenants {
			l.evictFull(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else {
		b.tokens += l.rate * now.Sub(b.last).Seconds()
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictFull drops every bucket that would be at full burst by now — state
// identical to a fresh bucket, so nothing observable changes. The caller
// holds l.mu. If every tenant is mid-burst the map may briefly exceed
// maxTenants; that bound is a memory guard, not an admission rule.
func (l *limiter) evictFull(now time.Time) {
	for name, b := range l.buckets {
		if b.tokens+l.rate*now.Sub(b.last).Seconds() >= l.burst {
			delete(l.buckets, name)
		}
	}
}

// Gate is the admission controller: every query calls Admit and, when
// admitted, the returned release exactly once. Gate is safe for concurrent
// use; the admission decision is one atomic CAS loop plus — with rate
// limiting configured — one mutex-guarded bucket update.
type Gate struct {
	maxInFlight int64 // <= 0 means unbounded
	inFlight    atomic.Int64
	lim         *limiter // nil when rate limiting is off

	accepted      *obsv.Counter
	rejOverload   *obsv.Counter
	rejRateLimit  *obsv.Counter
	inFlightGauge *obsv.Gauge
}

// NewGate builds a Gate, registering its instruments in reg (which must not
// be nil — share the pipeline's registry so serving and stream metrics land
// on one endpoint).
func NewGate(reg *obsv.Registry, cfg Config) *Gate {
	g := &Gate{
		accepted:      reg.Counter("pier_query_accepted_total", "queries admitted by the gate"),
		rejOverload:   reg.Counter("pier_query_rejected_overload_total", "queries rejected at the in-flight bound"),
		rejRateLimit:  reg.Counter("pier_query_rejected_ratelimit_total", "queries rejected by the per-tenant rate limiter"),
		inFlightGauge: reg.Gauge("pier_query_inflight", "queries currently admitted and running"),
	}
	switch {
	case cfg.MaxInFlight == 0:
		g.maxInFlight = DefaultMaxInFlight
	case cfg.MaxInFlight > 0:
		g.maxInFlight = int64(cfg.MaxInFlight)
	}
	if cfg.Rate > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = cfg.Rate
			if burst < 1 {
				burst = 1
			}
		}
		g.lim = &limiter{
			rate:    cfg.Rate,
			burst:   burst,
			buckets: make(map[string]*bucket),
			now:     time.Now,
		}
	}
	return g
}

// Admit asks for one query slot on behalf of tenant (the empty string is a
// valid tenant — single-tenant embedders share one bucket). On admission it
// returns a release closure the caller must invoke exactly once when the
// query finishes; on rejection it returns nil and ErrOverloaded or
// ErrRateLimited without blocking.
func (g *Gate) Admit(tenant string) (release func(), err error) {
	// Rate limit before the in-flight CAS: a rate-limited tenant must not
	// consume (and immediately release) capacity other tenants could use.
	if g.lim != nil && !g.lim.allow(tenant) {
		g.rejRateLimit.Inc()
		return nil, ErrRateLimited
	}
	if g.maxInFlight > 0 {
		for {
			n := g.inFlight.Load()
			if n >= g.maxInFlight {
				g.rejOverload.Inc()
				return nil, ErrOverloaded
			}
			if g.inFlight.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		g.inFlight.Add(1)
	}
	g.accepted.Inc()
	g.inFlightGauge.Set(g.inFlight.Load())
	var once sync.Once
	return func() {
		once.Do(func() {
			g.inFlightGauge.Set(g.inFlight.Add(-1))
		})
	}, nil
}
