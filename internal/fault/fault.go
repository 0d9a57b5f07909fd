// Package fault implements the seeded fault injector of the correctness
// harness: a deterministic source of matcher errors, worker panics, and crash
// points, used to drive the fault-tolerant runtime through its failure paths
// on demand. Everything is derived from one seed, so a
// failing recovery-equivalence case replays exactly from its seed — the same
// property the data generator and fuzz corpus already have.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"pier/internal/match"
	"pier/internal/profile"
)

// ErrInjected is the error returned by injected matcher failures. Tests
// assert on it with errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("fault: injected matcher failure")

// Config selects which faults to inject and how often. Zero values disable
// each fault, so Config{} is a no-op injector.
type Config struct {
	// Seed drives all injection decisions.
	Seed int64
	// MatcherErrorRate is the probability in [0, 1] that a matcher call
	// fails with ErrInjected instead of returning a verdict.
	MatcherErrorRate float64
	// PanicRate is the probability in [0, 1] that a wrapped worker task
	// panics, exercising the pool's panic isolation.
	PanicRate float64
	// CrashAtIncrement, when > 0, makes CrashNow report true once the N-th
	// increment (1-based) is announced via NextIncrement — the harness's
	// simulated process kill.
	CrashAtIncrement int
}

// Injector is a concurrency-safe fault source. Decisions consume a seeded
// PRNG under a mutex: a given seed yields a reproducible decision *sequence*,
// though under concurrent matching the assignment of decisions to pairs can
// vary with scheduling — the recovery oracles therefore assert set-level
// properties, not which specific pair failed.
type Injector struct {
	cfg Config

	mu         sync.Mutex
	rng        *rand.Rand
	increments int

	injectedErrors int
	injectedPanics int
}

// New returns an injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// MatchErr decides whether the current matcher call fails, returning
// ErrInjected (wrapped with an ordinal, for log forensics) or nil.
func (f *Injector) MatchErr() error {
	if f.cfg.MatcherErrorRate <= 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() >= f.cfg.MatcherErrorRate {
		return nil
	}
	f.injectedErrors++
	return fmt.Errorf("%w #%d", ErrInjected, f.injectedErrors)
}

// MaybePanic panics with a recognizable value with probability PanicRate.
func (f *Injector) MaybePanic() {
	if f.cfg.PanicRate <= 0 {
		return
	}
	f.mu.Lock()
	hit := f.rng.Float64() < f.cfg.PanicRate
	if hit {
		f.injectedPanics++
	}
	n := f.injectedPanics
	f.mu.Unlock()
	if hit {
		panic(fmt.Sprintf("fault: injected worker panic #%d", n))
	}
}

// NextIncrement announces that increment processing is about to start and
// reports whether the configured crash point has been reached.
func (f *Injector) NextIncrement() (crash bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.increments++
	return f.cfg.CrashAtIncrement > 0 && f.increments == f.cfg.CrashAtIncrement
}

// InjectedErrors returns how many matcher errors have been injected.
func (f *Injector) InjectedErrors() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedErrors
}

// InjectedPanics returns how many worker panics have been injected.
func (f *Injector) InjectedPanics() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injectedPanics
}

// Matcher wraps inner with this injector's matcher faults: a possible
// injected panic, then a possible injected error, then — only on the healthy
// path — the real verdict. The wrapper sits *under* any retry/breaker layer, playing
// the role of the unreliable remote matcher.
func (f *Injector) Matcher(inner match.ContextMatcher) match.ContextMatcher {
	return match.ContextFunc(func(ctx context.Context, a, b *profile.Profile) (bool, error) {
		f.MaybePanic()
		if err := f.MatchErr(); err != nil {
			return false, err
		}
		return inner.Match(ctx, a, b)
	})
}
