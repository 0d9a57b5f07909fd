package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pier/internal/obsv"
)

func TestGateBoundsInFlight(t *testing.T) {
	reg := obsv.NewRegistry()
	g := NewGate(reg, Config{MaxInFlight: 2})
	r1, err := g.Admit("")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Admit("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Admit(""); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third admit: err = %v, want ErrOverloaded", err)
	}
	if g.inFlight.Load() != 2 {
		t.Errorf("InFlight = %d, want 2", g.inFlight.Load())
	}
	r1()
	r1() // double release is a no-op, not a slot leak backwards
	if g.inFlight.Load() != 1 {
		t.Errorf("InFlight after release = %d, want 1", g.inFlight.Load())
	}
	if _, err := g.Admit(""); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	r2()
	snap := reg.Snapshot()
	if snap["pier_query_accepted_total"].(uint64) != 3 {
		t.Errorf("accepted = %v", snap["pier_query_accepted_total"])
	}
	if snap["pier_query_rejected_overload_total"].(uint64) != 1 {
		t.Errorf("rejected = %v", snap["pier_query_rejected_overload_total"])
	}
}

func TestGateDefaultAndUnbounded(t *testing.T) {
	g := NewGate(obsv.NewRegistry(), Config{})
	if g.maxInFlight != DefaultMaxInFlight {
		t.Errorf("default bound = %d", g.maxInFlight)
	}
	gu := NewGate(obsv.NewRegistry(), Config{MaxInFlight: -1})
	var rels []func()
	for i := 0; i < DefaultMaxInFlight+10; i++ {
		r, err := gu.Admit("")
		if err != nil {
			t.Fatalf("unbounded gate rejected at %d: %v", i, err)
		}
		rels = append(rels, r)
	}
	for _, r := range rels {
		r()
	}
	if gu.inFlight.Load() != 0 {
		t.Errorf("InFlight after all releases = %d", gu.inFlight.Load())
	}
}

func TestLimiterTokenBucket(t *testing.T) {
	reg := obsv.NewRegistry()
	g := NewGate(reg, Config{MaxInFlight: -1, Rate: 10, Burst: 2})
	now := time.Unix(1000, 0)
	g.lim.now = func() time.Time { return now }

	// Burst capacity: two immediate admissions, then rate-limited.
	for i := 0; i < 2; i++ {
		r, err := g.Admit("alice")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		r()
	}
	if _, err := g.Admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("drained bucket: err = %v, want ErrRateLimited", err)
	}
	// Other tenants have their own bucket.
	if r, err := g.Admit("bob"); err != nil {
		t.Fatalf("fresh tenant rejected: %v", err)
	} else {
		r()
	}
	// 100ms at 10 qps refills one token.
	now = now.Add(100 * time.Millisecond)
	if r, err := g.Admit("alice"); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	} else {
		r()
	}
	if _, err := g.Admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second draw after single refill: err = %v, want ErrRateLimited", err)
	}
	// Refill is capped at burst, not accumulated forever.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if r, err := g.Admit("alice"); err != nil {
			t.Fatalf("post-idle admit %d: %v", i, err)
		} else {
			r()
		}
	}
	if _, err := g.Admit("alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatal("burst cap not applied after long idle")
	}
	if got := reg.Snapshot()["pier_query_rejected_ratelimit_total"].(uint64); got != 3 {
		t.Errorf("ratelimit rejections = %d, want 3", got)
	}
}

func TestLimiterEvictsFullBuckets(t *testing.T) {
	g := NewGate(obsv.NewRegistry(), Config{MaxInFlight: -1, Rate: 1000, Burst: 1})
	now := time.Unix(1000, 0)
	g.lim.now = func() time.Time { return now }
	for i := 0; i < maxTenants; i++ {
		r, err := g.Admit(string(rune('a')) + string(rune(i)))
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		r()
	}
	// All buckets refill within 1ms at rate 1000; the next new tenant
	// triggers eviction and the map stays bounded.
	now = now.Add(10 * time.Millisecond)
	r, err := g.Admit("overflow-tenant")
	if err != nil {
		t.Fatal(err)
	}
	r()
	if n := len(g.lim.buckets); n > 2 {
		t.Errorf("bucket map = %d entries after eviction, want <= 2", n)
	}
}

func TestGateConcurrentAdmission(t *testing.T) {
	g := NewGate(obsv.NewRegistry(), Config{MaxInFlight: 8})
	var wg sync.WaitGroup
	var admitted, rejected sync.Map
	var peak atomic64
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Admit("t")
			if err != nil {
				rejected.Store(i, true)
				return
			}
			admitted.Store(i, true)
			peak.max(int64(g.inFlight.Load()))
			time.Sleep(time.Millisecond)
			r()
		}()
	}
	wg.Wait()
	if p := peak.load(); p > 8 {
		t.Errorf("observed %d in flight, bound is 8", p)
	}
	if g.inFlight.Load() != 0 {
		t.Errorf("InFlight after drain = %d", g.inFlight.Load())
	}
}

// atomic64 is a tiny max-tracking atomic for the concurrency test.
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) max(v int64) {
	a.mu.Lock()
	if v > a.v {
		a.v = v
	}
	a.mu.Unlock()
}

func (a *atomic64) load() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}
