package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pier/internal/match"
	"pier/internal/profile"
)

// decisions records n matcher-error and panic decisions of an injector, in
// call order.
func decisions(f *Injector, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if f.MatchErr() != nil {
			b.WriteByte('E')
		} else {
			b.WriteByte('.')
		}
		func() {
			defer func() {
				if recover() != nil {
					b.WriteByte('P')
				}
			}()
			f.MaybePanic()
			b.WriteByte('.')
		}()
	}
	return b.String()
}

func TestSameSeedSameSequence(t *testing.T) {
	cfg := Config{Seed: 7, MatcherErrorRate: 0.3, PanicRate: 0.2}
	a, b := decisions(New(cfg), 200), decisions(New(cfg), 200)
	if a != b {
		t.Fatalf("one seed gave two injection sequences:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "E") || !strings.Contains(a, "P") {
		t.Fatalf("sequence %s injected no error or no panic at rates 0.3/0.2", a)
	}
	cfg.Seed = 8
	if c := decisions(New(cfg), 200); c == a {
		t.Error("seeds 7 and 8 gave the same 200-call sequence")
	}
}

func TestRatesZeroAndOne(t *testing.T) {
	off := New(Config{Seed: 1})
	if got := decisions(off, 100); strings.ContainsAny(got, "EP") {
		t.Errorf("rate 0 injected faults: %s", got)
	}
	if off.InjectedErrors() != 0 || off.InjectedPanics() != 0 {
		t.Errorf("rate 0 counted %d errors, %d panics", off.InjectedErrors(), off.InjectedPanics())
	}
	on := New(Config{Seed: 1, MatcherErrorRate: 1, PanicRate: 1})
	if got, want := decisions(on, 50), strings.Repeat("EP", 50); got != want {
		t.Errorf("rate 1 sequence = %s, want every call to fault", got)
	}
	if on.InjectedErrors() != 50 || on.InjectedPanics() != 50 {
		t.Errorf("rate 1 counted %d errors, %d panics, want 50 each", on.InjectedErrors(), on.InjectedPanics())
	}
	if err := on.MatchErr(); !errors.Is(err, ErrInjected) || !strings.HasSuffix(err.Error(), "#51") {
		t.Errorf("MatchErr = %v, want ErrInjected numbered #51", err)
	}
}

func TestCrashAtIncrement(t *testing.T) {
	f := New(Config{CrashAtIncrement: 3})
	for i, want := range []bool{false, false, true, false, false} {
		if got := f.NextIncrement(); got != want {
			t.Errorf("NextIncrement #%d = %v, want %v", i+1, got, want)
		}
	}
	never := New(Config{})
	for i := 0; i < 5; i++ {
		if never.NextIncrement() {
			t.Fatalf("CrashAtIncrement 0 crashed at increment %d", i+1)
		}
	}
}

func TestMaybePanicCounts(t *testing.T) {
	f := New(Config{PanicRate: 1})
	for i := 1; i <= 3; i++ {
		func() {
			defer func() {
				if got, want := fmt.Sprint(recover()), fmt.Sprintf("fault: injected worker panic #%d", i); got != want {
					t.Errorf("panic value = %q, want %q", got, want)
				}
			}()
			f.MaybePanic()
		}()
	}
	if f.InjectedPanics() != 3 || f.InjectedErrors() != 0 {
		t.Errorf("counted %d panics, %d errors, want 3 and 0", f.InjectedPanics(), f.InjectedErrors())
	}
}

func TestMatcherWrapsInner(t *testing.T) {
	calls := 0
	inner := match.ContextFunc(func(context.Context, *profile.Profile, *profile.Profile) (bool, error) {
		calls++
		return true, nil
	})
	a, b := profile.New(1, profile.SourceA, "", "t", "x"), profile.New(2, profile.SourceB, "", "t", "x")
	if ok, err := New(Config{}).Matcher(inner).Match(context.Background(), a, b); !ok || err != nil || calls != 1 {
		t.Errorf("healthy wrapper = %v, %v after %d inner calls, want the inner verdict", ok, err, calls)
	}
	if ok, err := New(Config{MatcherErrorRate: 1}).Matcher(inner).Match(context.Background(), a, b); ok || !errors.Is(err, ErrInjected) || calls != 1 {
		t.Errorf("failing wrapper = %v, %v after %d inner calls, want ErrInjected without calling inner", ok, err, calls)
	}
}
