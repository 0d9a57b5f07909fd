package pool

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"pier/internal/obsv"
)

func TestTryForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		err := p.TryForEach(100, func(i int) {
			if i == 37 {
				panic("boom 37")
			}
		})
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if perr.Index != 37 || perr.Value != "boom 37" {
			t.Errorf("workers=%d: PanicError = {Index:%d Value:%v}", workers, perr.Index, perr.Value)
		}
		if !bytes.Contains(perr.Stack, []byte("panic")) {
			t.Errorf("workers=%d: stack capture missing panic frames:\n%s", workers, perr.Stack)
		}
	}
}

func TestTryForEachReportsLowestObservedIndex(t *testing.T) {
	// Serial execution makes the observed set deterministic: index 10 panics
	// first and nothing after it runs.
	p := New(1)
	var ran atomic.Int32
	err := p.TryForEach(100, func(i int) {
		ran.Add(1)
		if i%10 == 0 && i > 0 {
			panic(i)
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) || perr.Index != 10 {
		t.Fatalf("err = %v, want PanicError at index 10", err)
	}
	if got := ran.Load(); got != 11 {
		t.Errorf("tasks started after panic: ran %d, want 11", got)
	}
}

func TestTryForEachNoPanicRunsAll(t *testing.T) {
	p := New(8)
	var count atomic.Int32
	if err := p.TryForEach(500, func(i int) { count.Add(1) }); err != nil {
		t.Fatalf("TryForEach = %v", err)
	}
	if count.Load() != 500 {
		t.Errorf("executed %d tasks, want 500", count.Load())
	}
}

func TestPanicKeepsInstrumentsConsistent(t *testing.T) {
	reg := obsv.NewRegistry()
	busy := reg.Gauge("busy", "")
	tasks := reg.Counter("tasks", "")
	p := New(4).Instrument(busy, tasks)
	err := p.TryForEach(100, func(i int) {
		if i == 50 {
			panic("mid-batch")
		}
	})
	if err == nil {
		t.Fatal("TryForEach = nil, want panic error")
	}
	if got := busy.Value(); got != 0 {
		t.Errorf("busy gauge after recovered panic = %d, want 0", got)
	}
	if got := tasks.Value(); got >= 100 {
		t.Errorf("task counter counted the panicked task: %d", got)
	}
}
