package stream

import (
	"runtime"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
)

// settledGoroutines waits up to five seconds for the goroutine count to fall
// to want and returns the last count read: goroutines of a finished
// pipeline exit asynchronously after Interrupt or Stop returns.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestInterruptEndsPipelineGoroutines runs LiveRun, Push, Interrupt cycles,
// every other one followed by Stop, and requires the goroutine count to
// return to its baseline. Interrupt used to leave the input channel open, so
// the prep stage waited on it for good: one goroutine leaked per cycle, also
// when Stop followed.
func TestInterruptEndsPipelineGoroutines(t *testing.T) {
	d := dataset.DA(0.05, 73)
	incs := d.Increments(4)
	cycle := func(i int) {
		l := LiveRun(core.NewIPCS(faultCoreConfig()), faultLiveConfig())
		for _, inc := range incs[:1+i%len(incs)] {
			if err := l.Push(inc); err != nil {
				t.Fatal(err)
			}
		}
		if res := l.Interrupt(); !res.Interrupted {
			t.Fatal("Interrupt's result is not marked interrupted")
		}
		if i%2 == 1 {
			l.Stop()
		}
	}
	base := runtime.NumGoroutine()
	const cycles = 8
	for i := range cycles {
		cycle(i)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after %d Interrupt cycles, %d before", n, cycles, base)
	}
}
