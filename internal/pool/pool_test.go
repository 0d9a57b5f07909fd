package pool

import (
	"runtime"
	"sync/atomic"
	"testing"

	"pier/internal/obsv"
)

// mustRun is TryForEach for tasks that never panic.
func mustRun(t *testing.T, p *Pool, n int, fn func(i int)) {
	t.Helper()
	if err := p.TryForEach(n, fn); err != nil {
		t.Fatalf("TryForEach = %v", err)
	}
}

func TestResolve(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct{ in, want int }{
		{0, maxprocs},
		{-1, maxprocs},
		{-99, maxprocs},
		{1, 1},
		{3, 3},
	}
	for _, c := range cases {
		if got := Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		p := New(workers)
		const n = 1000
		hits := make([]atomic.Int32, n)
		mustRun(t, p, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestForEachSerialRunsInOrder(t *testing.T) {
	p := New(1)
	if !p.Serial() {
		t.Fatal("New(1).Serial() = false")
	}
	var order []int
	mustRun(t, p, 5, func(i int) { order = append(order, i) }) // inline: no race
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEachMoreWorkersThanTasks(t *testing.T) {
	p := New(16)
	var count atomic.Int32
	mustRun(t, p, 3, func(i int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("executed %d tasks, want 3", count.Load())
	}
	mustRun(t, p, 0, func(i int) { t.Error("fn called for n=0") })
}

func TestInstrumentation(t *testing.T) {
	reg := obsv.NewRegistry()
	busy := reg.Gauge("busy", "")
	tasks := reg.Counter("tasks", "")
	p := New(4).Instrument(busy, tasks)
	const n = 200
	mustRun(t, p, n, func(i int) {})
	if got := tasks.Value(); got != n {
		t.Errorf("tasks counter = %d, want %d", got, n)
	}
	if got := busy.Value(); got != 0 {
		t.Errorf("busy gauge after ForEach = %d, want 0", got)
	}
}

func TestParallelMergeMatchesSerial(t *testing.T) {
	// The determinism contract: index-addressed results merged in order are
	// identical to the serial loop's output.
	work := func(i int) int { return i*i - 3*i }
	const n = 5000
	serial := make([]int, n)
	for i := 0; i < n; i++ {
		serial[i] = work(i)
	}
	par := make([]int, n)
	mustRun(t, New(8), n, func(i int) { par[i] = work(i) })
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("slot %d: serial %d != parallel %d", i, serial[i], par[i])
		}
	}
}
