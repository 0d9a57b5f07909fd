// Package pool provides the bounded worker pool of the pipeline's one
// parallel stage: similarity computation in the live matcher. The stage is
// embarrassingly parallel over independent comparisons, but its consumer
// requires deterministic results, so the pool only offers an *indexed*
// parallel-for: workers pull item indices from a shared counter (dynamic load
// balancing) and write results into caller-owned, index-addressed slots,
// which the caller then reads in index order. Execution order is
// nondeterministic; the output is bit-for-bit identical to a serial run.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pier/internal/obsv"
)

// PanicError wraps a panic recovered inside a worker: the panic value, the
// worker goroutine's stack at recovery time, and the index of the task that
// panicked. The pool converts panics to errors instead of letting them tear
// down the process, so one poisoned profile pair cannot kill a long-running
// pipeline; the caller decides how to fail the batch that owned the task.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // debug.Stack() captured inside the recovering worker
	Index int    // the task index whose fn panicked
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v", e.Index, e.Value)
}

// Resolve maps a user-facing parallelism knob to a worker count: 0 or any
// negative value means one worker per available CPU (GOMAXPROCS), 1 forces
// exact serial execution, and n > 1 means n workers.
func Resolve(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// Pool fans indexed tasks out over a fixed number of workers. The zero-cost
// configuration is workers == 1: TryForEach then runs the loop inline on the
// calling goroutine, spawning nothing — the knob's "exact serial behavior"
// setting. A Pool is stateless between TryForEach calls and safe for reuse;
// concurrent calls on one Pool are safe too, though they share its gauge.
type Pool struct {
	workers int

	// Optional instruments; nil fields are skipped.
	busy  *obsv.Gauge   // workers currently executing tasks
	tasks *obsv.Counter // tasks completed
}

// New returns a pool with Resolve(parallelism) workers.
func New(parallelism int) *Pool {
	return &Pool{workers: Resolve(parallelism)}
}

// Instrument attaches observability instruments to the pool: busy tracks the
// number of workers currently inside a task, tasks counts completed tasks.
// Either may be nil. It returns the pool for chaining.
func (p *Pool) Instrument(busy *obsv.Gauge, tasks *obsv.Counter) *Pool {
	p.busy = busy
	p.tasks = tasks
	return p
}

// Workers returns the resolved worker count.
func (p *Pool) Workers() int { return p.workers }

// Serial reports whether the pool runs tasks inline on the caller.
func (p *Pool) Serial() bool { return p.workers <= 1 }

// TryForEach runs fn(i) for every i in [0, n), fanning the calls out over at
// most Workers() goroutines and returning once all have completed. fn must be
// safe to call concurrently for distinct indices; writes it performs to
// distinct index-addressed slots need no further synchronization (the return
// is a happens-before barrier for the caller). With one worker — or a single
// task — the loop runs inline in increasing index order.
//
// A panic inside fn is recovered in the worker that hit it, captured with its stack, and returned as a
// *PanicError after every in-flight task has finished. Remaining undispatched
// indices are skipped once a panic is observed — the batch is failing anyway,
// so the pool drains rather than burns through it — which means on error the
// caller must treat the WHOLE batch's results as void: there is no record of
// which indices ran. If several in-flight tasks panic, the lowest-indexed one
// is reported.
func (p *Pool) TryForEach(n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := p.run(i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr *PanicError
	var failed atomic.Bool
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := p.run(i, fn); err != nil {
					failed.Store(true)
					mu.Lock()
					if firstErr == nil || err.Index < firstErr.Index {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return nil
}

// run executes one task under the pool's instruments, converting a panic in
// fn to a *PanicError. The busy gauge is decremented on the panic path too,
// so a recovered batch leaves the instruments consistent; the task counter
// only counts tasks that completed.
func (p *Pool) run(i int, fn func(i int)) (perr *PanicError) {
	if p.busy != nil {
		p.busy.Add(1)
		defer p.busy.Add(-1)
	}
	defer func() {
		if r := recover(); r != nil {
			perr = &PanicError{Value: r, Stack: debug.Stack(), Index: i}
		}
	}()
	fn(i)
	if p.tasks != nil {
		p.tasks.Inc()
	}
	return nil
}
