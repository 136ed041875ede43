// Package par provides the bounded worker pool behind the parallel
// preprocessing pipeline (neighborhood covers, distance indexes, engine
// starter lists).
//
// Design constraints, in order of importance:
//
//  1. Determinism. Results are written by index (ordered fan-in), so a
//     computation parallelized with Map/ForEach produces byte-identical
//     output to its sequential counterpart whenever each task is a pure
//     function of its index. The differential tests in internal/core
//     enforce this end to end.
//  2. Bounded concurrency. At most Workers() tasks run at any moment;
//     excess tasks queue behind an atomic cursor.
//  3. Panic propagation. A panic inside a task aborts the remaining
//     queue and is re-raised in the caller as a *WorkerPanic carrying
//     the original value and the worker's stack.
//
// A Pool with one worker degrades to a plain inline loop (no goroutines,
// no synchronization), which is how `Parallelism: 1` reproduces the
// sequential path bit-for-bit at zero overhead.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. It is stateless between calls and may be
// reused for any number of ForEach/Map invocations, including from
// multiple goroutines.
type Pool struct {
	workers int
}

// Resolve normalizes a parallelism knob: values ≤ 0 mean "use all
// available CPUs" (runtime.GOMAXPROCS(0)).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// NewPool returns a pool with the given worker bound; workers ≤ 0 selects
// runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	return &Pool{workers: Resolve(workers)}
}

// Sequential is the one-worker pool: every ForEach/Map call runs inline.
func Sequential() *Pool { return &Pool{workers: 1} }

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// WorkerPanic wraps a panic raised inside a pool task; it is re-panicked
// in the caller of ForEach/Map. Value is the original panic value and
// Stack the panicking worker's stack trace.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", w.Value, w.Stack)
}

// ForEach runs fn(i) for every i in [0, n), using at most Workers()
// concurrent goroutines. Tasks are handed out in index order; completion
// order is unspecified, so fn must only write to index-owned state. With
// one worker (or n ≤ 1) it runs inline, in order, on the caller's
// goroutine.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForEachWorker(n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the executing worker's id (in
// [0, Workers())) passed to fn, so callers can maintain per-worker scratch
// buffers: two tasks with the same worker id never run concurrently.
func (p *Pool) ForEachWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		cursor  atomic.Int64
		aborted atomic.Bool
		once    sync.Once
		wp      *WorkerPanic
		wg      sync.WaitGroup
	)
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					aborted.Store(true)
					once.Do(func() {
						wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
					})
				}
			}()
			for !aborted.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(wk, i)
			}
		}(wk)
	}
	wg.Wait()
	if wp != nil {
		panic(wp)
	}
}

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order (deterministic fan-in regardless of scheduling).
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}
