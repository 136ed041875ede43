package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d", got)
	}
}

// TestMapOrderedFanIn checks that results land at their own index no
// matter how tasks are scheduled.
func TestMapOrderedFanIn(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := NewPool(workers)
		for trial := 0; trial < 20; trial++ {
			n := 1 + trial*13
			out := Map(p, n, func(i int) int { return i * i })
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

// TestForEachCoversEveryIndexOnce counts task executions per index.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	p := NewPool(4)
	n := 10_000
	counts := make([]atomic.Int32, n)
	p.ForEach(n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

// TestBoundedConcurrency asserts the number of simultaneously running
// tasks never exceeds the worker bound.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	p := NewPool(workers)
	var running, peak atomic.Int32
	p.ForEach(200, func(int) {
		cur := running.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
	})
	if peak.Load() > workers {
		t.Fatalf("peak concurrency %d exceeds bound %d", peak.Load(), workers)
	}
}

// TestForEachWorkerScratchExclusivity verifies two tasks with the same
// worker id never overlap, so per-worker scratch needs no locking.
func TestForEachWorkerScratchExclusivity(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	busy := make([]atomic.Bool, workers)
	p.ForEachWorker(2000, func(wk, i int) {
		if wk < 0 || wk >= workers {
			t.Errorf("worker id %d out of range", wk)
		}
		if !busy[wk].CompareAndSwap(false, true) {
			t.Errorf("worker %d entered concurrently", wk)
		}
		runtime.Gosched()
		busy[wk].Store(false)
	})
}

// TestPanicPropagation checks that a task panic resurfaces in the caller
// with the original value attached.
func TestPanicPropagation(t *testing.T) {
	p := NewPool(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T, want *WorkerPanic", r)
		}
		if wp.Value != "boom-17" {
			t.Fatalf("panic value %v, want boom-17", wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Fatal("worker stack not captured")
		}
	}()
	p.ForEach(100, func(i int) {
		if i == 17 {
			panic("boom-17")
		}
	})
}

// TestPanicPropagationSequential covers the inline (one-worker) path,
// where the panic flows through undisturbed Go panicking.
func TestPanicPropagationSequential(t *testing.T) {
	p := Sequential()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate on the inline path")
		}
	}()
	p.ForEach(3, func(i int) {
		if i == 1 {
			panic("inline")
		}
	})
}

// TestPoolReuse runs many rounds through one pool, including concurrent
// use of the same pool from several goroutines.
func TestPoolReuse(t *testing.T) {
	p := NewPool(3)
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ForEach(100, func(i int) { total.Add(int64(i)) })
	}
	want := int64(50 * (100 * 99 / 2))
	if total.Load() != want {
		t.Fatalf("total %d, want %d", total.Load(), want)
	}

	var wg sync.WaitGroup
	var grand atomic.Int64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				s := Map(p, 64, func(i int) int64 { return int64(i) })
				var sum int64
				for _, v := range s {
					sum += v
				}
				grand.Add(sum)
			}
		}()
	}
	wg.Wait()
	if want := int64(4 * 20 * (64 * 63 / 2)); grand.Load() != want {
		t.Fatalf("concurrent reuse total %d, want %d", grand.Load(), want)
	}
}

// TestZeroAndTinyN covers the degenerate sizes.
func TestZeroAndTinyN(t *testing.T) {
	p := NewPool(8)
	p.ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	p.ForEach(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("fn not called for n=1")
	}
}
