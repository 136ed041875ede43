package graph

import (
	"runtime"
	"sync"
)

// FreeList keeps idle scratch between operations, as a sync.Pool would, but
// across collections: a sync.Pool entry lives through one collection and not
// through two, so whether a process's heap at a forced collection counts the
// pooled scratch — for a graph of n vertices, arrays of n int32 — depends on
// whether an unforced collection came between, and scratch dropped that way
// is allocated again by the next write. The list holds at most GOMAXPROCS
// entries (as of its first Put), one per goroutine that can be borrowing at
// once; a Put to a full list keeps the larger of the new scratch and the
// smallest it holds.
//
// Entries must hold no graph: idle scratch pins no index version.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []idle[T]
}

type idle[T any] struct {
	x    T
	size int
}

// Get returns an idle entry, or false when there is none.
func (l *FreeList[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return x, false
	}
	x = l.free[k-1].x
	l.free[k-1] = idle[T]{}
	l.free = l.free[:k-1]
	return x, true
}

// Put makes x idle; size is the number of vertices it serves.
func (l *FreeList[T]) Put(x T, size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.free == nil {
		l.free = make([]idle[T], 0, runtime.GOMAXPROCS(0))
	}
	if k := len(l.free); k < cap(l.free) {
		l.free = l.free[:k+1]
		l.free[k] = idle[T]{x, size}
		return
	}
	small := 0
	for i := range l.free {
		if l.free[i].size < l.free[small].size {
			small = i
		}
	}
	if size > l.free[small].size {
		l.free[small] = idle[T]{x, size}
	}
}
