package graph

import (
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestBorrowBFSAcrossCollections: idle BFS scratch outlives two collections,
// so a borrow after them allocates nothing. A sync.Pool drops its entries
// there and the borrow costs three n-sized allocations.
func TestBorrowBFSAcrossCollections(t *testing.T) {
	g := ladder(4000)
	BorrowBFS(g).Release()
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		b := BorrowBFS(g)
		b.Ball(0, 3)
		b.Release()
	})
	if allocs != 0 {
		t.Fatalf("a borrow after two collections allocates %.1f times, want 0", allocs)
	}
}

// TestFreeListKeepsLarger: a full list holds GOMAXPROCS entries, and a Put
// to it replaces the smallest entry only with a larger one.
func TestFreeListKeepsLarger(t *testing.T) {
	var l FreeList[int]
	want := map[int]bool{100: true}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		l.Put(10+i, 10+i)
		want[10+i] = i > 0
	}
	l.Put(5, 5)     // smaller than every entry: dropped
	l.Put(100, 100) // replaces the 10
	for {
		x, ok := l.Get()
		if !ok {
			break
		}
		if !want[x] {
			t.Fatalf("list holds %d", x)
		}
		delete(want, x)
	}
	for x, keep := range want {
		if keep {
			t.Fatalf("list lost %d", x)
		}
	}
}

// TestBorrowBFSConcurrent: goroutines borrowing at once each get scratch of
// their own. Run under -race in tier 2.
func TestBorrowBFSConcurrent(t *testing.T) {
	g := ladder(500)
	want := slices.Clone(NewBFS(g).Ball(0, 6))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := BorrowBFS(g)
				got := b.Ball(0, 6)
				if !slices.Equal(got, want) {
					t.Errorf("ball of a borrowed BFS: %v, want %v", got, want)
				}
				b.Release()
			}
		}()
	}
	wg.Wait()
}
