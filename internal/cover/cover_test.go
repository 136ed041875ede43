package cover

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func classes() []gen.Class {
	return []gen.Class{gen.Path, gen.Cycle, gen.Star, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid,
		gen.BoundedDegree, gen.SparseRandom}
}

func TestCoverAxioms(t *testing.T) {
	for _, class := range classes() {
		for _, r := range []int{1, 2, 3} {
			g := gen.Generate(class, 300, gen.Options{Seed: 7})
			c := Compute(g, r, -1)
			if err := c.Validate(); err != nil {
				t.Errorf("%s r=%d: %v", class, r, err)
			}
		}
	}
}

func TestCoverAssignCoversBall(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{})
	c := Compute(g, 2, -1)
	bfs := graph.NewBFS(g)
	for a := 0; a < g.N(); a++ {
		x := c.Assign(a)
		for _, v := range bfs.Ball(a, 2) {
			if !containsSorted(c.Bag(x), v) {
				t.Fatalf("vertex %d of N_2(%d) not in bag %d", v, a, x)
			}
		}
	}
}

func TestKernels(t *testing.T) {
	for _, class := range classes() {
		g := gen.Generate(class, 200, gen.Options{Seed: 11})
		r := 2
		p := 1
		c := Compute(g, r, p)
		bfs := graph.NewBFS(g)
		for i := 0; i < c.NumBags(); i++ {
			inBag := map[int32]bool{}
			for _, v := range c.Bag(i) {
				inBag[v] = true
			}
			for _, v := range c.Bag(i) {
				// Reference: v ∈ K_p(X) iff N_p(v) ⊆ X.
				want := true
				for _, w := range bfs.Ball(int(v), p) {
					if !inBag[w] {
						want = false
						break
					}
				}
				if got := c.InKernel(i, int(v)); got != want {
					t.Fatalf("%s: bag %d vertex %d: InKernel=%v want %v", class, i, v, got, want)
				}
			}
		}
	}
}

func TestKernelOfListsMatch(t *testing.T) {
	g := gen.Generate(gen.KingGrid, 150, gen.Options{})
	c := Compute(g, 2, 2)
	for v := 0; v < g.N(); v++ {
		for _, i := range c.KernelsOf(v) {
			if !c.InKernel(int(i), v) {
				t.Fatalf("KernelsOf(%d) lists bag %d but InKernel is false", v, i)
			}
		}
		count := 0
		for i := 0; i < c.NumBags(); i++ {
			if c.InKernel(i, v) {
				count++
			}
		}
		if count != len(c.KernelsOf(v)) {
			t.Fatalf("vertex %d: %d kernels vs %d listed", v, count, len(c.KernelsOf(v)))
		}
	}
}

func TestCoverDegreeSmallOnSparse(t *testing.T) {
	// Not a theorem for the greedy cover, but the property the experiments
	// rely on: degree stays far below n on nowhere dense classes.
	for _, class := range classes() {
		g := gen.Generate(class, 2000, gen.Options{Seed: 5})
		c := Compute(g, 2, -1)
		if d := c.Degree(); d > g.N()/4 {
			t.Errorf("%s: cover degree %d too close to n=%d", class, d, g.N())
		}
	}
}

func TestCoverRejectsBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for r=0")
		}
	}()
	Compute(gen.Generate(gen.Path, 10, gen.Options{}), 0, -1)
}

// TestBorrowKernelScratchAcrossCollections: idle kernel scratch outlives two
// collections, so a borrow after them allocates nothing.
func TestBorrowKernelScratchAcrossCollections(t *testing.T) {
	const n = 4000
	borrowKernelScratch(n).release()
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		borrowKernelScratch(n).release()
	})
	if allocs != 0 {
		t.Fatalf("a borrow after two collections allocates %.1f times, want 0", allocs)
	}
}
