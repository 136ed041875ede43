package cover

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

// TestParallelCoverByteIdentical asserts the speculative parallel cover
// produces exactly the sequential greedy cover — same bags, centers,
// assignment, membership, and kernels — across graph classes, radii, and
// worker counts.
func TestParallelCoverByteIdentical(t *testing.T) {
	classes := []gen.Class{gen.Path, gen.Cycle, gen.Star, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid,
		gen.BoundedDegree, gen.SparseRandom, gen.Clique, gen.SubdividedClique}
	for _, class := range classes {
		for _, r := range []int{1, 2, 3} {
			for _, n := range []int{1, 2, 37, 400} {
				g := gen.Generate(class, n, gen.Options{Seed: int64(n) + int64(r)})
				seq := ComputeWith(g, r, Options{Workers: 1})
				seq.ComputeKernels(r)
				for _, workers := range []int{2, 4, 7} {
					par := ComputeWith(g, r, Options{Workers: workers})
					par.ComputeKernels(r)
					if !reflect.DeepEqual(seq.bags, par.bags) {
						t.Fatalf("%s n=%d r=%d w=%d: bags differ (%d vs %d)",
							class, n, r, workers, len(seq.bags), len(par.bags))
					}
					if !reflect.DeepEqual(seq.centers, par.centers) {
						t.Fatalf("%s n=%d r=%d w=%d: centers differ", class, n, r, workers)
					}
					if !reflect.DeepEqual(seq.assign, par.assign) {
						t.Fatalf("%s n=%d r=%d w=%d: assignment differs", class, n, r, workers)
					}
					if !reflect.DeepEqual(seq.memberOf, par.memberOf) {
						t.Fatalf("%s n=%d r=%d w=%d: memberOf differs", class, n, r, workers)
					}
					if !reflect.DeepEqual(seq.kernels, par.kernels) {
						t.Fatalf("%s n=%d r=%d w=%d: kernels differ", class, n, r, workers)
					}
					if !reflect.DeepEqual(seq.kernelOf, par.kernelOf) {
						t.Fatalf("%s n=%d r=%d w=%d: kernelOf differs", class, n, r, workers)
					}
				}
			}
		}
	}
}

// TestParallelCoverValidates runs the brute-force cover axioms on a
// parallel-built cover.
func TestParallelCoverValidates(t *testing.T) {
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.BoundedDegree} {
		g := gen.Generate(class, 600, gen.Options{Seed: 3})
		c := ComputeWith(g, 2, Options{Workers: 4})
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
	}
}

// TestParallelCoverStats sanity-checks the speculation accounting.
func TestParallelCoverStats(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 1})
	c := ComputeWith(g, 2, Options{Workers: 4})
	st := c.Stats()
	if st.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", st.Workers)
	}
	if st.BallsComputed < c.NumBags() {
		t.Fatalf("BallsComputed %d < bags %d", st.BallsComputed, c.NumBags())
	}
	if st.BallsWasted != st.BallsComputed-c.NumBags() {
		t.Fatalf("waste accounting: %d computed, %d wasted, %d bags",
			st.BallsComputed, st.BallsWasted, c.NumBags())
	}
	seq := Compute(g, 2)
	if got := seq.Stats().Workers; got != 1 {
		t.Fatalf("sequential Workers = %d", got)
	}
	if w := seq.Stats().BallsWasted; w != 0 {
		t.Fatalf("sequential path wasted %d balls", w)
	}
}
