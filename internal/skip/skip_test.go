package skip

import (
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteSkip is the definition of SKIP(b, S), evaluated directly.
func bruteSkip(cov *cover.Cover, L []graph.V, n int, b graph.V, S []int) graph.V {
	inL := make([]bool, n)
	for _, v := range L {
		inL[v] = true
	}
	for v := b; v < n; v++ {
		if !inL[v] {
			continue
		}
		bad := false
		for _, x := range S {
			if cov.InKernel(x, v) {
				bad = true
				break
			}
		}
		if !bad {
			return v
		}
	}
	return None
}

func buildFixture(t *testing.T, class gen.Class, n, r int, seed int64) (*graph.Graph, *cover.Cover, []graph.V) {
	t.Helper()
	g := gen.Generate(class, n, gen.Options{Seed: seed, Colors: 1, ColorProb: 0.4})
	cov := cover.Compute(g, r, r)
	var L []graph.V
	for v := 0; v < g.N(); v++ {
		if g.HasColor(v, 0) {
			L = append(L, v)
		}
	}
	return g, cov, L
}

func TestSkipAgainstBruteForce(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.RandomTree, gen.BoundedDegree, gen.Star} {
		g, cov, L := buildFixture(t, class, 300, 2, 17)
		for _, k := range []int{1, 2, 3} {
			p := New(g, cov, k, L)
			rng := rand.New(rand.NewSource(int64(k)))
			for q := 0; q < 500; q++ {
				b := rng.Intn(g.N())
				S := make([]int, 0, k)
				for len(S) < rng.Intn(k+1) {
					S = append(S, rng.Intn(cov.NumBags()))
				}
				got := p.Query(b, S)
				want := bruteSkip(cov, L, g.N(), b, S)
				if got != want {
					t.Fatalf("%s k=%d: SKIP(%d, %v) = %d, want %d", class, k, b, S, got, want)
				}
			}
		}
	}
}

// TestSkipCanonicalBags queries with the bag sets the enumeration engine
// actually uses: the canonical bags 𝒳(a) of random tuples.
func TestSkipCanonicalBags(t *testing.T) {
	g, cov, L := buildFixture(t, gen.KingGrid, 400, 2, 3)
	p := New(g, cov, 3, L)
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 400; q++ {
		S := []int{}
		for i := 0; i < 3; i++ {
			S = append(S, cov.Assign(rng.Intn(g.N())))
		}
		b := rng.Intn(g.N())
		if got, want := p.Query(b, S), bruteSkip(cov, L, g.N(), b, S); got != want {
			t.Fatalf("SKIP(%d, %v) = %d, want %d", b, S, got, want)
		}
	}
}

func TestSkipEmptySet(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Cycle, 100, 2, 5)
	p := New(g, cov, 2, L)
	for b := 0; b < g.N(); b++ {
		want := None
		for _, v := range L {
			if v >= b {
				want = v
				break
			}
		}
		if got := p.Query(b, nil); got != want {
			t.Fatalf("SKIP(%d, ∅) = %d, want %d", b, got, want)
		}
	}
}

func TestSkipEmptyL(t *testing.T) {
	g := gen.Generate(gen.Path, 50, gen.Options{})
	cov := cover.Compute(g, 2, 2)
	p := New(g, cov, 2, nil)
	if got := p.Query(0, []int{0}); got != None {
		t.Fatalf("SKIP over empty L = %d, want None", got)
	}
}

func TestSkipDuplicateBagsInS(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Grid, 200, 2, 9)
	p := New(g, cov, 3, L)
	x := cov.Assign(10)
	a := p.Query(0, []int{x})
	b := p.Query(0, []int{x, x, x})
	if a != b {
		t.Fatalf("duplicate bags changed the answer: %d vs %d", a, b)
	}
}

func TestSkipRejectsOversizedSet(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Path, 60, 2, 1)
	p := New(g, cov, 1, L)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for |S| > k")
		}
	}()
	p.Query(0, []int{0, 1})
}

func TestSkipPointerTableIsSubquadratic(t *testing.T) {
	// Claim 5.10: Σ_b |SC(b)| = O(n·degree^k); verify the table does not
	// approach n² on a sparse class.
	g, cov, L := buildFixture(t, gen.Grid, 2500, 2, 2)
	p := New(g, cov, 2, L)
	if p.Size() > g.N()*cov.Degree()*cov.Degree()*2 {
		t.Fatalf("table size %d exceeds n·d² bound (n=%d, d=%d)",
			p.Size(), g.N(), cov.Degree())
	}
}
