package skip

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cover"
	"repro/internal/gen"
	"repro/internal/graph"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// mutateFixture applies a random edit batch to (g, cov, L) and returns the
// new graph, the patched cover, the new starter list, and the eligibility
// delta exactly as the engine's mutation path assembles it: the L-diff
// unioned with the cover patch's KernelDelta.
func mutateFixture(t *testing.T, rng *rand.Rand, g *graph.Graph, cov *cover.Cover, L []graph.V) (*graph.Graph, *cover.Cover, []graph.V, []graph.V, bool) {
	t.Helper()
	var edits []graph.Edit
	var srcs []graph.V
	seen := map[graph.V]bool{}
	for len(edits) < 1+rng.Intn(4) {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		op := graph.AddEdge
		if g.HasEdge(u, v) || rng.Intn(2) == 0 {
			op = graph.RemoveEdge
		}
		edits = append(edits, graph.Edit{Op: op, U: u, V: v})
		for _, w := range []graph.V{u, v} {
			if !seen[w] {
				seen[w] = true
				srcs = append(srcs, w)
			}
		}
	}
	// Plus a few color flips to change the starter list.
	for i := 0; i < rng.Intn(4); i++ {
		v := rng.Intn(g.N())
		op := graph.AddColor
		if g.HasColor(v, 0) {
			op = graph.RemoveColor
		}
		edits = append(edits, graph.Edit{Op: op, U: v, Color: 0})
	}
	sort.Ints(srcs)
	gNew, err := graph.Patch(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	covNew, info, ok := cov.Patch(g, gNew, srcs)
	if !ok {
		return nil, nil, nil, nil, false
	}
	var newL []graph.V
	for v := 0; v < gNew.N(); v++ {
		if gNew.HasColor(v, 0) {
			newL = append(newL, v)
		}
	}
	// Eligibility delta: L-diff ∪ KernelDelta.
	deltaSet := map[graph.V]bool{}
	inOld := make([]bool, g.N())
	for _, v := range L {
		inOld[v] = true
	}
	inNew := make([]bool, g.N())
	for _, v := range newL {
		inNew[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if inOld[v] != inNew[v] {
			deltaSet[v] = true
		}
	}
	for _, v := range info.KernelDelta {
		deltaSet[v] = true
	}
	delta := make([]graph.V, 0, len(deltaSet))
	for v := range deltaSet {
		delta = append(delta, v)
	}
	sort.Ints(delta)
	return gNew, covNew, newL, delta, true
}

// TestDeltaAgainstBruteForce: an overlaid table answers every (b, S) under
// the new cover and list exactly like the definition — and exactly like a
// from-scratch rebuild on the mutated structures.
func TestDeltaAgainstBruteForce(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.RandomTree, gen.BoundedDegree} {
		g, cov, L := buildFixture(t, class, 300, 2, 29)
		for _, k := range []int{1, 2, 3} {
			base := New(g, cov, k, L)
			rng := rand.New(rand.NewSource(int64(k) * 13))
			gNew, covNew, newL, delta, ok := mutateFixture(t, rng, g, cov, L)
			if !ok {
				continue
			}
			overlay := base.WithDelta(covNew, newL, delta)
			rebuilt := New(gNew, covNew, k, newL)
			for q := 0; q < 800; q++ {
				b := rng.Intn(g.N())
				S := make([]int, 0, k)
				for len(S) < rng.Intn(k+1) {
					S = append(S, rng.Intn(covNew.NumBags()))
				}
				want := bruteSkip(covNew, newL, g.N(), b, S)
				if got := overlay.Query(b, S); got != want {
					t.Fatalf("%s k=%d: overlay SKIP(%d, %v) = %d, want %d (delta size %d)",
						class, k, b, S, got, want, len(delta))
				}
				if got := rebuilt.Query(b, S); got != want {
					t.Fatalf("%s k=%d: rebuilt SKIP(%d, %v) = %d, want %d",
						class, k, b, S, got, want)
				}
			}
			// The base table still answers for the old version.
			for q := 0; q < 200; q++ {
				b := rng.Intn(g.N())
				S := []int{rng.Intn(cov.NumBags())}
				if got, want := base.Query(b, S), bruteSkip(cov, L, g.N(), b, S); got != want {
					t.Fatalf("%s k=%d: base SKIP(%d, %v) = %d, want %d after overlay",
						class, k, b, S, got, want)
				}
			}
		}
	}
}

// TestDeltaChained: overlay-on-overlay accumulates deltas and stays exact
// across several mutation generations.
func TestDeltaChained(t *testing.T) {
	g, cov, L := buildFixture(t, gen.Grid, 300, 2, 31)
	k := 2
	p := New(g, cov, k, L)
	rng := rand.New(rand.NewSource(57))
	for gen := 0; gen < 4; gen++ {
		var gNew *graph.Graph
		var covNew *cover.Cover
		var newL, delta []graph.V
		ok := false
		for attempt := 0; attempt < 10 && !ok; attempt++ {
			gNew, covNew, newL, delta, ok = mutateFixture(t, rng, g, cov, L)
		}
		if !ok {
			t.Fatalf("generation %d: cover patch refused 10 batches in a row", gen)
		}
		p = p.WithDelta(covNew, newL, delta)
		g, cov, L = gNew, covNew, newL
		for q := 0; q < 400; q++ {
			b := rng.Intn(g.N())
			S := make([]int, 0, k)
			for len(S) < rng.Intn(k+1) {
				S = append(S, rng.Intn(cov.NumBags()))
			}
			want := bruteSkip(cov, L, g.N(), b, S)
			if got := p.Query(b, S); got != want {
				t.Fatalf("generation %d: SKIP(%d, %v) = %d, want %d (delta %d)",
					gen, b, S, got, want, p.DeltaLen())
			}
		}
	}
	if p.DeltaLen() == 0 {
		t.Fatal("chained overlays accumulated no delta")
	}
}

func TestRebuildThreshold(t *testing.T) {
	if RebuildThreshold(16) != 32 {
		t.Fatalf("floor: got %d", RebuildThreshold(16))
	}
	if RebuildThreshold(16000) != 1000 {
		t.Fatalf("n/16: got %d", RebuildThreshold(16000))
	}
}
