package core

import (
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The allocation pins are the dynamic twin of the fodlint hotpath
// analyzer: the analyzer forbids the allocation-prone constructs it can
// see statically, and these tests pin the end-to-end answering loop at
// 0 allocs/op on Example 2 of the paper over grid-2000. Allocation counts
// are deterministic, so they run in tier 1.

// buildGrid2000Engine compiles the Example-2 query dist(x,y) > 2 ∧ C0(y)
// for (x, y) and preprocesses it over the sparsely coloured grid-2000.
func buildGrid2000Engine(t *testing.T) *Engine {
	t.Helper()
	phi := fo.MustParse("dist(x,y) > 2 & C0(y)")
	lq, err := Compile(phi, []fo.Var{"x", "y"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Generate(gen.Grid, 2000, gen.Options{Seed: 7, Colors: 1, ColorProb: 0.05})
	e, err := Preprocess(g, lq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestIteratorNextZeroAllocs pins the constant-delay enumeration step
// (Corollary 2.5) at zero allocations per answer in steady state.
func TestIteratorNextZeroAllocs(t *testing.T) {
	e := buildGrid2000Engine(t)
	it := e.Iterator()
	if !it.HasNext() {
		t.Fatal("grid-2000 engine produced no solutions")
	}
	zero := make([]graph.V, e.k)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := it.Next(); !ok {
			it.Seek(zero)
		}
	})
	if allocs != 0 {
		t.Errorf("Iterator.Next = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}

// TestEngineTestZeroAllocs pins the constant-time membership test
// (Corollary 2.4) at zero allocations per call, probing solutions and
// non-solutions alike.
func TestEngineTestZeroAllocs(t *testing.T) {
	e := buildGrid2000Engine(t)
	var probes [][]graph.V
	e.Enumerate(func(a []graph.V) bool {
		probes = append(probes, append([]graph.V(nil), a...))
		return len(probes) < 64
	})
	if len(probes) == 0 {
		t.Fatal("grid-2000 engine produced no solutions")
	}
	// Interleave guaranteed non-solutions (diagonal tuples are never far
	// from themselves).
	for i := 0; i < 64; i++ {
		v := (i * 31) % e.g.N()
		probes = append(probes, []graph.V{v, v})
	}
	a := make([]graph.V, e.k)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		p := probes[i%len(probes)]
		copy(a, p)
		e.Test(a)
		i++
	})
	if allocs != 0 {
		t.Errorf("Engine.Test = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}

// TestNextLastZeroAllocs pins the Lemma 5.2 partner primitive at zero
// allocations per call on prefixes with and without partners.
func TestNextLastZeroAllocs(t *testing.T) {
	e := buildGrid2000Engine(t)
	prefix := make([]graph.V, e.k-1)
	v := 0
	allocs := testing.AllocsPerRun(2000, func() {
		prefix[0] = v % e.g.N()
		e.NextLast(prefix, 0)
		v += 17
	})
	if allocs != 0 {
		t.Errorf("Engine.NextLast = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}
