package lowdeg

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The ball locality's selling points, enforced: preprocessing a
// bounded-degree graph must be at least 25× cheaper than the general
// nowhere-dense build (no cover, kernels, skip pointers or distance index
// to pay for), and a single-edge write at least 10× cheaper than that build
// again (it patches the ball rows around the edge, it does not rebuild) —
// two timing ratios, run in verify.sh tier 3 under GUARD=1; and the
// answering hot path must stay allocation-free like the cover locality's —
// three deterministic pins, run in tier 1.

func timingGuard(t *testing.T) {
	t.Helper()
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
}

// buildGuardQuery compiles the Example-2 query the guards run over
// degree-bounded random graphs.
func buildGuardQuery(t testing.TB) *core.LocalQuery {
	t.Helper()
	phi := fo.MustParse("dist(x,y) > 2 & C0(y)")
	lq, err := core.Compile(phi, []fo.Var{"x", "y"}, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

// TestLowdegBuildSpeedGuard pins the headline preprocessing advantage:
// on the degree-bounded bdeg-4000 graph the lowdeg build must be ≥ 25× cheaper
// than the core build. It is one pass that writes every sorted ball once
// and two passes over the colours (51–58× over five runs until PR 24 made the
// core build on this graph an eighth cheaper, 34–53× over six since; the gate
// is half of what was measured then). Both engines are cross-checked on FastCount before any
// timing is trusted.
func TestLowdegBuildSpeedGuard(t *testing.T) {
	timingGuard(t)
	g := gen.Generate(gen.BoundedDegree, 4000, gen.Options{Seed: 16, Colors: 2})
	lq := buildGuardQuery(t)

	// Warm-up + correctness gate: the speed claim is meaningless if the
	// cheap build answers differently.
	ce, err := core.Preprocess(g, lq, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	le, err := Preprocess(g, lq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := ce.FastCount()
	lc, _ := le.FastCount()
	if cc != lc {
		t.Fatalf("FastCount disagrees: core %d vs lowdeg %d", cc, lc)
	}

	// Best-of-3 walls to shave scheduler noise.
	coreWall, lowWall := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := core.Preprocess(g, lq, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < coreWall {
			coreWall = d
		}
		start = time.Now()
		if _, err := Preprocess(g, lq, Options{}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < lowWall {
			lowWall = d
		}
	}
	t.Logf("core build %v, lowdeg build %v (%.1fx)", coreWall, lowWall, float64(coreWall)/float64(lowWall))
	if lowWall*25 > coreWall {
		t.Errorf("lowdeg build %v is not ≥25x cheaper than core build %v", lowWall, coreWall)
	}
}

// TestLowdegMutateSpeedGuard pins the point of patching the ball locality:
// on the benchmark's bdeg-32k graph a single-edge ApplyEdits recomputes the
// ball rows and starter bits around the edge and copies the rest, so it must
// beat Preprocess by ≥ 10× (measured ~20×: the copy of the two flat arrays
// and of the graph is what is left), never through the rebuild fallback.
func TestLowdegMutateSpeedGuard(t *testing.T) {
	timingGuard(t)
	g := gen.Generate(gen.BoundedDegree, 32000, gen.Options{Seed: 16, Colors: 2})
	lq := buildGuardQuery(t)
	buildWall := time.Duration(1 << 62)
	var e *Engine
	for i := 0; i < 3; i++ {
		start := time.Now()
		var err error
		if e, err = Preprocess(g, lq, Options{}); err != nil {
			t.Fatal(err)
		}
		buildWall = min(buildWall, time.Since(start))
	}
	u := 1000
	w := int(g.Neighbors(u)[0])
	updateWall := time.Duration(1 << 62)
	for i := 0; i < 6; i++ {
		edit := graph.Edit{Op: graph.RemoveEdge, U: u, V: w}
		if i%2 == 1 {
			edit.Op = graph.AddEdge
		}
		start := time.Now()
		next, err := e.ApplyEdits(context.Background(), []graph.Edit{edit})
		if err != nil {
			t.Fatal(err)
		}
		updateWall = min(updateWall, time.Since(start))
		if next == e {
			t.Fatal("toggle edit reported as a no-op")
		}
		e = next
	}
	st := e.Stats()
	t.Logf("bdeg-32k: build %v, single-edge update %v (%.1fx), MutAffected %d of %d",
		buildWall, updateWall, float64(buildWall)/float64(updateWall), st.MutAffected, g.N())
	if st.Mutations != 6 || st.MutRebuilds != 0 {
		t.Errorf("%d of %d single-edge edits fell back to a full rebuild", st.MutRebuilds, st.Mutations)
	}
	if st.MutAffected == 0 || st.MutAffected > g.N()/100 {
		t.Errorf("MutAffected = %d, want a small nonzero region of n = %d", st.MutAffected, g.N())
	}
	if 10*updateWall > buildWall {
		t.Errorf("single-edge update %v is not ≥10x faster than the build %v", updateWall, buildWall)
	}
}

func buildGuardEngine(t testing.TB) *Engine {
	t.Helper()
	g := gen.Generate(gen.BoundedDegree, 4000, gen.Options{Seed: 16, Colors: 2})
	e, err := Preprocess(g, buildGuardQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLowdegIteratorZeroAllocs pins the constant-delay enumeration step —
// the shared core.Iterator stepping this engine's clause cursors —
// at zero allocations per answer in steady state.
func TestLowdegIteratorZeroAllocs(t *testing.T) {
	e := buildGuardEngine(t)
	it := e.Iterator()
	if !it.HasNext() {
		t.Fatal("bdeg-4000 engine produced no solutions")
	}
	zero := make([]graph.V, e.Arity())
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := it.Next(); !ok {
			it.Seek(zero)
		}
	})
	if allocs != 0 {
		t.Errorf("Iterator.Next = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}

// TestLowdegTestZeroAllocs pins the membership test at zero allocations
// per call, probing solutions and non-solutions alike.
func TestLowdegTestZeroAllocs(t *testing.T) {
	e := buildGuardEngine(t)
	var probes [][]graph.V
	e.Enumerate(func(a []graph.V) bool {
		probes = append(probes, append([]graph.V(nil), a...))
		return len(probes) < 64
	})
	if len(probes) == 0 {
		t.Fatal("bdeg-4000 engine produced no solutions")
	}
	// Interleave guaranteed non-solutions (diagonal tuples are never far
	// from themselves).
	for i := 0; i < 64; i++ {
		v := (i * 31) % e.Graph().N()
		probes = append(probes, []graph.V{v, v})
	}
	a := make([]graph.V, e.Arity())
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

// TestLowdegNextLastZeroAllocs pins the Lemma 5.2 partner primitive at
// zero allocations per call on prefixes with and without partners.
func TestLowdegNextLastZeroAllocs(t *testing.T) {
	e := buildGuardEngine(t)
	prefix := make([]graph.V, e.Arity()-1)
	v := 0
	allocs := testing.AllocsPerRun(2000, func() {
		prefix[0] = v % e.Graph().N()
		e.NextLast(prefix, 0)
		v += 17
	})
	if allocs != 0 {
		t.Errorf("Engine.NextLast = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}
