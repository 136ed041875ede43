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
// bounded-degree graph is linear in its size (no cover, kernels, skip
// pointers or distance index to pay for), and a single-edge write is at
// least 10× cheaper than that build (it patches the ball rows around the
// edge, it does not rebuild) — two timing ratios, run in verify.sh tier 3
// under GUARD=1; and the answering hot path must stay allocation-free like
// the cover locality's — three deterministic pins, run in tier 1.

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

// TestLowdegBuildSpeedGuard pins the headline preprocessing claim of the
// ball locality — a build linear in the graph — against its own baseline:
// on bdeg graphs of 4 000 and 16 000 vertices, one worker, best of five
// builds a size, the large build may cost at most 6× the small one (linear
// is 4×; measured 2.9–4.6×). A ratio to the cover-locality build would move
// with every change to that build and with the CPU count, so the core build
// is timed once for the log only. FastCount cross-checks the two localities
// before any timing is trusted.
func TestLowdegBuildSpeedGuard(t *testing.T) {
	timingGuard(t)
	lq := buildGuardQuery(t)
	small := gen.Generate(gen.BoundedDegree, 4000, gen.Options{Seed: 16, Colors: 2})
	large := gen.Generate(gen.BoundedDegree, 16000, gen.Options{Seed: 16, Colors: 2})
	one := Options{Parallelism: 1}

	// Warm-up + correctness gate: the speed claim is meaningless if the
	// ball locality answers differently.
	start := time.Now()
	ce, err := core.Preprocess(small, lq, one)
	if err != nil {
		t.Fatal(err)
	}
	coreWall := time.Since(start)
	le, err := Preprocess(small, lq, one)
	if err != nil {
		t.Fatal(err)
	}
	cc, _ := ce.FastCount()
	lc, _ := le.FastCount()
	if cc != lc {
		t.Fatalf("FastCount disagrees: core %d vs lowdeg %d", cc, lc)
	}

	best := func(g *graph.Graph) time.Duration {
		wall := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := Preprocess(g, lq, one); err != nil {
				t.Fatal(err)
			}
			wall = min(wall, time.Since(start))
		}
		return wall
	}
	smallWall, largeWall := best(small), best(large)
	ratio := float64(largeWall) / float64(smallWall)
	t.Logf("lowdeg build: bdeg-4000 %v, bdeg-16000 %v (%.2fx for 4x the vertices); core build on bdeg-4000 %v (%.1fx the lowdeg one)",
		smallWall, largeWall, ratio, coreWall, float64(coreWall)/float64(smallWall))
	if ratio > 6 {
		t.Errorf("lowdeg build grows %.2fx from bdeg-4000 to bdeg-16000 (%v → %v), want ≤ 6x (linear is 4x)", ratio, smallWall, largeWall)
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
