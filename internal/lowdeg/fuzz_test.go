package lowdeg_test

import (
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowdeg"
)

// fuzzClasses are bounded-degree generator families — the regime the
// lowdeg engine targets (Grid caps at degree 4, KingGrid at 8).
var fuzzClasses = []gen.Class{
	gen.BoundedDegree, gen.Path, gen.Cycle, gen.Caterpillar, gen.Grid, gen.RandomTree,
}

// fuzzQueries is a fixed query menu spanning the answering shapes: unary,
// binary close, binary far, mixed disjunction, ternary far, ternary
// connected, ternary mixed, ternary with the pair behind a far singleton.
var fuzzQueries = []struct {
	query string
	vars  []string
}{
	{"C1(x)", []string{"x"}},
	{"dist(x,y) <= 2 & C0(x)", []string{"x", "y"}},
	{"dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
	{"E(x,y) & C0(x)", []string{"x", "y"}},
	{"dist(x,y) <= 1 | dist(x,y) > 2 & C0(x)", []string{"x", "y"}},
	{"dist(x,y) > 1 & dist(y,z) > 1 & dist(x,z) > 1 & C0(x)", []string{"x", "y", "z"}},
	{"E(x,y) & E(y,z) & C1(z)", []string{"x", "y", "z"}},
	// Clauses that mix a close pair with a far position: a step that pops
	// from z re-enters Case II for y.
	{"dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []string{"x", "y", "z"}},
	// A pair that opens behind a far singleton: Case I over the pair's anchors.
	{"dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) <= 2 & C0(x)", []string{"x", "y", "z"}},
}

// FuzzEngineEquivalence generates random bounded-degree graphs and checks
// that the core engine, the lowdeg engine and the naive oracle answer
// identically on every face of the engine contract. Run continuously in
// tier 2 of scripts/verify.sh (30s budget).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(12))
	f.Add(int64(7), uint8(4), uint8(5), uint8(40))
	f.Add(int64(42), uint8(2), uint8(0), uint8(3))
	f.Add(int64(9), uint8(1), uint8(6), uint8(25))
	// conform.CheckAll interleaves Seek with runs of Next on one cursor
	// (CheckSeekStep); these seeds put far2, far3 and the mixed ternary
	// query through it on a grid and a bounded-degree graph.
	f.Add(int64(3), uint8(4), uint8(2), uint8(28))
	f.Add(int64(5), uint8(0), uint8(5), uint8(16))
	f.Add(int64(11), uint8(4), uint8(7), uint8(17))
	f.Add(int64(13), uint8(0), uint8(7), uint8(20))
	f.Add(int64(17), uint8(4), uint8(8), uint8(28))
	f.Add(int64(19), uint8(0), uint8(8), uint8(22))
	f.Fuzz(func(t *testing.T, seed int64, classIdx, queryIdx, n uint8) {
		class := fuzzClasses[int(classIdx)%len(fuzzClasses)]
		qc := fuzzQueries[int(queryIdx)%len(fuzzQueries)]
		nv := 8 + int(n)%48
		g := gen.Generate(class, nv, gen.Options{Seed: seed, Colors: 2})
		q := compile(t, qc.query, qc.vars...)
		ce, err := core.Preprocess(g, q, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("core preprocess: %v", err)
		}
		le, err := lowdeg.Preprocess(g, q, lowdeg.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("lowdeg preprocess: %v", err)
		}
		want := conform.NewNaive(g, q).Solutions()
		for _, sys := range []conform.System{
			{Name: "core", Engine: ce, K: q.K, N: g.N(),
				NewCursor: func(a []graph.V) conform.Cursor { return ce.IteratorFrom(a) }},
			{Name: "lowdeg", Engine: le, K: q.K, N: g.N(),
				NewCursor: func(a []graph.V) conform.Cursor { return le.IteratorFrom(a) }},
		} {
			if err := conform.CheckAll(sys, want); err != nil {
				t.Errorf("seed=%d class=%s n=%d query=%q: %v", seed, class, nv, qc.query, err)
			}
		}
	})
}
