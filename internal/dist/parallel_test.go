package dist

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// equalIndexes compares two indexes structurally — layout choice, table
// contents, cover shape, splitter vertices, Step-4 distances, and the
// recursive sub-indexes. It deliberately ignores runtime-only state (the
// fallback BFS pool and stats pointers).
func equalIndexes(t *testing.T, path string, a, b *Index) {
	t.Helper()
	if a.R != b.R {
		t.Fatalf("%s: radius %d vs %d", path, a.R, b.R)
	}
	if a.edgeless != b.edgeless {
		t.Fatalf("%s: edgeless %v vs %v", path, a.edgeless, b.edgeless)
	}
	if (a.small == nil) != (b.small == nil) {
		t.Fatalf("%s: small-table layout %v vs %v", path, a.small != nil, b.small != nil)
	}
	if a.small != nil && !reflect.DeepEqual(a.small, b.small) {
		t.Fatalf("%s: small tables differ", path)
	}
	if (a.fallback == nil) != (b.fallback == nil) {
		t.Fatalf("%s: fallback layout %v vs %v", path, a.fallback != nil, b.fallback != nil)
	}
	if (a.cov == nil) != (b.cov == nil) {
		t.Fatalf("%s: cover layout %v vs %v", path, a.cov != nil, b.cov != nil)
	}
	if a.cov == nil {
		return
	}
	if a.cov.NumBags() != b.cov.NumBags() {
		t.Fatalf("%s: %d vs %d bags", path, a.cov.NumBags(), b.cov.NumBags())
	}
	for i := 0; i < a.cov.NumBags(); i++ {
		if !reflect.DeepEqual(a.cov.Bag(i), b.cov.Bag(i)) {
			t.Fatalf("%s: bag %d members differ", path, i)
		}
		if a.cov.Center(i) != b.cov.Center(i) {
			t.Fatalf("%s: bag %d center %d vs %d", path, i, a.cov.Center(i), b.cov.Center(i))
		}
		ba, bb := a.bags[i], b.bags[i]
		if ba.sX != bb.sX {
			t.Fatalf("%s: bag %d splitter %d vs %d", path, i, ba.sX, bb.sX)
		}
		if !reflect.DeepEqual(ba.distS, bb.distS) {
			t.Fatalf("%s: bag %d distS differs", path, i)
		}
		equalIndexes(t, fmt.Sprintf("%s/bag%d", path, i), ba.inner, bb.inner)
	}
}

// TestParallelIndexByteIdentical asserts that Workers=N builds exactly the
// structure Workers=1 builds, across graph classes including dense ones
// that exercise the splitter recursion, and that the deterministic budget
// accounting agrees too.
func TestParallelIndexByteIdentical(t *testing.T) {
	cases := []struct {
		class gen.Class
		n     int
		opt   Options
	}{
		{gen.Path, 400, Options{}},
		{gen.Grid, 900, Options{}},
		{gen.RandomTree, 700, Options{}},
		{gen.BoundedDegree, 600, Options{}},
		{gen.SparseRandom, 500, Options{}},
		// DisableBallTable forces the cover + splitter recursion.
		{gen.Grid, 900, Options{DisableBallTable: true}},
		{gen.RandomTree, 700, Options{DisableBallTable: true}},
		{gen.Caterpillar, 500, Options{DisableBallTable: true}},
		// Dense classes drive deep recursion and budget pressure.
		{gen.Clique, 60, Options{DisableBallTable: true}},
		{gen.DenseRandom, 120, Options{DisableBallTable: true}},
		// Tight budget: fallback decisions must still match.
		{gen.Grid, 400, Options{DisableBallTable: true, WorkBudget: 4000}},
		{gen.DenseRandom, 120, Options{DisableBallTable: true, WorkBudget: 2000}},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			g := gen.Generate(tc.class, tc.n, gen.Options{Seed: 11})
			seqOpt, parOpt := tc.opt, tc.opt
			seqOpt.Workers = 1
			seq := New(g, r, seqOpt)
			for _, workers := range []int{2, 5} {
				parOpt.Workers = workers
				p := New(g, r, parOpt)
				label := fmt.Sprintf("%s n=%d r=%d w=%d", tc.class, tc.n, r, workers)
				equalIndexes(t, label, seq, p)
				ss, ps := seq.Stats(), p.Stats()
				ss.Workers, ps.Workers = 0, 0
				if !reflect.DeepEqual(ss, ps) {
					t.Fatalf("%s: stats differ: %+v vs %+v", label, ss, ps)
				}
			}
		}
	}
}

// TestParallelIndexAnswers cross-checks a parallel-built index against the
// BFS oracle on every queried pair.
func TestParallelIndexAnswers(t *testing.T) {
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.SparseRandom} {
		g := gen.Generate(class, 500, gen.Options{Seed: 7})
		ix := New(g, 3, Options{Workers: 4})
		bfs := graph.NewBFS(g)
		for a := 0; a < g.N(); a += 13 {
			for b := 0; b < g.N(); b += 17 {
				for rr := 0; rr <= 3; rr++ {
					want := bfs.Distance(a, b, rr) >= 0
					if got := ix.Within(a, b, rr); got != want {
						t.Fatalf("%s: Within(%d,%d,%d) = %v, oracle %v", class, a, b, rr, got, want)
					}
				}
			}
		}
	}
}

// TestConcurrentWithin hammers one shared index — including one forced
// into the BFS-fallback layout, whose scratch is pooled — from many
// goroutines; run with -race.
func TestConcurrentWithin(t *testing.T) {
	for _, opt := range []Options{
		{Workers: 4},
		{Workers: 4, WorkBudget: 1}, // whole index degenerates to fallback BFS
	} {
		g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 9})
		ix := New(g, 2, opt)
		bfs := graph.NewBFS(g)
		type q struct {
			a, b, rr int
			want     bool
		}
		var qs []q
		for a := 0; a < g.N(); a += 31 {
			for b := 0; b < g.N(); b += 37 {
				rr := (a + b) % 3
				qs = append(qs, q{a, b, rr, bfs.Distance(a, b, rr) >= 0})
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(qs); i += 2 {
					if got := ix.Within(qs[i].a, qs[i].b, qs[i].rr); got != qs[i].want {
						t.Errorf("Within(%d,%d,%d) = %v, want %v",
							qs[i].a, qs[i].b, qs[i].rr, got, qs[i].want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestManyWorkersSmallGraph is a regression test: when workers*4 chunks
// exceed √n, ceil-division chunking used to produce a trailing chunk with
// lo > n and panic on a negative-length makeslice. Oversubscribed pools
// must degrade to empty shards instead.
func TestManyWorkersSmallGraph(t *testing.T) {
	g := gen.Generate(gen.Grid, 1936, gen.Options{Seed: 11})
	seq := New(g, 2, Options{Workers: 1})
	for _, workers := range []int{16, 64, 300} {
		p := New(g, 2, Options{Workers: workers})
		equalIndexes(t, fmt.Sprintf("grid n=1936 w=%d", workers), seq, p)
	}
}
