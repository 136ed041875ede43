package dist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/splitter"
)

func testClasses() []gen.Class {
	return []gen.Class{gen.Path, gen.Cycle, gen.Star, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid,
		gen.BoundedDegree, gen.SparseRandom}
}

// TestIndexAgainstBFS cross-checks every Within answer against truncated
// BFS on random vertex pairs, for all classes and radii, including query
// radii strictly below the index radius.
func TestIndexAgainstBFS(t *testing.T) {
	for _, class := range testClasses() {
		for _, r := range []int{2, 4} {
			g := gen.Generate(class, 500, gen.Options{Seed: 13})
			ix := New(g, r, Options{})
			bfs := graph.NewBFS(g)
			rng := rand.New(rand.NewSource(int64(r)))
			for q := 0; q < 2000; q++ {
				a, b := rng.Intn(g.N()), rng.Intn(g.N())
				rr := 1 + rng.Intn(r)
				want := bfs.Distance(a, b, rr) >= 0
				if got := ix.Within(a, b, rr); got != want {
					t.Fatalf("%s r=%d: Within(%d,%d,%d)=%v want %v",
						class, r, a, b, rr, got, want)
				}
			}
		}
	}
}

// TestIndexAdjacentPairs checks all actual edges and some distance-2 pairs,
// which stress the bag-boundary logic more than random pairs do.
func TestIndexAdjacentPairs(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{})
	ix := New(g, 3, Options{})
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if !ix.Within(v, int(w), 1) {
				t.Fatalf("edge (%d,%d) not within distance 1", v, w)
			}
			for _, u := range g.Neighbors(int(w)) {
				if !ix.Within(v, int(u), 2) {
					t.Fatalf("(%d,%d) not within distance 2", v, u)
				}
			}
		}
	}
}

// TestIndexSplitterRecursion forces the recursive path with a tiny
// SmallThreshold and checks correctness survives deep recursion.
func TestIndexSplitterRecursion(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.RandomTree, gen.Star, gen.Grid} {
		g := gen.Generate(class, 300, gen.Options{Seed: 2})
		ix := New(g, 2, Options{SmallThreshold: 8, DisableBallTable: true})
		if ix.Stats().Bags == 0 {
			t.Fatalf("%s: recursion not exercised (no bags)", class)
		}
		bfs := graph.NewBFS(g)
		rng := rand.New(rand.NewSource(4))
		for q := 0; q < 1500; q++ {
			a, b := rng.Intn(g.N()), rng.Intn(g.N())
			want := bfs.Distance(a, b, 2) >= 0
			if got := ix.Within(a, b, 2); got != want {
				t.Fatalf("%s: Within(%d,%d,2)=%v want %v", class, a, b, got, want)
			}
		}
	}
}

// TestIndexForestStrategy plugs in the provably correct forest strategy.
func TestIndexForestStrategy(t *testing.T) {
	g := gen.Generate(gen.RandomTree, 400, gen.Options{Seed: 9})
	strat := splitter.NewForestDepth(g)
	// The arenas inside the index are induced subgraphs with renumbered
	// vertices, so the depth table cannot be carried through; fall back to
	// the generic strategy for inner levels by wrapping.
	ix := New(g, 2, Options{Strategy: strat, SmallThreshold: 16})
	bfs := graph.NewBFS(g)
	rng := rand.New(rand.NewSource(10))
	for q := 0; q < 1000; q++ {
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		want := bfs.Distance(a, b, 2) >= 0
		if got := ix.Within(a, b, 2); got != want {
			t.Fatalf("Within(%d,%d,2)=%v want %v", a, b, got, want)
		}
	}
}

func TestIndexSelfAndOutOfRange(t *testing.T) {
	g := gen.Generate(gen.Path, 100, gen.Options{})
	ix := New(g, 2, Options{})
	if !ix.Within(5, 5, 0) {
		t.Fatal("Within(v,v,0) must hold")
	}
	if ix.Within(0, 99, 2) {
		t.Fatal("path endpoints are far apart")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rr > R")
		}
	}()
	ix.Within(0, 1, 3)
}

func TestIndexEdgeless(t *testing.T) {
	b := graph.NewBuilder(50, 0)
	g := b.Build()
	ix := New(g, 2, Options{})
	if ix.Within(1, 2, 2) {
		t.Fatal("edgeless graph has no close pairs")
	}
	if !ix.Within(3, 3, 1) {
		t.Fatal("Within(v,v) must hold")
	}
}

func TestIndexStatsNoFallbackOnSparse(t *testing.T) {
	// Classes with uniformly small balls at r=2; the small-world random
	// classes legitimately trigger the budget fallback at larger radii
	// because their 4-balls cover most of the graph.
	for _, class := range []gen.Class{gen.Path, gen.Cycle, gen.Star,
		gen.Caterpillar, gen.BalancedTree, gen.Grid, gen.KingGrid} {
		g := gen.Generate(class, 800, gen.Options{Seed: 21})
		ix := New(g, 2, Options{})
		if f := ix.Stats().Fallbacks; f != 0 {
			t.Errorf("%s: %d fallbacks on a nowhere dense input", class, f)
		}
	}
	// A partial k-tree has a hub next to most of the graph, so the root
	// table is over its cap and the index recurses on the cover. With bags
	// centered on the smallest uncovered vertex itself, almost every bag
	// was N_4 of a hub neighbour and the recursion ran out of budget: 185
	// fallbacks at (n, seed) = (4000, 1), 7 at (8000, 1) and 145 at
	// (8000, 2). Centers stepped into uncovered ground leave none.
	for _, n := range []int{4000, 8000} {
		for seed := int64(1); seed <= 3; seed++ {
			g := gen.Generate(gen.PartialKTree, n, gen.Options{Seed: seed})
			if f := New(g, 2, Options{}).Stats().Fallbacks; f != 0 {
				t.Errorf("ktree n=%d seed=%d: %d fallbacks", n, seed, f)
			}
		}
	}
}

func TestIndexWorkBudgetDegradesGracefully(t *testing.T) {
	// A tiny budget must still give correct answers via the BFS fallback.
	g := gen.Generate(gen.Grid, 600, gen.Options{})
	ix := New(g, 2, Options{WorkBudget: 1})
	if ix.Stats().Fallbacks == 0 {
		t.Fatal("expected the budget fallback to trigger")
	}
	bfs := graph.NewBFS(g)
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 500; q++ {
		a, b := rng.Intn(g.N()), rng.Intn(g.N())
		want := bfs.Distance(a, b, 2) >= 0
		if got := ix.Within(a, b, 2); got != want {
			t.Fatalf("Within(%d,%d,2)=%v want %v", a, b, got, want)
		}
	}
}

// TestAppendBall: an index whose top level is the ball table (or that has no
// edge to look at) hands out N_rr(a) ascending for every rr ≤ R — the cells
// of the radius-R row with the farther ones left out — appended behind what
// dst holds; a recursive or fallback index says it cannot.
func TestAppendBall(t *testing.T) {
	for _, class := range testClasses() {
		g := gen.Generate(class, 300, gen.Options{Seed: 13})
		ix := New(g, 3, Options{})
		bfs := graph.NewBFS(g)
		for a := 0; a < g.N(); a += 7 {
			for rr := 0; rr <= 3; rr++ {
				got, ok := ix.AppendBall([]int32{-1}, a, rr)
				if !ok {
					if ix.small != nil || ix.edgeless {
						t.Fatalf("%s: AppendBall refused on an index that holds its balls", class)
					}
					continue
				}
				if want := bfs.AppendSortedBall([]int32{-1}, a, rr); !slices.Equal(got, want) {
					t.Fatalf("%s: AppendBall(%d, %d) = %v, want %v", class, a, rr, got, want)
				}
			}
		}
	}
	if ball, ok := New(graph.NewBuilder(5, 0).Build(), 2, Options{}).AppendBall(nil, 3, 2); !ok || !slices.Equal(ball, []int32{3}) {
		t.Fatalf("edgeless: AppendBall = %v, %v", ball, ok)
	}
	if _, ok := New(gen.Generate(gen.Grid, 400, gen.Options{Seed: 1}), 2, Options{DisableBallTable: true}).AppendBall(nil, 0, 2); ok {
		t.Fatal("a recursive index claims to hold a ball")
	}
}
