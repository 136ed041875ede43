package wcol

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteWReach computes WReach counts directly from the definition: for
// every pair (a, b) check whether some path of length ≤ r connects them
// with b strictly smallest on the path.
func bruteWReach(g *graph.Graph, order []graph.V, r int) []int {
	n := g.N()
	rank := make([]int, n)
	for i, v := range order {
		rank[v] = i
	}
	counts := make([]int, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if pathExists(g, rank, a, b, r) {
				counts[a]++
			}
		}
	}
	return counts
}

// pathExists checks for a path a→b of length ≤ r whose vertices other
// than b all have rank > rank[b] (a included).
func pathExists(g *graph.Graph, rank []int, a, b graph.V, r int) bool {
	if rank[a] <= rank[b] {
		return false
	}
	// BFS from b restricted to vertices of rank > rank[b].
	seen := map[graph.V]int{b: 0}
	queue := []graph.V{b}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if seen[v] >= r {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if _, ok := seen[int(w)]; ok || rank[w] <= rank[b] {
				continue
			}
			seen[int(w)] = seen[v] + 1
			queue = append(queue, int(w))
		}
	}
	_, ok := seen[a]
	return ok
}

func TestWReachAgainstBruteForce(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Star, gen.Grid, gen.RandomTree, gen.SparseRandom} {
		g := gen.Generate(class, 60, gen.Options{Seed: 5})
		order := DegeneracyOrder(g)
		for _, r := range []int{1, 2, 3} {
			got := WReachCounts(g, order, r)
			want := bruteWReach(g, order, r)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("%s r=%d vertex %d: %d vs brute %d", class, r, v, got[v], want[v])
				}
			}
		}
	}
}

func TestWReachRandomOrders(t *testing.T) {
	g := gen.Generate(gen.KingGrid, 49, gen.Options{Seed: 2})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		order := make([]graph.V, g.N())
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		got := WReachCounts(g, order, 2)
		want := bruteWReach(g, order, 2)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("trial %d vertex %d: %d vs %d", trial, v, got[v], want[v])
			}
		}
	}
}

func TestDegeneracyOrderValid(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.Clique, gen.RandomTree} {
		g := gen.Generate(class, 100, gen.Options{Seed: 3})
		order := DegeneracyOrder(g)
		seen := make([]bool, g.N())
		for _, v := range order {
			if seen[v] {
				t.Fatalf("%s: vertex %d repeated", class, v)
			}
			seen[v] = true
		}
	}
}

func TestDegeneracyValues(t *testing.T) {
	cases := []struct {
		class gen.Class
		n     int
		want  int
	}{
		{gen.Path, 50, 1},
		{gen.Star, 50, 1},
		{gen.Cycle, 50, 2},
		{gen.BalancedTree, 50, 1},
		{gen.Grid, 49, 2},
		{gen.Clique, 12, 11},
	}
	for _, c := range cases {
		g := gen.Generate(c.class, c.n, gen.Options{})
		if d := Degeneracy(g); d != c.want {
			t.Errorf("%s: degeneracy %d, want %d", c.class, d, c.want)
		}
	}
}

// TestDegeneracyFastMatchesReference pins the O(n+m) bucket implementation
// (what the repro facade's auto engine selection runs on every build) to
// the quadratic reference on every sparse generator class plus a dense
// control, across sizes including the degenerate 0- and 1-vertex graphs.
func TestDegeneracyFastMatchesReference(t *testing.T) {
	classes := []gen.Class{
		gen.Path, gen.Cycle, gen.Star, gen.Caterpillar, gen.BalancedTree,
		gen.RandomTree, gen.Grid, gen.KingGrid, gen.BoundedDegree,
		gen.SparseRandom, gen.Clique,
	}
	for _, class := range classes {
		for _, n := range []int{1, 2, 17, 120} {
			g := gen.Generate(class, n, gen.Options{Seed: 11})
			want := Degeneracy(g)
			if got := DegeneracyFast(g); got != want {
				t.Fatalf("%s n=%d: DegeneracyFast = %d, reference Degeneracy = %d",
					class, n, got, want)
			}
		}
	}
	if d := DegeneracyFast(graph.NewBuilder(0, 0).Build()); d != 0 {
		t.Fatalf("zero-vertex graph: DegeneracyFast = %d, want 0", d)
	}
	// A triangle with a pendant vertex: degeneracy 2, max degree 3.
	b := graph.NewBuilder(4, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	if d := DegeneracyFast(b.Build()); d != 2 {
		t.Fatalf("triangle+pendant: DegeneracyFast = %d, want 2", d)
	}
}

// TestWColOnForests: under the smallest-last order, wcol_1 of a forest is
// its degeneracy (1), and the star has wcol_r = 1 for all r (only the hub
// is accessed).
func TestWColOnForests(t *testing.T) {
	star := gen.Generate(gen.Star, 100, gen.Options{})
	order := DegeneracyOrder(star)
	if w := WCol(star, order, 1); w != 1 {
		t.Fatalf("star wcol_1 = %d, want 1", w)
	}
	// For r ≥ 2 every leaf also weakly reaches the smallest leaf through
	// the hub, so wcol_r = 2 — still a constant, as bounded expansion
	// demands.
	for r := 2; r <= 3; r++ {
		if w := WCol(star, order, r); w != 2 {
			t.Fatalf("star wcol_%d = %d, want 2", r, w)
		}
	}
	tree := gen.Generate(gen.RandomTree, 200, gen.Options{Seed: 4})
	order = DegeneracyOrder(tree)
	if w := WCol(tree, order, 1); w != 1 {
		t.Fatalf("tree wcol_1 = %d, want 1", w)
	}
}

// TestWColSeparatesSparseFromDense: the paper's §2 characterization
// (EXPERIMENTS.md E13) at n = 500 and 4 000 — wcol_2 is a constant on
// every nowhere dense class (it grows by at most 2 over the two sizes) and
// explodes on the dense control; the log shows subclique between the two.
// The clique is left out: its wcol_2 is n − 1. gen.Classes lists the
// nowhere dense classes first, so sparseMax is complete at the control.
func TestWColSeparatesSparseFromDense(t *testing.T) {
	small := map[gen.Class]int{}
	for _, n := range []int{500, 4000} {
		sparseMax := 0
		for _, class := range gen.Classes {
			if class == gen.Clique {
				continue
			}
			g := gen.Generate(class, n, gen.Options{Seed: 6})
			w := WCol(g, DegeneracyOrder(g), 2)
			t.Logf("%s: wcol_2 = %d at n = %d", class, w, g.N())
			if gen.NowhereDense(class) {
				sparseMax = max(sparseMax, w)
				if s, ok := small[class]; ok && w > s+2 {
					t.Errorf("%s: wcol_2 grew from %d to %d", class, s, w)
				}
			} else if class == gen.DenseRandom && w <= 2*sparseMax {
				t.Errorf("n = %d: dense wcol_2 = %d not well above sparse max %d", n, w, sparseMax)
			}
			small[class] = w
		}
	}
}
