// Tests of the constructions against the reference ones of reference_test.go:
// equal through Parts on every generator class, and allocations that do not
// grow with the graph or the vertex set.
package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sameParts reports where two graphs differ through Parts, "" if nowhere.
func sameParts(a, b *graph.Graph) string {
	pa, pb := a.Parts(), b.Parts()
	switch {
	case pa.N != pb.N || pa.NColors != pb.NColors:
		return fmt.Sprintf("n, colors (%d, %d) vs (%d, %d)", pa.N, pa.NColors, pb.N, pb.NColors)
	case !slices.Equal(pa.Off, pb.Off) || !slices.Equal(pa.Adj, pb.Adj):
		return "adjacency"
	case !slices.Equal(pa.ColorOff, pb.ColorOff) || !slices.Equal(pa.ColorWords, pb.ColorWords):
		return "colors"
	}
	return ""
}

// edgeStream is an input for a Builder: g's edges in a shuffled order, each
// in a random direction, about one in eight twice, with self-loops, and g's
// colours shuffled, some twice.
type edgeStream struct {
	n, ncol int
	edges   [][2]graph.V
	colors  [][2]int
}

func streamOf(g *graph.Graph, rng *rand.Rand) edgeStream {
	s := edgeStream{n: g.N(), ncol: g.NumColors()}
	for v := range g.N() {
		for _, w := range g.Neighbors(v) {
			if v < int(w) {
				e := [2]graph.V{v, int(w)}
				if rng.Intn(2) == 0 {
					e[0], e[1] = e[1], e[0]
				}
				s.edges = append(s.edges, e)
				if rng.Intn(8) == 0 {
					s.edges = append(s.edges, [2]graph.V{e[1], e[0]})
				}
			}
		}
		if rng.Intn(16) == 0 {
			s.edges = append(s.edges, [2]graph.V{v, v})
		}
		for c := range g.NumColors() {
			if g.HasColor(v, c) {
				s.colors = append(s.colors, [2]int{v, c})
				if rng.Intn(4) == 0 {
					s.colors = append(s.colors, [2]int{v, c})
				}
			}
		}
	}
	rng.Shuffle(len(s.edges), func(i, j int) { s.edges[i], s.edges[j] = s.edges[j], s.edges[i] })
	rng.Shuffle(len(s.colors), func(i, j int) { s.colors[i], s.colors[j] = s.colors[j], s.colors[i] })
	return s
}

// builder is what Builder and the reference builder have in common.
type builder interface {
	AddEdge(u, v graph.V)
	SetColor(v graph.V, c graph.Color)
	Build() *graph.Graph
}

func (s edgeStream) feed(b builder) *graph.Graph {
	for _, e := range s.edges {
		b.AddEdge(e[0], e[1])
	}
	for _, c := range s.colors {
		b.SetColor(c[0], c[1])
	}
	return b.Build()
}

// TestBuildMatchesReference: Build equals the reference on every generator
// class, seeds 1–3 and 0, 2 and 65 colours, fed in a shuffled order with
// duplicate edges, self-loops and colours set twice — and both equal the
// generated graph.
func TestBuildMatchesReference(t *testing.T) {
	for _, class := range gen.Classes {
		for seed := int64(1); seed <= 3; seed++ {
			for _, ncol := range []int{0, 2, 65} {
				g := gen.Generate(class, 300, gen.Options{Seed: seed, Colors: ncol})
				s := streamOf(g, rand.New(rand.NewSource(seed)))
				got := s.feed(graph.NewBuilder(s.n, s.ncol))
				want := s.feed(graph.NewRefBuilder(s.n, s.ncol))
				if d := sameParts(got, want); d != "" {
					t.Fatalf("%s seed %d, %d colours: Build differs from the reference in %s", class, seed, ncol, d)
				}
				if d := sameParts(got, g); d != "" {
					t.Fatalf("%s seed %d, %d colours: Build of the generated edges differs from the generated graph in %s", class, seed, ncol, d)
				}
				if got.M() != want.M() || got.MaxDegree() != want.MaxDegree() {
					t.Fatalf("%s seed %d: m %d, max degree %d; the reference %d, %d", class, seed, got.M(), got.MaxDegree(), want.M(), want.MaxDegree())
				}
			}
		}
	}
	for _, s := range []edgeStream{
		{},
		{n: 1, ncol: 2, edges: [][2]graph.V{{0, 0}}, colors: [][2]int{{0, 1}}},
		{n: 3, edges: [][2]graph.V{{0, 0}, {1, 1}, {2, 2}}},
		{n: 200, ncol: 65, colors: [][2]int{{199, 64}, {0, 0}, {100, 63}}},
		{n: 65, edges: [][2]graph.V{{0, 64}, {64, 0}, {0, 64}, {3, 4}, {4, 3}}},
	} {
		if d := sameParts(s.feed(graph.NewBuilder(s.n, s.ncol)), s.feed(graph.NewRefBuilder(s.n, s.ncol))); d != "" {
			t.Fatalf("n=%d, %d edges: Build differs from the reference in %s", s.n, len(s.edges), d)
		}
	}
}

// subjects are the graphs the Induce, RemoveVertex and AddColors tests run
// on: two with a hub (star, partial k-tree), a grid, a clique, with 0, 2 and
// 65 colours, and a patched grid whose rows and colour pages are no longer
// views of one array.
func subjects(t *testing.T) map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, class := range []gen.Class{gen.Star, gen.PartialKTree, gen.Grid, gen.Clique} {
		for _, ncol := range []int{0, 2, 65} {
			out[fmt.Sprintf("%s/%d", class, ncol)] = gen.Generate(class, 600, gen.Options{Seed: 2, Colors: ncol})
		}
	}
	grid := gen.Generate(gen.Grid, 600, gen.Options{Seed: 2, Colors: 65})
	var edits []graph.Edit
	for v := 0; v < grid.N(); v += 37 {
		edits = append(edits,
			graph.Edit{Op: graph.AddEdge, U: v, V: (v * 7) % grid.N()},
			graph.Edit{Op: graph.AddColor, U: v, Color: 64},
			graph.Edit{Op: graph.RemoveColor, U: (v + 1) % grid.N(), Color: 0})
	}
	patched, err := graph.Patch(grid, edits)
	if err != nil {
		t.Fatal(err)
	}
	out["grid/65/patched"] = patched
	return out
}

// hubOf returns a vertex of maximum degree.
func hubOf(g *graph.Graph) graph.V {
	hub := 0
	for v := range g.N() {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return hub
}

// TestInduceMatchesReference: Induce equals the reference on the empty set,
// the whole set given shuffled with duplicates (which shares g), random
// sets with duplicates in any order, ascending sets, and small sets holding
// the hub, whose row is longer than the set.
func TestInduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range subjects(t) {
		n, hub := g.N(), hubOf(g)
		all := rng.Perm(n)
		sets := [][]graph.V{nil, {}, append(all, all[:n/3]...), {hub}}
		for _, size := range []int{1, 3, 20, n / 4, n - 1} {
			random := make([]graph.V, size)
			for i := range random {
				random[i] = rng.Intn(n)
			}
			ascending := slices.Clone(random)
			slices.Sort(ascending)
			ascending = slices.Compact(ascending)
			withHub := append(slices.Clone(random[:min(size, 5)]), hub, hub)
			sets = append(sets, random, ascending, withHub)
		}
		for _, vs := range sets {
			got, want := graph.Induce(g, vs), graph.RefInduce(g, vs)
			if !slices.Equal(got.Orig, want.Orig) {
				t.Fatalf("%s: Induce of %d vertices: Orig %v, the reference %v", name, len(vs), got.Orig, want.Orig)
			}
			if d := sameParts(got.G, want.G); d != "" {
				t.Fatalf("%s: Induce of %d vertices differs from the reference in %s", name, len(vs), d)
			}
			if len(got.Orig) == n && got.G != g {
				t.Fatalf("%s: Induce of the whole set copied the graph", name)
			}
		}
	}
}

// TestRemoveVertexMatchesReference: RemoveVertex equals the reference — the
// Induce of every other vertex — for the first and last vertex, the hub and
// random ones.
func TestRemoveVertexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, g := range subjects(t) {
		for _, s := range []graph.V{0, g.N() - 1, hubOf(g), rng.Intn(g.N()), rng.Intn(g.N())} {
			got, want := graph.RemoveVertex(g, s), graph.RefRemoveVertex(g, s)
			if !slices.Equal(got.Orig, want.Orig) {
				t.Fatalf("%s: RemoveVertex(%d): Orig differs from the reference", name, s)
			}
			if d := sameParts(got.G, want.G); d != "" {
				t.Fatalf("%s: RemoveVertex(%d) differs from the reference in %s", name, s, d)
			}
		}
	}
}

// TestAddColorsMatchesReference: AddColors equals the reference with no
// class, with classes holding duplicates, and with enough classes to widen
// a vertex's colour words; the copy shares g's rows and leaves g as it was.
func TestAddColorsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range subjects(t) {
		before := g.Parts()
		for _, k := range []int{0, 1, 3, 64} {
			classes := make([][]graph.V, k)
			for i := range classes {
				for range rng.Intn(g.N() / 4) {
					classes[i] = append(classes[i], rng.Intn(g.N()))
				}
			}
			got, want := graph.AddColors(g, classes...), graph.RefAddColors(g, classes...)
			if d := sameParts(got, want); d != "" {
				t.Fatalf("%s: AddColors of %d classes differs from the reference in %s", name, k, d)
			}
			if got.MaxDegree() != want.MaxDegree() {
				t.Fatalf("%s: AddColors carries maximum degree %d, the reference %d", name, got.MaxDegree(), want.MaxDegree())
			}
			if g.N() > 0 && g.Degree(0) > 0 && &got.Neighbors(0)[0] != &g.Neighbors(0)[0] {
				t.Fatalf("%s: AddColors copied the rows", name)
			}
		}
		if after := g.Parts(); !slices.Equal(before.ColorWords, after.ColorWords) || !slices.Equal(before.ColorOff, after.ColorOff) {
			t.Fatalf("%s: AddColors wrote the colours of its argument", name)
		}
	}
}

// TestBuilderAllocs: Build allocates the same few objects on grid-4k as on
// grid-32k — the row arrays and the graph — where a
// comparison sort a row and a map of colours allocated 82 629 times at 32k.
func TestBuilderAllocs(t *testing.T) {
	const runs = 3
	allocs := map[int]float64{}
	for _, n := range []int{4000, 32000} {
		s := streamOf(gen.Generate(gen.Grid, n, gen.Options{Seed: 1, Colors: 2}), rand.New(rand.NewSource(1)))
		builders := make([]*graph.Builder, runs+1)
		for i := range builders {
			builders[i] = graph.NewBuilder(s.n, s.ncol)
			for _, e := range s.edges {
				builders[i].AddEdge(e[0], e[1])
			}
			for _, c := range s.colors {
				builders[i].SetColor(c[0], c[1])
			}
		}
		i := 0
		allocs[n] = testing.AllocsPerRun(runs, func() {
			builders[i].Build()
			i++
		})
	}
	t.Logf("Build allocates %v times on grid-4k, %v on grid-32k", allocs[4000], allocs[32000])
	if allocs[4000] != allocs[32000] || allocs[32000] > 5 {
		t.Fatalf("Build allocates %v times on grid-4k and %v on grid-32k, want one constant ≤ 5", allocs[4000], allocs[32000])
	}
}

// TestInduceAllocs: Induce on grid-32k allocates a constant that does not
// depend on |B| — the position scratch is borrowed, the rows are gathered
// in borrowed scratch and copied out once. B is a run of consecutive
// vertices, shuffled, so that G[B] has edges to copy at every size.
func TestInduceAllocs(t *testing.T) {
	g := gen.Generate(gen.Grid, 32000, gen.Options{Seed: 1, Colors: 2})
	rng := rand.New(rand.NewSource(1))
	allocs := map[int]float64{}
	for _, size := range []int{100, 1000, 10000, 31000} {
		from := rng.Intn(g.N() - size)
		vs := make([]graph.V, size)
		for i, j := range rng.Perm(size) {
			vs[i] = from + j
		}
		allocs[size] = testing.AllocsPerRun(5, func() { graph.Induce(g, vs) })
	}
	t.Logf("Induce allocates %v", allocs)
	for size, a := range allocs {
		if a != allocs[100] || a > 6 {
			t.Fatalf("Induce allocates %v times for |B| = %d and %v for |B| = 100, want one constant ≤ 6", a, size, allocs[100])
		}
	}
}
