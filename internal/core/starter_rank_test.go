package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// checkStarterRank asserts that every component's starter set is its
// starter list: Rank(x) is sort.Search over the list for every x in
// [−1, n], and Has(v) is membership in it.
func checkStarterRank(t *testing.T, what string, e *Engine) {
	t.Helper()
	n := e.g.N()
	for ci, rt := range e.clauses {
		for j, c := range rt.comps {
			if c.inStart.Len() != n || c.inStart.Count() != len(c.starter) {
				t.Fatalf("%s: clause %d component %d: a set of %d of %d vertices for a list of %d over %d",
					what, ci, j, c.inStart.Count(), c.inStart.Len(), len(c.starter), n)
			}
			for x := -1; x <= n; x++ {
				want := sort.Search(len(c.starter), func(i int) bool { return c.starter[i] >= x })
				if got := c.inStart.Rank(x); got != want {
					t.Fatalf("%s: clause %d component %d: Rank(%d) = %d, want %d", what, ci, j, x, got, want)
				}
				if x < 0 || x == n {
					continue
				}
				if in := want < len(c.starter) && c.starter[want] == x; c.inStart.Has(x) != in {
					t.Fatalf("%s: clause %d component %d: Has(%d) = %v, the list says %v", what, ci, j, x, !in, in)
				}
			}
		}
	}
}

// TestStarterRank: the starter set answers Case I's "first starter ≥ x" and
// a singleton's "is v a starter" exactly as the sorted list does, on every
// component of far2, near2 and far3 over four classes and both localities —
// built, restored from a snapshot, and after each of 200 writes (40 under
// -short) that move starters into and out of the lists: a write flips bits
// of its predecessor's set and moves the word counts behind them. (Page
// counts need sets of more than a page; TestRankSetVersions in
// internal/graph flips those.)
func TestStarterRank(t *testing.T) {
	ctx := context.Background()
	writes := 200
	if testing.Short() {
		writes = 40 // the -race run: every configuration still flips both ways
	}
	queries := []struct {
		name, src string
		vars      []fo.Var
	}{
		{"far2", "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}},
		{"near2", "dist(x,y) <= 2 & C0(x) & C1(y)", []fo.Var{"x", "y"}},
		{"far3", far3, []fo.Var{"x", "y", "z"}},
	}
	graphs := []struct {
		class gen.Class
		n     int
	}{{gen.Grid, 625}, {gen.BoundedDegree, 600}, {gen.Star, 200}, {gen.PartialKTree, 200}}
	locs := []struct {
		name  string
		build func(*graph.Graph, *LocalQuery, Options) (*Engine, error)
	}{{"cover", Preprocess}, {"balls", PreprocessBalls}}
	for _, gc := range graphs {
		t.Run(string(gc.class), func(t *testing.T) {
			t.Parallel()
			g := gen.Generate(gc.class, gc.n, gen.Options{Seed: 2, Colors: 2, Degree: 4})
			for _, qc := range queries {
				q := compileT(t, qc.src, qc.vars...)
				for _, loc := range locs {
					what := string(gc.class) + "/" + qc.name + "/" + loc.name
					e, err := loc.build(g, q, Options{Parallelism: 2})
					if err != nil {
						t.Fatal(err)
					}
					checkStarterRank(t, what+" built", e)
					r, err := RestoreEngine(g, q, e.SnapshotParts(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					checkStarterRank(t, what+" restored", r)

					rng := rand.New(rand.NewSource(int64(gc.n)))
					added, removed := 0, 0
					for i := 0; i < writes; i++ {
						e2, err := e.ApplyEdits(ctx, starterWrite(rng, e.g))
						if err != nil {
							t.Fatal(err)
						}
						for ci, rt := range e2.clauses {
							for j, c := range rt.comps {
								old := e.clauses[ci].comps[j]
								added += max(len(c.starter)-len(old.starter), 0)
								removed += max(len(old.starter)-len(c.starter), 0)
							}
						}
						checkStarterRank(t, what+" written", e2)
						e = e2
					}
					if added == 0 || removed == 0 {
						t.Fatalf("%s: %d writes added %d starters and removed %d; the test needs both", what, writes, added, removed)
					}
				}
			}
		})
	}
}

// starterWrite recolours a vertex in both colours and toggles an edge at
// another one: singleton starters move with the colours, partner rows and
// distances with the edge.
func starterWrite(rng *rand.Rand, g *graph.Graph) []graph.Edit {
	v, u := rng.Intn(g.N()), rng.Intn(g.N())
	edits := []graph.Edit{}
	for c := 0; c < 2; c++ {
		op := graph.AddColor
		if g.HasColor(v, c) {
			op = graph.RemoveColor
		}
		edits = append(edits, graph.Edit{Op: op, U: v, Color: c})
	}
	if w := rng.Intn(g.N()); w != u && g.HasEdge(u, w) {
		edits = append(edits, graph.Edit{Op: graph.RemoveEdge, U: u, V: w})
	} else if g.Degree(u) > 0 {
		nb := g.Neighbors(u)
		w := int(nb[rng.Intn(len(nb))])
		for _, x := range g.Neighbors(w) {
			if int(x) != u && !g.HasEdge(u, int(x)) {
				edits = append(edits, graph.Edit{Op: graph.AddEdge, U: u, V: int(x)})
				break
			}
		}
	}
	return edits
}
