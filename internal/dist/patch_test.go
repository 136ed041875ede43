package dist

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func randomEdgeEdits(rng *rand.Rand, g *graph.Graph, count int) ([]graph.Edit, []graph.V) {
	edits := make([]graph.Edit, 0, count)
	var srcs []graph.V
	seen := map[graph.V]bool{}
	for len(edits) < count {
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
	return edits, srcs
}

// TestPatchDifferential: a patched index answers Within exactly like a
// fresh build on the edited graph, across classes, radii, and edit sizes.
func TestPatchDifferential(t *testing.T) {
	for _, class := range []gen.Class{gen.Path, gen.Grid, gen.RandomTree, gen.BoundedDegree, gen.SparseRandom} {
		for _, r := range []int{2, 4} {
			g := gen.Generate(class, 400, gen.Options{Seed: 7})
			ix := New(g, r, Options{})
			rng := rand.New(rand.NewSource(int64(r) * 31))
			edits, srcs := randomEdgeEdits(rng, g, 1+rng.Intn(5))
			gNew, err := graph.Patch(g, edits)
			if err != nil {
				t.Fatal(err)
			}
			patched, ok := Patch(ix, g, gNew, srcs)
			if !ok {
				// Layout not patchable (recursive splitter etc.) — the
				// caller rebuilds; nothing to differential-test.
				continue
			}
			bfs := graph.NewBFS(gNew)
			for q := 0; q < 2000; q++ {
				a, b := rng.Intn(g.N()), rng.Intn(g.N())
				rr := 1 + rng.Intn(r)
				want := bfs.Distance(a, b, rr) >= 0
				if got := patched.Within(a, b, rr); got != want {
					t.Fatalf("%s r=%d: patched Within(%d,%d,%d)=%v want %v",
						class, r, a, b, rr, got, want)
				}
			}
		}
	}
}

// TestPatchSmallTableByteIdentical: when both the original and the edited
// graph sit in the smallTable regime, the spliced CSR rows must be
// byte-identical to a from-scratch newSmallTable — the property that makes
// patched and rebuilt indexes indistinguishable downstream.
func TestPatchSmallTableByteIdentical(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 3})
	r := 3
	ix := New(g, r, Options{})
	if ix.small == nil {
		t.Skip("grid did not take the smallTable layout")
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		edits, srcs := randomEdgeEdits(rng, g, 1+rng.Intn(4))
		gNew, err := graph.Patch(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		patched, ok := Patch(ix, g, gNew, srcs)
		if !ok {
			t.Fatalf("trial %d: small-table patch refused", trial)
		}
		want := newSmallTable(gNew, r, par.Sequential())
		if !reflect.DeepEqual(nodeParts(patched), nodeParts(&Index{small: want})) {
			t.Fatalf("trial %d: patched table differs from rebuilt table", trial)
		}
		if got, fresh := patched.Stats(), New(gNew, r, Options{}).Stats(); got != fresh {
			t.Fatalf("trial %d: patched index reports %+v, a build of the same graph %+v", trial, got, fresh)
		}
	}
}

// TestPatchColorOnlyShares: a batch with no edge endpoints shares the
// table outright.
func TestPatchColorOnlyShares(t *testing.T) {
	g := gen.Generate(gen.Grid, 200, gen.Options{Seed: 5, Colors: 1})
	ix := New(g, 2, Options{})
	if ix.small == nil {
		t.Skip("needs the smallTable layout")
	}
	gNew, err := graph.Patch(g, []graph.Edit{{Op: graph.AddColor, U: 3, Color: 0}})
	if err != nil {
		t.Fatal(err)
	}
	patched, ok := Patch(ix, g, gNew, nil)
	if !ok {
		t.Fatal("color-only patch refused")
	}
	if patched.small != ix.small {
		t.Fatal("color-only patch rebuilt the distance table")
	}
}

// TestPatchBailouts: layout transitions and avalanche edits refuse to
// patch instead of guessing.
func TestPatchBailouts(t *testing.T) {
	// Edgeless gaining an edge is a layout transition.
	empty := graph.NewBuilder(10, 0).Build()
	ix := New(empty, 2, Options{})
	gNew, err := graph.Patch(empty, []graph.Edit{{Op: graph.AddEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Patch(ix, empty, gNew, []graph.V{0, 1}); ok {
		t.Fatal("edgeless→edged transition should refuse to patch")
	}
	// Removing the only edge keeps edgeless patchable.
	gBack, err := graph.Patch(gNew, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix2 := New(gNew, 2, Options{})
	if ix2.small == nil {
		t.Skip("tiny graph did not take the smallTable layout")
	}
	if p, ok := Patch(ix2, gNew, gBack, []graph.V{0, 1}); !ok {
		t.Fatal("edge removal on smallTable should patch")
	} else if p.Within(0, 1, 2) {
		t.Fatal("removed edge still within distance 2")
	}
}
