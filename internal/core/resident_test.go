package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestResidentCover: every cover an engine holds, built or restored, holds
// only what its readers read — the answer path's cover bags, centers,
// assignment, kernels and kernelOf, the distance recursion's bags, centers
// and assignment — and no memberOf; the first edge write derives memberOf
// on the cover it patches. far2 on ktree-8k, where the distance index
// recurses.
func TestResidentCover(t *testing.T) {
	g := gen.Generate(gen.PartialKTree, 8000, gen.Options{Seed: 1, Colors: 1})
	far2, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Preprocess(g, far2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreEngine(g, e.Query(), e.SnapshotParts(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := func(c *cover.Cover) []string {
		var out []string
		for _, st := range c.Resident() {
			out = append(out, st.Name)
		}
		return out
	}
	answer := []string{"bags", "kernels", "kernelOf", "assign"}
	recursion := []string{"bags", "assign"}
	for _, tc := range []struct {
		what string
		e    *core.Engine
	}{{"built", e}, {"restored", restored}} {
		covers := tc.e.Covers()
		if len(covers) < 2 {
			t.Fatalf("%s: premise: the distance index recurses, but the engine holds %d cover(s)", tc.what, len(covers))
		}
		for i, c := range covers {
			want := recursion
			if i == 0 {
				want = answer
			}
			if got := names(c); !slices.Equal(got, want) {
				t.Fatalf("%s: cover %d of %d holds %v, want %v", tc.what, i, len(covers), got, want)
			}
		}
	}

	// An edit on ktree reaches more than an eighth of the graph and is
	// rebuilt; on a grid it is patched.
	gridG := gen.Generate(gen.Grid, 900, gen.Options{Seed: 1, Colors: 1})
	if e, err = core.Preprocess(gridG, far2, core.Options{}); err != nil {
		t.Fatal(err)
	}
	e2, err := e.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().MutRebuilds != 0 {
		t.Fatal("premise: the edit is patched")
	}
	if got, want := names(e2.Covers()[0]), append(answer, "memberOf"); !slices.Equal(got, want) {
		t.Fatalf("the patched cover holds %v, want %v", got, want)
	}
	if got := names(e.Covers()[0]); !slices.Equal(got, answer) {
		t.Fatalf("a write left memberOf on the cover it patched: %v", got)
	}
}
