package core_test

import (
	"context"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSeekStepInterleaving runs conform.CheckSeekStep — Next after any Seek
// equals iterated NextGeq(successor) — on one reused iterator of every kind
// of engine a cursor can stand on: built, patched by ApplyEdits (the cover
// locality answering Case I through its skip overlay, the ball locality
// from spliced rows) and restored from the patched engine's parts; over
// both localities; for far2, far3, near2 and two ternary queries whose
// clauses mix a close pair with a far position, before it and between its
// two. The graph is larger than the
// conformance cases so that a write stays an overlay instead of a rebuild.
func TestSeekStepInterleaving(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 5, Colors: 2})
	edits := []graph.Edit{
		{Op: graph.RemoveEdge, U: 0, V: 1},
		{Op: graph.AddColor, U: 7, Color: 0},
		{Op: graph.RemoveColor, U: 200, Color: 0},
		{Op: graph.AddColor, U: 201, Color: 1},
	}
	for _, qc := range []struct {
		name, src string
		vars      []fo.Var
	}{
		{"far2", "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}},
		{"far3", "dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "y", "z"}},
		{"near2", "dist(x,y) <= 2 & C0(x) & C1(y)", []fo.Var{"x", "y"}},
		{"mixed3", "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "y", "z"}},
		// The pair's second position behind the far one: its partner row is
		// entered by seeks and by steps under a prefix of two components.
		{"mixed3-interleaved", "dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "z", "y"}},
	} {
		q, err := core.Compile(fo.MustParse(qc.src), qc.vars, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for loc, build := range map[string]func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error){
			"cover": core.Preprocess, "balls": core.PreprocessBalls,
		} {
			built, err := build(g, q, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			patched, err := built.ApplyEdits(context.Background(), edits)
			if err != nil {
				t.Fatal(err)
			}
			if st := patched.Stats(); st.Mutations != 1 || st.MutRebuilds != 0 {
				t.Fatalf("%s/%s: the batch was rebuilt, not patched: %+v", qc.name, loc, st)
			}
			// near2 is one component that stands first: no table to overlay.
			if loc == "cover" && built.Stats().SkipTables > 0 && patched.MaxSkipDelta() == 0 {
				t.Fatalf("%s/cover: no skip overlay after the batch; the patched row exercises nothing", qc.name)
			}
			restored, err := core.RestoreEngine(patched.Graph(), q, patched.SnapshotParts(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for state, e := range map[string]*core.Engine{"built": built, "patched": patched, "restored": restored} {
				sys := conform.System{
					Name: qc.name + "/" + loc + "/" + state, Engine: e, K: q.K, N: e.Graph().N(),
					NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) },
				}
				if err := conform.CheckSeekStep(sys, 19); err != nil {
					t.Error(err)
				}
			}
		}
	}
}
