package conform_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowdeg"
)

// compileCase compiles a conformance case's query into the decomposed
// LocalQuery both engines consume.
func compileCase(t *testing.T, c conform.Case) *core.LocalQuery {
	t.Helper()
	phi := fo.MustParse(c.Query)
	vars := make([]fo.Var, len(c.Vars))
	for i, v := range c.Vars {
		vars[i] = fo.Var(v)
	}
	q, err := core.Compile(phi, vars, core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", c.Name, err)
	}
	return q
}

// systems builds the three engines for one (graph, query) instance and
// wraps them for the conformance checks.
func systems(t *testing.T, g *graph.Graph, q *core.LocalQuery, name string) ([]conform.System, *conform.NaiveEngine) {
	t.Helper()
	ce, err := core.Preprocess(g, q, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: core preprocess: %v", name, err)
	}
	le, err := lowdeg.Preprocess(g, q, lowdeg.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: lowdeg preprocess: %v", name, err)
	}
	ne := conform.NewNaive(g, q)
	return []conform.System{
		{Name: name + "/core", Engine: ce, K: q.K, N: g.N(),
			NewCursor: func(a []graph.V) conform.Cursor { return ce.IteratorFrom(a) }},
		{Name: name + "/lowdeg", Engine: le, K: q.K, N: g.N(),
			NewCursor: func(a []graph.V) conform.Cursor { return le.IteratorFrom(a) }},
		{Name: name + "/naive", Engine: ne, K: q.K, N: g.N(), NewCursor: ne.Cursor},
	}, ne
}

// TestCrossEngineBattery is the headline differential battery: every
// conformance case is answered by the core engine, the lowdeg engine and
// the naive oracle, and all three must agree on every face of the
// contract (enumeration order, NextGeq resume points, Test membership,
// counts, cursor paging, NextLast).
func TestCrossEngineBattery(t *testing.T) {
	for _, c := range conform.Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			g := c.Graph()
			q := compileCase(t, c)
			syss, ne := systems(t, g, q, c.Name)
			want := ne.Solutions()
			if c.Empty && len(want) != 0 {
				t.Fatalf("case %s marked Empty but the oracle found %d solutions", c.Name, len(want))
			}
			if !c.Empty && len(want) == 0 {
				t.Fatalf("case %s has an empty answer set; it exercises nothing", c.Name)
			}
			for _, sys := range syss {
				if err := conform.CheckAll(sys, want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCrossEngineMutation drives the same edit batch through each
// engine's mutation path — core's incremental ApplyEdits, lowdeg's
// documented rebuild fallback — and checks both against the oracle on
// the patched graph.
func TestCrossEngineMutation(t *testing.T) {
	for _, c := range conform.Cases()[:4] {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			g := c.Graph()
			q := compileCase(t, c)
			ce, err := core.Preprocess(g, q, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			le, err := lowdeg.Preprocess(g, q, lowdeg.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			edits := []graph.Edit{
				{Op: graph.AddEdge, U: 0, V: g.N() / 2},
				{Op: graph.RemoveEdge, U: 0, V: 1},
				{Op: graph.AddColor, U: g.N() - 1, Color: 0},
			}
			g2, err := graph.Patch(g, edits)
			if err != nil {
				t.Fatal(err)
			}
			ce2, err := ce.ApplyEdits(context.Background(), edits)
			if err != nil {
				t.Fatalf("core ApplyEdits: %v", err)
			}
			le2, err := le.ApplyEdits(context.Background(), edits)
			if err != nil {
				t.Fatalf("lowdeg ApplyEdits: %v", err)
			}
			if le2 == le {
				t.Fatal("lowdeg ApplyEdits returned the same engine for a non-identity batch")
			}
			want := conform.NewNaive(g2, q).Solutions()
			for _, sys := range []conform.System{
				{Name: c.Name + "/core+edits", Engine: ce2, K: q.K, N: g2.N(),
					NewCursor: func(a []graph.V) conform.Cursor { return ce2.IteratorFrom(a) }},
				{Name: c.Name + "/lowdeg+edits", Engine: le2, K: q.K, N: g2.N(),
					NewCursor: func(a []graph.V) conform.Cursor { return le2.IteratorFrom(a) }},
			} {
				if err := conform.CheckAll(sys, want); err != nil {
					t.Error(err)
				}
			}
			// An edit batch that nets out to the identity must return the
			// lowdeg receiver unchanged (graph.Equal, not fingerprints).
			undo := []graph.Edit{
				{Op: graph.AddEdge, U: 2, V: 4},
				{Op: graph.RemoveEdge, U: 2, V: 4},
			}
			if g.HasEdge(2, 4) {
				undo = []graph.Edit{
					{Op: graph.RemoveEdge, U: 2, V: 4},
					{Op: graph.AddEdge, U: 2, V: 4},
				}
			}
			le3, err := le.ApplyEdits(context.Background(), undo)
			if err != nil {
				t.Fatal(err)
			}
			if le3 != le {
				t.Error("lowdeg ApplyEdits rebuilt for an identity batch")
			}
		})
	}
}

// TestSkipPlanCases runs the two cases that ask skip pointers at a set size
// other than arity − 1 — four far positions over two lists, and a pair that
// opens behind a singleton — through every state an engine answers in: built,
// patched by ApplyEdits, restored from the patched engine's parts; over both
// localities, each against the oracle on its own graph.
func TestSkipPlanCases(t *testing.T) {
	ran := 0
	for _, c := range conform.Cases() {
		if c.Name != "grid-far4" && c.Name != "grid-far-then-pair" {
			continue
		}
		ran++
		// Every starter list changes. The ternary case runs on a grid large
		// enough for its cover to take an edge edit without an avalanche — a
		// rebuild, which tests nothing here; far4, whose oracle tries n⁴
		// tuples, stays small and gets colour edits only.
		edits := []graph.Edit{{Op: graph.AddColor, U: 2, Color: 0}, {Op: graph.RemoveColor, U: 15, Color: 0}, {Op: graph.AddColor, U: 9, Color: 1}}
		if len(c.Vars) == 3 {
			c.N = 81
			edits = append(edits, graph.Edit{Op: graph.RemoveEdge, U: 0, V: 1})
		}
		g, q := c.Graph(), compileCase(t, c)
		gNew, err := graph.Patch(g, edits)
		if err != nil {
			t.Fatal(err)
		}
		want := map[bool][][]graph.V{false: conform.NewNaive(g, q).Solutions(), true: conform.NewNaive(gNew, q).Solutions()}
		if len(want[false]) == 0 || len(want[true]) == 0 || len(want[false]) == len(want[true]) {
			t.Fatalf("%s: %d answers before the edits, %d after; the case exercises nothing", c.Name, len(want[false]), len(want[true]))
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
				t.Fatalf("%s/%s: the batch was rebuilt, not patched: %+v", c.Name, loc, st)
			}
			restored, err := core.RestoreEngine(patched.Graph(), q, patched.SnapshotParts(), core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, loc, err)
			}
			for state, e := range map[string]*core.Engine{"built": built, "patched": patched, "restored": restored} {
				sys := conform.System{
					Name: c.Name + "/" + loc + "/" + state, Engine: e, K: q.K, N: g.N(),
					NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) },
				}
				if err := conform.CheckAll(sys, want[e != built]); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if ran != 2 {
		t.Fatalf("%d of the two cases are in conform.Cases()", ran)
	}
}

// TestCrossEngineHandBuilt runs one hand-built, uncertified LocalQuery —
// the literal G[N_ρ(ā_I)] semantics, which no compiled case reaches —
// through both localities and the oracle. Its quantifiers are unguarded
// ("some other C1 vertex is within ρ of the close pair", "no other C1
// vertex is within ρ of y"), and the last conjunct measures a distance
// inside the induced ball: on the 6-cycle the two vertices at distance 2
// from y are 2 apart in G (through y's antipode) but 4 apart in G[N_2(y)],
// so an engine that served that atom from the whole graph would lose every
// far answer there.
func TestCrossEngineHandBuilt(t *testing.T) {
	closeT, farT := fo.NewDistType(2), fo.NewDistType(2)
	closeT.SetClose(0, 1)
	cl1, err := core.MakeClause(closeT, fo.MustParse("~(x0 = x1) & exists z (C1(z) & ~(z = x0) & ~(z = x1))"))
	if err != nil {
		t.Fatal(err)
	}
	cl2, err := core.MakeClause(farT, fo.MustParse("C0(x0)"), fo.MustParse(
		"forall z (z = x1 | ~C1(z)) & ~exists z exists w (~(z = w) & dist(x1,z) > 1 & dist(x1,w) > 1 & dist(z,w) <= 2)"))
	if err != nil {
		t.Fatal(err)
	}
	q := &core.LocalQuery{K: 2, R: 1, LocalRadius: 2, Clauses: []core.Clause{cl1, cl2}}
	for _, gc := range []struct {
		class gen.Class
		n     int
	}{{gen.BoundedDegree, 36}, {gen.Grid, 36}, {gen.Cycle, 6}} {
		g := gen.Generate(gc.class, gc.n, gen.Options{Seed: 4, Colors: 2, ColorProb: 0.3})
		syss, ne := systems(t, g, q, "handbuilt-"+string(gc.class))
		want := ne.Solutions()
		if len(want) == 0 || len(want) == g.N()*g.N() {
			t.Fatalf("%s: %d answers of %d tuples; the case exercises nothing", gc.class, len(want), g.N()*g.N())
		}
		for _, sys := range syss {
			if err := conform.CheckAll(sys, want); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestBallArityPastFrameSlots holds the ball locality to the oracle on a
// query of arity 6: its Case I walks the R-rows of as many prefix elements
// as a frame has slots (skip.MaxSetSize, four) and must test the fifth by a
// distance lookup, not walk past the frame. The cover locality refuses this
// arity, so only the ball build answers.
func TestBallArityPastFrameSlots(t *testing.T) {
	const k = 6
	vars := make([]fo.Var, k)
	var atoms []string
	for i := range vars {
		vars[i] = fo.Var(fmt.Sprintf("x%d", i+1))
		for j := 0; j < i; j++ {
			atoms = append(atoms, fmt.Sprintf("dist(%s,%s) > 1", vars[j], vars[i]))
		}
	}
	q, err := core.Compile(fo.MustParse(strings.Join(atoms, " & ")), vars, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle tries all n⁶ tuples: a second apiece at these sizes.
	for _, gc := range []struct {
		class gen.Class
		n     int
	}{{gen.Path, 11}, {gen.BoundedDegree, 10}} {
		g := gen.Generate(gc.class, gc.n, gen.Options{Seed: 2, Colors: 1, Degree: 2})
		e, err := core.PreprocessBalls(g, q, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", gc.class, err)
		}
		want := conform.NewNaive(g, q).Solutions()
		if len(want) == 0 {
			t.Fatalf("%s: no answers; the case exercises nothing", gc.class)
		}
		sys := conform.System{Name: "far6-" + string(gc.class) + "/balls", Engine: e, K: k, N: g.N(),
			NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) }}
		if err := conform.CheckAll(sys, want); err != nil {
			t.Error(err)
		}
	}
}
