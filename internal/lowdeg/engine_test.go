package lowdeg_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowdeg"
	"repro/internal/obs"
)

func compile(t testing.TB, query string, vars ...string) *core.LocalQuery {
	t.Helper()
	fv := make([]fo.Var, len(vars))
	for i, v := range vars {
		fv[i] = fo.Var(v)
	}
	q, err := core.Compile(fo.MustParse(query), fv, core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", query, err)
	}
	return q
}

// TestConformance runs every shared conformance case through the lowdeg
// engine alone (the three-way battery lives in internal/conform; this is
// the fast, package-local variant that -run-based debugging lands on).
func TestConformance(t *testing.T) {
	for _, c := range conform.Cases() {
		g := c.Graph()
		q := compile(t, c.Query, c.Vars...)
		e, err := lowdeg.Preprocess(g, q, lowdeg.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := conform.NewNaive(g, q).Solutions()
		sys := conform.System{
			Name: c.Name + "/lowdeg", Engine: e, K: q.K, N: g.N(),
			NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) },
		}
		if err := conform.CheckAll(sys, want); err != nil {
			t.Error(err)
		}
	}
}

// TestParallelBuildDeterminism: the engine must be identical for any
// worker count (per-vertex ball rows are worker-owned; starter lists are
// reassembled in vertex order).
func TestParallelBuildDeterminism(t *testing.T) {
	g := gen.Generate(gen.BoundedDegree, 200, gen.Options{Seed: 3, Colors: 2})
	q := compile(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	seq, err := lowdeg.Preprocess(g, q, lowdeg.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := lowdeg.Preprocess(g, q, lowdeg.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := conform.Materialize(seq), conform.Materialize(par)
	if len(a) != len(b) {
		t.Fatalf("worker counts disagree: %d vs %d solutions", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("solution %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
	ss, ps := seq.Stats(), par.Stats()
	if ss.BallEntries != ps.BallEntries || ss.CompEntries != ps.CompEntries {
		t.Fatalf("ball structure differs: %+v vs %+v", ss, ps)
	}
	if len(ss.StarterSizes) != len(ps.StarterSizes) {
		t.Fatalf("starter shapes differ: %v vs %v", ss.StarterSizes, ps.StarterSizes)
	}
	for i := range ss.StarterSizes {
		if ss.StarterSizes[i] != ps.StarterSizes[i] {
			t.Fatalf("starter %d differs: %v vs %v", i, ss.StarterSizes, ps.StarterSizes)
		}
	}
}

// TestPreprocessCancel: a canceled context aborts preprocessing.
func TestPreprocessCancel(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 1, Colors: 2})
	q := compile(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lowdeg.Preprocess(g, q, lowdeg.Options{Ctx: ctx}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestStatsAndExplain sanity-checks the introspection surfaces.
func TestStatsAndExplain(t *testing.T) {
	g := gen.Generate(gen.BoundedDegree, 120, gen.Options{Seed: 2, Colors: 2})
	q := compile(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	reg := obs.New()
	e, err := lowdeg.Preprocess(g, q, lowdeg.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BallEntries < g.N() || st.CompEntries != st.BallEntries || st.CoverBags != 0 {
		t.Fatalf("implausible ball stats: %+v", st)
	}
	if st.MaxDegree != g.MaxDegree() {
		t.Fatalf("MaxDegree = %d, want %d", st.MaxDegree, g.MaxDegree())
	}
	e.Count()
	if st = e.Stats(); st.Candidates == 0 {
		t.Fatal("enumeration recorded no candidates")
	}
	if e.Obs() != reg {
		t.Fatal("Obs registry not retained")
	}
	out := e.Explain()
	for _, frag := range []string{"balls: radius 2 (", "clause 0"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Explain output missing %q:\n%s", frag, out)
		}
	}
	if e.Graph() != g || e.Query() != q {
		t.Fatal("accessors lost the build inputs")
	}
}

// TestApplyEditsRebuild: edits that change the graph make a new engine — by
// patching the balls; the name is from when that was a rebuild —, a batch
// netting out to the identity returns the same engine, and the new engine
// answers for the patched graph.
func TestApplyEditsRebuild(t *testing.T) {
	g := gen.Generate(gen.Path, 40, gen.Options{Seed: 5, Colors: 2})
	q := compile(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	e, err := lowdeg.Preprocess(g, q, lowdeg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	edits := []graph.Edit{{Op: graph.AddEdge, U: 0, V: 20}}
	e2, err := e.ApplyEdits(context.Background(), edits)
	if err != nil {
		t.Fatal(err)
	}
	if e2 == e {
		t.Fatal("expected a new engine for a real edit")
	}
	g2, err := graph.Patch(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	want := conform.NewNaive(g2, q).Solutions()
	sys := conform.System{Name: "patched", Engine: e2, K: q.K, N: g2.N()}
	if err := conform.CheckEnumeration(sys, want); err != nil {
		t.Fatal(err)
	}
	// Add + remove the same edge: the patched graph equals the original,
	// so the engine must be returned unchanged (graph.Equal, not pointer
	// identity — Patch always copies).
	undo := []graph.Edit{
		{Op: graph.AddEdge, U: 0, V: 30},
		{Op: graph.RemoveEdge, U: 0, V: 30},
	}
	e3, err := e.ApplyEdits(context.Background(), undo)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e {
		t.Fatal("identity edit batch should return the receiver")
	}
}

// TestFastCountAgainstEnumeration pins all three FastCount shapes (unary,
// binary close/far, connected ternary) to the enumeration count.
func TestFastCountAgainstEnumeration(t *testing.T) {
	cases := []struct {
		query string
		vars  []string
	}{
		{"C0(x) & exists z (E(x,z) & C1(z))", []string{"x"}},
		{"dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"dist(x,y) <= 2 & C0(x) & C1(y)", []string{"x", "y"}},
		{"dist(x,y) > 2 & C0(x) | dist(x,y) > 2 & C1(y)", []string{"x", "y"}},
		{"dist(x,y) <= 1 & dist(y,z) <= 1 & C0(x)", []string{"x", "y", "z"}},
	}
	for _, c := range cases {
		q := compile(t, c.query, c.vars...)
		for _, class := range []gen.Class{gen.BoundedDegree, gen.Caterpillar, gen.Grid} {
			g := gen.Generate(class, 90, gen.Options{Seed: 7, Colors: 2})
			e, err := lowdeg.Preprocess(g, q, lowdeg.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.query, class, err)
			}
			fast, ok := e.FastCount()
			if !ok {
				t.Fatalf("%s on %s: FastCount unsupported", c.query, class)
			}
			if slow := e.Count(); fast != slow {
				t.Fatalf("%s on %s: FastCount %d != Count %d", c.query, class, fast, slow)
			}
		}
	}
}

// TestCountCtx mirrors the core pin: CountCtx equals Count under a live
// context and returns context.Canceled (never a partial count) once
// canceled. The far query has ~n² answers — well past the 4096-answer
// poll interval.
func TestCountCtx(t *testing.T) {
	q := compile(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	g := gen.Generate(gen.BoundedDegree, 300, gen.Options{Seed: 7, Colors: 1})
	e, err := lowdeg.Preprocess(g, q, lowdeg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.CountCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := e.Count(); n != want {
		t.Fatalf("CountCtx %d != Count %d", n, want)
	}
	if n <= 4096 {
		t.Fatalf("fixture too small to exercise the poll: %d answers", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := e.CountCtx(ctx); err != context.Canceled || n != 0 {
		t.Fatalf("canceled CountCtx = (%d, %v), want (0, context.Canceled)", n, err)
	}
}

// TestFastCountUnsupportedShape: a disconnected arity-3 query has no fast
// path; ok=false tells the caller to fall back to Count.
func TestFastCountUnsupportedShape(t *testing.T) {
	q := compile(t, "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z")
	g := gen.Generate(gen.Path, 30, gen.Options{Seed: 1, Colors: 1})
	e, err := lowdeg.Preprocess(g, q, lowdeg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.FastCount(); ok {
		t.Fatal("disconnected arity-3 FastCount should be unsupported")
	}
}
