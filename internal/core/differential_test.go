// Differential test harness: every conformance case runs through two
// independently built engines — Parallelism 1 (the sequential reference)
// and Parallelism 4 — plus the naive evaluator as ground truth. The
// engine-contract assertions live in internal/conform (shared with the
// cross-engine battery and the lowdeg fuzz harness); this file adds the
// core-specific checks: the two builds must agree on their preprocessing
// shape (bag count, starter sizes), and the distance-index layer is
// validated against brute force. The cover has one construction, held to
// the definitions in internal/cover.
package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// diffCases returns the non-empty conformance cases: the empty-answer-set
// cases are exercised by the cross-engine battery; here they would only
// skip the shape comparison.
func diffCases() []conform.Case {
	var out []conform.Case
	for _, c := range conform.Cases() {
		if !c.Empty {
			out = append(out, c)
		}
	}
	return out
}

// materialize drains an engine's enumeration (shared helper, also used by
// the mutation tests).
func materialize(e *core.Engine) [][]graph.V {
	return conform.Materialize(e)
}

func buildEngines(t *testing.T, tc conform.Case, seed int64) (*graph.Graph, *core.Engine, *core.Engine, *core.LocalQuery) {
	t.Helper()
	g := gen.Generate(tc.Class, tc.N, gen.Options{Seed: seed, Colors: tc.Colors})
	vars := make([]fo.Var, len(tc.Vars))
	for i, v := range tc.Vars {
		vars[i] = fo.Var(v)
	}
	lq, err := core.Compile(fo.MustParse(tc.Query), vars, core.CompileOptions{})
	if err != nil {
		t.Fatalf("%s: compile: %v", tc.Query, err)
	}
	seq, err := core.Preprocess(g, lq, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: sequential preprocess: %v", tc.Query, err)
	}
	par, err := core.Preprocess(g, lq, core.Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("%s: parallel preprocess: %v", tc.Query, err)
	}
	return g, seq, par, lq
}

// TestDifferentialParallelVsSequential is the main differential check:
// both builds must pass the full conformance contract against the naive
// oracle, agree with each other, and agree on preprocessing shape.
func TestDifferentialParallelVsSequential(t *testing.T) {
	for _, tc := range diffCases() {
		for seed := int64(1); seed <= 3; seed++ {
			label := fmt.Sprintf("%s/%s/seed%d", tc.Class, tc.Query, seed)
			g, seq, par, lq := buildEngines(t, tc, seed)
			want := conform.NewNaive(g, lq).Solutions()
			for name, e := range map[string]*core.Engine{"seq": seq, "par": par} {
				e := e
				sys := conform.System{
					Name: label + "/" + name, Engine: e, K: lq.K, N: g.N(),
					NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) },
				}
				if err := conform.CheckEnumeration(sys, want); err != nil {
					t.Fatal(err)
				}
				if err := conform.CheckCounts(sys, want); err != nil {
					t.Fatal(err)
				}
			}
			// Preprocessing shape must agree too.
			ss, ps := seq.Stats(), par.Stats()
			if ss.CoverBags != ps.CoverBags || ss.CoverRadius != ps.CoverRadius ||
				!reflect.DeepEqual(ss.StarterSizes, ps.StarterSizes) ||
				ss.SkipPointers != ps.SkipPointers {
				t.Fatalf("%s: preprocessing shape differs: %+v vs %+v", label, ss, ps)
			}
		}
	}
}

// TestDifferentialMembership probes Test and NextGeq on both engines
// through the shared conformance checks.
func TestDifferentialMembership(t *testing.T) {
	for _, tc := range diffCases()[:4] {
		g, seq, par, lq := buildEngines(t, tc, 7)
		want := conform.NewNaive(g, lq).Solutions()
		for name, e := range map[string]*core.Engine{"seq": seq, "par": par} {
			sys := conform.System{Name: tc.Name + "/" + name, Engine: e, K: lq.K, N: g.N()}
			if err := conform.CheckTest(sys, want); err != nil {
				t.Fatal(err)
			}
			if err := conform.CheckNextGeq(sys, want); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDifferentialDistances cross-checks parallel-built distance indexes
// against the BFS oracle, for every radius up to the index radius.
func TestDifferentialDistances(t *testing.T) {
	for _, class := range []gen.Class{gen.Grid, gen.Caterpillar, gen.BoundedDegree} {
		g := gen.Generate(class, 250, gen.Options{Seed: 6})
		seq := dist.New(g, 3, dist.Options{Workers: 1})
		par := dist.New(g, 3, dist.Options{Workers: 4})
		bfs := graph.NewBFS(g)
		for a := 0; a < g.N(); a += 7 {
			for b := 0; b < g.N(); b += 11 {
				for rr := 0; rr <= 3; rr++ {
					want := bfs.Distance(a, b, rr) >= 0
					if got := seq.Within(a, b, rr); got != want {
						t.Fatalf("%s: sequential Within(%d,%d,%d) = %v, oracle %v", class, a, b, rr, got, want)
					}
					if got := par.Within(a, b, rr); got != want {
						t.Fatalf("%s: parallel Within(%d,%d,%d) = %v, oracle %v", class, a, b, rr, got, want)
					}
				}
			}
		}
	}
}

// TestStartersMatchBallEvaluation: the starter phase evaluates what each
// component formula reads — a quantifier-free singleton straight off the
// colours, a quantifier-free larger component with no ball, a quantified
// one over N_ρ — and the lists must be the ones obtained by treating every
// component alike (EvalOver over N_ρ, Engine.StartersByBall): for every
// conformance query, a few whose components mix the three kinds, and a
// hand-built certified one whose singletons hold the atoms the compiler
// folds away (x = x, E(x,x), dist(x,x) ≤ d), over both localities.
func TestStartersMatchBallEvaluation(t *testing.T) {
	type fixture struct {
		name string
		g    *graph.Graph
		lq   *core.LocalQuery
	}
	cases := conform.Cases()
	for _, extra := range []struct {
		query string
		vars  []string
	}{
		{"dist(x,y) <= 2 & C0(x) & ~(C1(y)) & dist(x,z) > 2 & dist(y,z) > 2 & (exists w (E(z,w) & C1(w)))", []string{"x", "y", "z"}},
		{"dist(x,y) > 2 & (C0(y) | C1(y)) & ~(C1(x))", []string{"x", "y"}},
		{"E(x,y) & (forall w (~(E(x,w)) | C0(w) | w = y))", []string{"x", "y"}},
	} {
		cases = append(cases, conform.Case{Name: "mixed: " + extra.query, Class: gen.BoundedDegree, N: 60, Seed: 5, Colors: 2,
			Query: extra.query, Vars: extra.vars})
	}
	var fixtures []fixture
	for _, tc := range cases {
		vars := make([]fo.Var, len(tc.Vars))
		for i, v := range tc.Vars {
			vars[i] = fo.Var(v)
		}
		lq, err := core.Compile(fo.MustParse(tc.Query), vars, core.CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		fixtures = append(fixtures, fixture{tc.Name, tc.Graph(), lq})
	}
	x0, x1 := core.PosVar(0), core.PosVar(1)
	cl, err := core.MakeClause(fo.NewDistType(2),
		fo.AndOf(fo.Eq{X: x0, Y: x0}, fo.Not{F: fo.Edge{X: x0, Y: x0}}, fo.DistLeq{X: x0, Y: x0, D: 1}, fo.HasColor{C: 0, X: x0}),
		fo.OrOf(fo.Not{F: fo.Eq{X: x1, Y: x1}}, fo.Edge{X: x1, Y: x1}, fo.Not{F: fo.DistLeq{X: x1, Y: x1, D: 0}}, fo.HasColor{C: 1, X: x1}))
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"hand-built diagonal atoms", gen.Generate(gen.Grid, 64, gen.Options{Seed: 6, Colors: 2}),
		&core.LocalQuery{K: 2, R: 2, LocalRadius: 2, Clauses: []core.Clause{cl}, Guarded: true}})

	for _, fx := range fixtures {
		for _, loc := range bothLocalities {
			e, err := loc.preprocess(fx.g, fx.lq, core.Options{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, loc.name, err)
			}
			got, want := e.Starters(), e.StartersByBall()
			for i := range want {
				if !reflect.DeepEqual(got[i].InStart, want[i].InStart) || !reflect.DeepEqual(got[i].Starter, append([]graph.V{}, want[i].Starter...)) {
					t.Errorf("%s/%s: component %d: starter list %v, by ball evaluation %v", fx.name, loc.name, i, got[i].Starter, want[i].Starter)
				}
			}
		}
	}
}
