package core

import (
	"math/rand"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// buildQ2 is the paper's Example 2: q(x,y) := dist(x,y) > 2 ∧ B(y), with
// color 0 playing the role of "blue". Built by hand in normal form.
func buildQ2(t *testing.T) *LocalQuery {
	t.Helper()
	far := fo.NewDistType(2)
	cl, err := MakeClause(far, fo.HasColor{C: 0, X: PosVar(1)})
	if err != nil {
		t.Fatal(err)
	}
	return &LocalQuery{K: 2, R: 2, LocalRadius: 2, Clauses: []Clause{cl}}
}

// buildClose is q(x,y) := dist(x,y) ≤ 2 (Example 1-A) in normal form: the
// close type with a trivial component formula.
func buildClose(t *testing.T) *LocalQuery {
	t.Helper()
	close2 := fo.NewDistType(2)
	close2.SetClose(0, 1)
	cl, err := MakeClause(close2)
	if err != nil {
		t.Fatal(err)
	}
	return &LocalQuery{K: 2, R: 2, LocalRadius: 2, Clauses: []Clause{cl}}
}

func smallClasses() []gen.Class {
	return []gen.Class{gen.Path, gen.Cycle, gen.Star, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid, gen.BoundedDegree}
}

func materializeEngine(e *Engine) [][]graph.V {
	var out [][]graph.V
	e.Enumerate(func(a []graph.V) bool {
		out = append(out, append([]graph.V(nil), a...))
		return true
	})
	return out
}

func materializeReference(g *graph.Graph, q *LocalQuery) [][]graph.V {
	var out [][]graph.V
	tuple := make([]graph.V, q.K)
	var rec func(i int)
	rec = func(i int) {
		if i == q.K {
			if EvalReference(g, q, tuple) {
				out = append(out, append([]graph.V(nil), tuple...))
			}
			return
		}
		for v := 0; v < g.N(); v++ {
			tuple[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func tuplesEqual(a, b [][]graph.V) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

func TestEngineExample2AcrossClasses(t *testing.T) {
	q := buildQ2(t)
	for _, class := range smallClasses() {
		g := gen.Generate(class, 120, gen.Options{Seed: 4, Colors: 1, ColorProb: 0.3})
		e, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		got := materializeEngine(e)
		want := materializeReference(g, q)
		if i, ok := tuplesEqual(got, want); !ok {
			t.Fatalf("%s: result mismatch at %d: got %d tuples, want %d (first diff near %v vs %v)",
				class, i, len(got), len(want), safeIndex(got, i), safeIndex(want, i))
		}
	}
}

func TestEngineCloseQueryAcrossClasses(t *testing.T) {
	q := buildClose(t)
	for _, class := range smallClasses() {
		g := gen.Generate(class, 100, gen.Options{Seed: 6})
		e, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		got := materializeEngine(e)
		want := materializeReference(g, q)
		if _, ok := tuplesEqual(got, want); !ok {
			t.Fatalf("%s: got %d tuples, want %d", class, len(got), len(want))
		}
	}
}

func TestEngineNextGeqMatchesMaterialized(t *testing.T) {
	q := buildQ2(t)
	g := gen.Generate(gen.Grid, 100, gen.Options{Seed: 9, Colors: 1, ColorProb: 0.25})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := materializeReference(g, q)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		a := []graph.V{rng.Intn(g.N()), rng.Intn(g.N())}
		got, ok := e.NextGeq(a)
		// Reference: first materialized solution ≥ a.
		var ref []graph.V
		for _, s := range want {
			if !lexLess(s, a) {
				ref = s
				break
			}
		}
		if (ref == nil) != !ok {
			t.Fatalf("NextGeq(%v): ok=%v, reference %v", a, ok, ref)
		}
		if ok {
			if _, eq := tuplesEqual([][]graph.V{got}, [][]graph.V{ref}); !eq {
				t.Fatalf("NextGeq(%v) = %v, want %v", a, got, ref)
			}
		}
	}
}

func TestEngineTestMatchesReference(t *testing.T) {
	q := buildQ2(t)
	g := gen.Generate(gen.RandomTree, 150, gen.Options{Seed: 2, Colors: 1, ColorProb: 0.4})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1500; trial++ {
		a := []graph.V{rng.Intn(g.N()), rng.Intn(g.N())}
		if got, want := e.Test(a), EvalReference(g, q, a); got != want {
			t.Fatalf("Test(%v) = %v, want %v", a, got, want)
		}
	}
}

func TestEngineEnumerationOrderAndUniqueness(t *testing.T) {
	q := buildQ2(t)
	g := gen.Generate(gen.Caterpillar, 140, gen.Options{Seed: 8, Colors: 1, ColorProb: 0.3})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sols := materializeEngine(e)
	for i := 1; i < len(sols); i++ {
		if !lexLess(sols[i-1], sols[i]) {
			t.Fatalf("order violation at %d: %v !< %v", i, sols[i-1], sols[i])
		}
	}
}

func TestEngineEarlyStopEnumeration(t *testing.T) {
	q := buildClose(t)
	g := gen.Generate(gen.Path, 50, gen.Options{})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	e.Enumerate(func([]graph.V) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop yielded %d tuples, want 5", count)
	}
}

func TestEngineEmptyResult(t *testing.T) {
	// No vertex has color 0 (uncolored graph), so Example 2 is empty.
	q := buildQ2(t)
	g := gen.Generate(gen.Grid, 64, gen.Options{})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.NextGeq([]graph.V{0, 0}); ok {
		t.Fatal("expected no solutions")
	}
	if e.Count() != 0 {
		t.Fatal("expected Count 0")
	}
}

func TestEngineUnaryQuery(t *testing.T) {
	// k=1: all vertices with color 0 that have a color-1 neighbor.
	psi := fo.AndOf(
		fo.HasColor{C: 0, X: PosVar(0)},
		fo.Exists{V: "z", F: fo.AndOf(fo.Edge{X: PosVar(0), Y: "z"}, fo.HasColor{C: 1, X: "z"})},
	)
	typ := fo.NewDistType(1)
	cl, err := MakeClause(typ, psi)
	if err != nil {
		t.Fatal(err)
	}
	q := &LocalQuery{K: 1, R: 1, LocalRadius: 2, Clauses: []Clause{cl}}
	g := gen.Generate(gen.KingGrid, 150, gen.Options{Seed: 5, Colors: 2, ColorProb: 0.4})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := materializeEngine(e)
	want := materializeReference(g, q)
	if _, ok := tuplesEqual(got, want); !ok {
		t.Fatalf("got %d solutions, want %d", len(got), len(want))
	}
}

func TestEngineGuardDropsClause(t *testing.T) {
	// A guard that fails on the graph must suppress its clause entirely.
	typ := fo.NewDistType(1)
	cl, err := MakeClause(typ, fo.HasColor{C: 0, X: PosVar(0)})
	if err != nil {
		t.Fatal(err)
	}
	q := &LocalQuery{
		K: 1, R: 1, LocalRadius: 1,
		Clauses: []Clause{cl},
		Guards: []*Guard{{
			Sentence: fo.Exists{V: "z", F: fo.HasColor{C: 1, X: "z"}},
		}},
	}
	g := gen.Generate(gen.Path, 50, gen.Options{Colors: 2, ColorProb: 0})
	// Color a vertex with color 0 but none with color 1 → guard fails.
	b := graph.NewBuilder(50, 2)
	for v := 0; v+1 < 50; v++ {
		b.AddEdge(v, v+1)
	}
	b.SetColor(3, 0)
	g = b.Build()
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Count() != 0 {
		t.Fatal("guard should have suppressed the clause")
	}
}

func TestEngineValidateRejectsBadQueries(t *testing.T) {
	bad := []*LocalQuery{
		{K: 0, R: 1, LocalRadius: 1},
		{K: 1, R: 0, LocalRadius: 1},
		{K: 2, R: 1, LocalRadius: 1, Clauses: []Clause{{Type: fo.NewDistType(3)}}},
	}
	g := gen.Generate(gen.Path, 10, gen.Options{})
	for i, q := range bad {
		if _, err := Preprocess(g, q, Options{}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func safeIndex(xs [][]graph.V, i int) []graph.V {
	if i >= 0 && i < len(xs) {
		return xs[i]
	}
	return nil
}

// TestSingletonStartersBypassMemo: computeStarter asks every vertex once
// per singleton component and inStart answers from then on, so the build
// must leave no memo entry behind (one per vertex and component would be
// most of the index, and nothing would read them) — under
// either locality.
func TestSingletonStartersBypassMemo(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 3, Colors: 2})
	q, err := Compile(fo.MustParse("dist(x,y) > 2 & dist(y,z) > 2 & dist(x,z) > 2 & C0(x) & C1(z)"),
		[]fo.Var{"x", "y", "z"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, preprocess := range map[string]func(*graph.Graph, *LocalQuery, Options) (*Engine, error){
		"cover": Preprocess, "balls": PreprocessBalls,
	} {
		e, err := preprocess(g, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comps := 0
		for _, rt := range e.clauses {
			for _, c := range rt.comps {
				if len(c.positions) != 1 {
					t.Fatalf("%s: fixture has a multi-position component %v", name, c.positions)
				}
				comps++
				c.memo.Range(func(k, _ any) bool {
					t.Errorf("%s: component %v memo holds %q after Preprocess", name, c.positions, k)
					return false
				})
			}
		}
		if st := e.Stats(); comps == 0 || st.LocalEvals != g.N()*comps || st.LocalEvalHits != 0 {
			t.Errorf("%s: %d components on %d vertices: LocalEvals=%d LocalEvalHits=%d, want %d and 0",
				name, comps, g.N(), st.LocalEvals, st.LocalEvalHits, g.N()*comps)
		}
	}
}
