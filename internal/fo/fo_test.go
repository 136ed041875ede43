package fo

import (
	"testing"

	"repro/internal/graph"
)

// pathGraph returns a path 0–1–…–(n−1) with color 0 on even vertices.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, 2)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < n; v += 2 {
		b.SetColor(v, 0)
	}
	return b.Build()
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"E(x,y)",
		"C0(x) & C1(y)",
		"dist(x,y) <= 3",
		"dist(x,y) > 2 & C0(y)",
		"exists z (E(x,z) & E(z,y)) | E(x,y) | x = y",
		"~(E(x,y)) & x != y",
		"forall z (~(E(x,z)) | C0(z))",
		"true | false",
		"exists z w (E(z,w) & C1(z))",
		"R(x,y) & U(x)",
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// Reparsing the printed form must yield the same string.
		g, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", f.String(), err)
		}
		if f.String() != g.String() {
			t.Fatalf("round trip: %q vs %q", f.String(), g.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"E(x)",
		"E(x,y",
		"dist(x,y) = 2",
		"dist(x,y) <= -1",
		"exists (E(x,y))",
		"C0(x) &",
		"x <",
		"(E(x,y)",
		"E(x,y) extra",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestFreeVars(t *testing.T) {
	f := MustParse("exists z (E(x,z) & E(z,y)) & C0(x)")
	fv := FreeVars(f)
	if len(fv) != 2 || fv[0] != "x" || fv[1] != "y" {
		t.Fatalf("FreeVars = %v", fv)
	}
	if fv := FreeVars(MustParse("exists z C0(z)")); len(fv) != 0 {
		t.Fatalf("sentence has free vars %v", fv)
	}
	// Shadowing: the inner bound z hides the outer free z.
	f = Exists{"z", Edge{"z", "w"}}
	fv = FreeVars(f)
	if len(fv) != 1 || fv[0] != "w" {
		t.Fatalf("shadowing: FreeVars = %v", fv)
	}
}

func TestQuantifierRankAndSize(t *testing.T) {
	f := MustParse("exists z (E(x,z) & exists w E(z,w)) | C0(x)")
	if q := QuantifierRank(f); q != 2 {
		t.Fatalf("rank = %d, want 2", q)
	}
	if s := Size(f); s < 6 {
		t.Fatalf("size = %d, too small", s)
	}
	if QuantifierRank(MustParse("E(x,y)")) != 0 {
		t.Fatal("atom has rank 0")
	}
}

func TestQRank(t *testing.T) {
	// q-rank: a distance atom under i quantifiers must satisfy
	// d ≤ (4q)^{q+ℓ−i}.
	q, ell := 2, 2
	if FQ(q, ell) != 4096 { // (4·2)^(2+2)
		t.Fatalf("FQ(2,2) = %d", FQ(q, ell))
	}
	ok := MustParse("exists z (dist(x,z) <= 8)")
	if !QRankAtMost(ok, 1, 1) { // depth 1 atom: d ≤ (4)^{1+1-1} = 4? No: 8 > 4
		// (4·1)^(1+1−1) = 4 < 8, so this must actually fail.
		t.Log("as expected")
	} else {
		t.Fatal("q-rank bound should reject d=8 at depth 1 for q=ℓ=1")
	}
	if !QRankAtMost(MustParse("dist(x,y) <= 4"), 1, 1) {
		t.Fatal("top-level d=4 is within (4)^2 = 16")
	}
	if QRankAtMost(MustParse("exists z exists w E(z,w)"), 1, 1) {
		t.Fatal("quantifier rank 2 exceeds ℓ=1")
	}
}

func TestEvaluatorBasics(t *testing.T) {
	g := pathGraph(10)
	ev := NewEvaluator(g)
	cases := []struct {
		src  string
		env  Env
		want bool
	}{
		{"E(x,y)", Env{"x": 0, "y": 1}, true},
		{"E(x,y)", Env{"x": 0, "y": 2}, false},
		{"dist(x,y) <= 3", Env{"x": 0, "y": 3}, true},
		{"dist(x,y) <= 2", Env{"x": 0, "y": 3}, false},
		{"dist(x,y) > 2", Env{"x": 0, "y": 9}, true},
		{"C0(x)", Env{"x": 4}, true},
		{"C0(x)", Env{"x": 5}, false},
		{"x = y", Env{"x": 3, "y": 3}, true},
		{"exists z (E(x,z) & E(z,y))", Env{"x": 0, "y": 2}, true},
		{"exists z (E(x,z) & E(z,y))", Env{"x": 0, "y": 3}, false},
		{"forall z (~(E(x,z)) | C0(z))", Env{"x": 1}, true}, // neighbors of 1: 0, 2 (even)
		{"forall z (~(E(x,z)) | C0(z))", Env{"x": 2}, false},
	}
	for _, c := range cases {
		if got := ev.Eval(MustParse(c.src), c.env); got != c.want {
			t.Errorf("%s under %v = %v, want %v", c.src, c.env, got, c.want)
		}
	}
}

// TestEvalAtAgreesWithEval: on quantifier-free formulas, reading the formula
// off one vertex is Eval with every variable bound to it — with distance
// atoms answered by search and by a tester alike — and a quantifier is
// refused.
func TestEvalAtAgreesWithEval(t *testing.T) {
	g := randomColored(25, 4)
	ev, tested := NewEvaluator(g), NewEvaluator(g)
	tested.UseDistTester(NewBFSDistTester(g))
	tried := 0
	for seed := uint64(1); seed <= 300; seed++ {
		f := genf(&randSource{seed * 977}, 3)
		if QuantifierRank(f) > 0 {
			continue
		}
		tried++
		for v := 0; v < g.N(); v++ {
			env := Env{"x": v, "y": v, "z": v}
			if got, want := EvalAt(g, f, v), ev.Eval(f, env); got != want || tested.Eval(f, env) != want {
				t.Fatalf("%s at %d: EvalAt = %v, Eval = %v, Eval over a tester = %v", f, v, got, want, tested.Eval(f, env))
			}
		}
	}
	if tried < 20 {
		t.Fatalf("only %d of 300 generated formulas were quantifier-free", tried)
	}
	defer func() {
		if recover() == nil {
			t.Error("EvalAt evaluated a quantified formula")
		}
	}()
	EvalAt(g, MustParse("exists z (E(x,z))"), 0)
}

func TestCachedEvaluatorAgrees(t *testing.T) {
	g := pathGraph(30)
	plain := NewEvaluator(g)
	cached := NewCachedEvaluator(g)
	f := MustParse("exists z (dist(x,z) <= 2 & C0(z)) & dist(x,y) > 3")
	for x := 0; x < 30; x += 3 {
		for y := 0; y < 30; y += 4 {
			env := Env{"x": x, "y": y}
			if plain.Eval(f, env) != cached.Eval(f, env) {
				t.Fatalf("cache divergence at x=%d y=%d", x, y)
			}
		}
	}
}

func TestDistQueryMatchesAtom(t *testing.T) {
	// Definition 4.1: the pure-FO dist formula equals the FO⁺ atom.
	g := pathGraph(12)
	ev := NewEvaluator(g)
	for r := 0; r <= 3; r++ {
		fopure := DistQuery("x", "y", r)
		atom := DistLeq{"x", "y", r}
		for x := 0; x < 12; x++ {
			for y := 0; y < 12; y++ {
				env := Env{"x": x, "y": y}
				if ev.Eval(fopure, env) != ev.Eval(atom, env) {
					t.Fatalf("r=%d (%d,%d): FO definition and atom disagree", r, x, y)
				}
			}
		}
	}
}

func TestRename(t *testing.T) {
	f := MustParse("E(x,y) & exists x C0(x)")
	g := Rename(f, "x", "u")
	// The free x is renamed; the bound x is untouched.
	want := "(E(u,y)) & (exists x (C0(x)))"
	if g.String() != want {
		t.Fatalf("Rename = %q, want %q", g.String(), want)
	}
}

func TestDistTypeComponents(t *testing.T) {
	typ := NewDistType(4)
	typ.SetClose(0, 2)
	typ.SetClose(2, 3)
	comps := typ.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][1] != 2 || comps[0][2] != 3 {
		t.Fatalf("component 0 = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 1 {
		t.Fatalf("component 1 = %v", comps[1])
	}
}

func TestDistTypeOf(t *testing.T) {
	g := pathGraph(10)
	tester := NewBFSDistTester(g)
	typ := TypeOf(tester, []graph.V{0, 1, 9}, 2)
	if !typ.Close(0, 1) || typ.Close(0, 2) || typ.Close(1, 2) {
		t.Fatalf("wrong type: %v", typ)
	}
}

func TestAllDistTypes(t *testing.T) {
	ts := AllDistTypes(3)
	if len(ts) != 8 {
		t.Fatalf("|T_3| = %d, want 8", len(ts))
	}
	seen := map[string]bool{}
	for _, typ := range ts {
		if !typ.Consistent() {
			t.Fatal("inconsistent type generated")
		}
		if seen[typ.Key()] {
			t.Fatal("duplicate type")
		}
		seen[typ.Key()] = true
	}
}

func TestMaxDistConstant(t *testing.T) {
	if d := MaxDistConstant(MustParse("dist(x,y) <= 5 | exists z (dist(z,y) <= 7)")); d != 7 {
		t.Fatalf("MaxDistConstant = %d", d)
	}
	if d := MaxDistConstant(MustParse("E(x,y)")); d != 0 {
		t.Fatalf("MaxDistConstant = %d", d)
	}
}

// TestQuickPrintParseRoundTrip: printing any randomly generated formula
// and reparsing it yields a formula with the same print form and the same
// semantics on a fixed graph.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	g := pathGraph(8)
	ev := NewEvaluator(g)
	for seed := int64(0); seed < 60; seed++ {
		rng := &randSource{state: uint64(seed*2654435761 + 1)}
		f := genf(rng, 3)
		reparsed, err := Parse(f.String())
		if err != nil {
			t.Fatalf("seed %d: reparse %q: %v", seed, f.String(), err)
		}
		if reparsed.String() != f.String() {
			t.Fatalf("seed %d: %q vs %q", seed, f.String(), reparsed.String())
		}
		env := Env{}
		for _, v := range FreeVars(f) {
			env[v] = int(rng.next() % 8)
		}
		if ev.Eval(f, env) != ev.Eval(reparsed, env) {
			t.Fatalf("seed %d: semantics changed across round trip for %s", seed, f)
		}
	}
}

type randSource struct{ state uint64 }

func (r *randSource) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *randSource) v() Var {
	return Var([]string{"x", "y", "z"}[r.next()%3])
}

func genf(rng *randSource, depth int) Formula {
	if depth == 0 {
		switch rng.next() % 4 {
		case 0:
			return Edge{rng.v(), rng.v()}
		case 1:
			return HasColor{int(rng.next() % 2), rng.v()}
		case 2:
			return Eq{rng.v(), rng.v()}
		default:
			return DistLeq{rng.v(), rng.v(), int(rng.next()%3) + 1}
		}
	}
	switch rng.next() % 5 {
	case 0:
		return AndOf(genf(rng, depth-1), genf(rng, depth-1))
	case 1:
		return OrOf(genf(rng, depth-1), genf(rng, depth-1))
	case 2:
		return Not{genf(rng, depth-1)}
	case 3:
		return Exists{rng.v(), genf(rng, depth-1)}
	default:
		return Forall{rng.v(), genf(rng, depth-1)}
	}
}

func TestAndOrSimplification(t *testing.T) {
	if f := AndOf(Truth{true}, Truth{true}); f.String() != "true" {
		t.Fatalf("AndOf(⊤,⊤) = %s", f)
	}
	if f := AndOf(Edge{"x", "y"}, Truth{false}); f.String() != "false" {
		t.Fatalf("AndOf(E,⊥) = %s", f)
	}
	if f := OrOf(Truth{false}, Edge{"x", "y"}); f.String() != "E(x,y)" {
		t.Fatalf("OrOf(⊥,E) = %s", f)
	}
	if f := NotOf(NotOf(Edge{"x", "y"})); f.String() != "E(x,y)" {
		t.Fatalf("double negation not collapsed: %s", f)
	}
}
