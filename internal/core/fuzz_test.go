package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// queryGen generates random FO⁺ queries inside the compilable fragment:
// Boolean combinations of atoms over the position variables and guarded
// quantified subformulas anchored at a single position variable.
type queryGen struct {
	rng    *rand.Rand
	vars   []fo.Var
	colors int
	fresh  int
}

func (qg *queryGen) variable() fo.Var { return qg.vars[qg.rng.Intn(len(qg.vars))] }

func (qg *queryGen) formula(depth int) fo.Formula {
	if depth == 0 {
		return qg.atom()
	}
	switch qg.rng.Intn(6) {
	case 0:
		return fo.AndOf(qg.formula(depth-1), qg.formula(depth-1))
	case 1:
		return fo.OrOf(qg.formula(depth-1), qg.formula(depth-1))
	case 2:
		return fo.NotOf(qg.formula(depth - 1))
	case 3:
		return qg.guardedExists()
	default:
		return qg.atom()
	}
}

func (qg *queryGen) atom() fo.Formula {
	x, y := qg.variable(), qg.variable()
	switch qg.rng.Intn(5) {
	case 0:
		return fo.Edge{X: x, Y: y}
	case 1:
		return fo.HasColor{C: qg.rng.Intn(qg.colors), X: x}
	case 2:
		return fo.Eq{X: x, Y: y}
	case 3:
		return fo.DistLeq{X: x, Y: y, D: 1 + qg.rng.Intn(2)}
	default:
		return fo.NotOf(fo.DistLeq{X: x, Y: y, D: 1 + qg.rng.Intn(2)})
	}
}

// guardedExists produces ∃z (dist(x, z) ≤ d ∧ body(z, x)) — a witness
// anchored at one position variable, which keeps the query local.
func (qg *queryGen) guardedExists() fo.Formula {
	qg.fresh++
	z := fo.Var(fmt.Sprintf("w%d", qg.fresh))
	x := qg.variable()
	guard := fo.DistLeq{X: x, Y: z, D: 1 + qg.rng.Intn(2)}
	var body fo.Formula
	switch qg.rng.Intn(3) {
	case 0:
		body = fo.HasColor{C: qg.rng.Intn(qg.colors), X: z}
	case 1:
		body = fo.Edge{X: z, Y: x}
	default:
		body = fo.NotOf(fo.HasColor{C: qg.rng.Intn(qg.colors), X: z})
	}
	f := fo.Exists{V: z, F: fo.AndOf(guard, body)}
	if qg.rng.Intn(2) == 0 {
		return fo.NotOf(f)
	}
	return f
}

// TestFuzzEngineAgainstNaive is the differential fuzzer: random queries of
// arities 1 and 2 over random sparse graphs, engine results compared
// against direct FO evaluation tuple by tuple.
func TestFuzzEngineAgainstNaive(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	classes := []gen.Class{gen.Path, gen.Star, gen.RandomTree, gen.Grid, gen.BoundedDegree}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		arity := 1 + rng.Intn(2)
		vars := []fo.Var{"x", "y"}[:arity]
		qg := &queryGen{rng: rng, vars: vars, colors: 2}
		phi := qg.formula(2 + rng.Intn(2))

		q, err := Compile(phi, vars, CompileOptions{})
		if err != nil {
			// Outside the fragment (e.g. an unanchored pattern slipped
			// through): rejection is the documented behaviour, not a bug.
			continue
		}
		class := classes[rng.Intn(len(classes))]
		n := 40 + rng.Intn(40)
		g := gen.Generate(class, n, gen.Options{Seed: int64(trial), Colors: 2, ColorProb: 0.35})
		e, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s): preprocess: %v", trial, phi, err)
		}
		got := materializeEngine(e)
		want := naiveSolutions(g, phi, vars)
		if i, ok := tuplesEqual(got, want); !ok {
			t.Fatalf("trial %d: query %s on %s (n=%d): engine %d vs naive %d tuples (diff near %v vs %v)",
				trial, phi, class, g.N(), len(got), len(want), safeIndex(got, i), safeIndex(want, i))
		}
		// Also probe Test and NextGeq on random tuples.
		for probe := 0; probe < 20; probe++ {
			a := make([]int, arity)
			for i := range a {
				a[i] = rng.Intn(g.N())
			}
			ev := fo.NewEvaluator(g)
			if got, want := e.Test(a), ev.EvalTuple(phi, vars, a); got != want {
				t.Fatalf("trial %d: Test(%v) = %v, want %v for %s", trial, a, got, want, phi)
			}
		}
	}
}

// FuzzParallelVsSequentialPreprocess round-trips fuzzed graph inputs
// through both preprocessing pipelines and requires identical enumeration
// output and identical membership answers. The fuzzer steers the graph
// class, size, seed, and query; `go test -fuzz=FuzzParallelVsSequential`
// explores further from the seed corpus, and the corpus entries run as
// regression tests under plain `go test`.
func FuzzParallelVsSequentialPreprocess(f *testing.F) {
	f.Add(uint8(0), uint8(40), int64(1), uint8(0))
	f.Add(uint8(3), uint8(64), int64(7), uint8(1))
	f.Add(uint8(5), uint8(90), int64(42), uint8(2))
	f.Add(uint8(9), uint8(33), int64(-3), uint8(3))
	f.Add(uint8(12), uint8(120), int64(999), uint8(4))
	classes := []gen.Class{gen.Path, gen.Cycle, gen.Star, gen.Caterpillar,
		gen.BalancedTree, gen.RandomTree, gen.Grid, gen.KingGrid,
		gen.BoundedDegree, gen.SparseRandom, gen.PartialKTree,
		gen.Outerplanar, gen.Clique}
	queries := []struct {
		src  string
		vars []fo.Var
	}{
		{"dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}},
		{"E(x,y) & C0(x)", []fo.Var{"x", "y"}},
		{"dist(x,y) > 1 & C0(x) & C1(y)", []fo.Var{"x", "y"}},
		{"C0(x) & (exists z (E(x,z) & C1(z)))", []fo.Var{"x"}},
		{"dist(x,y) <= 2 & ~C0(y)", []fo.Var{"x", "y"}},
	}
	f.Fuzz(func(t *testing.T, classByte, nByte uint8, seed int64, queryByte uint8) {
		class := classes[int(classByte)%len(classes)]
		n := 2 + int(nByte)%150
		qc := queries[int(queryByte)%len(queries)]
		g := gen.Generate(class, n, gen.Options{Seed: seed, Colors: 2, ColorProb: 0.35})
		q, err := Compile(fo.MustParse(qc.src), qc.vars, CompileOptions{})
		if err != nil {
			t.Fatalf("fixed query rejected: %v", err)
		}
		seq, err := Preprocess(g, q, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("sequential preprocess: %v", err)
		}
		par, err := Preprocess(g, q, Options{Parallelism: 3})
		if err != nil {
			t.Fatalf("parallel preprocess: %v", err)
		}
		got, want := materializeEngine(par), materializeEngine(seq)
		if i, ok := tuplesEqual(got, want); !ok {
			t.Fatalf("%s n=%d seed=%d %q: parallel %d vs sequential %d tuples (diff near %v vs %v)",
				class, n, seed, qc.src, len(got), len(want), safeIndex(got, i), safeIndex(want, i))
		}
		rng := rand.New(rand.NewSource(seed))
		probe := make([]int, len(qc.vars))
		for trial := 0; trial < 10; trial++ {
			for i := range probe {
				probe[i] = rng.Intn(g.N())
			}
			if sq, pq := seq.Test(probe), par.Test(probe); sq != pq {
				t.Fatalf("%s n=%d seed=%d %q: Test(%v) sequential %v, parallel %v",
					class, n, seed, qc.src, probe, sq, pq)
			}
		}
	})
}

// TestFuzzArity3 runs a smaller arity-3 fuzz (naive evaluation is n³).
func TestFuzzArity3(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		vars := []fo.Var{"x", "y", "z"}
		qg := &queryGen{rng: rng, vars: vars, colors: 2}
		phi := qg.formula(2)
		q, err := Compile(phi, vars, CompileOptions{})
		if err != nil {
			continue
		}
		g := gen.Generate(gen.RandomTree, 18+rng.Intn(10), gen.Options{Seed: int64(trial), Colors: 2, ColorProb: 0.4})
		e, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, phi, err)
		}
		got := materializeEngine(e)
		want := naiveSolutions(g, phi, vars)
		if i, ok := tuplesEqual(got, want); !ok {
			t.Fatalf("trial %d: query %s: engine %d vs naive %d (diff near %v vs %v)",
				trial, phi, len(got), len(want), safeIndex(got, i), safeIndex(want, i))
		}
	}
}

// TestFuzzMutateRandomQueries pins the region ApplyEdits re-tests
// (starterReach) against queries nobody picked by hand: random formulas of
// the compilable fragment — quantified witnesses, distance atoms inside
// component formulas, close and far components — over random sparse
// graphs, a few random edit batches each, patched engine against rebuilt
// engine over both localities.
func TestFuzzMutateRandomQueries(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	classes := []gen.Class{gen.Path, gen.Cycle, gen.RandomTree, gen.Grid, gen.BoundedDegree, gen.SparseRandom}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		arity := 1 + rng.Intn(2)
		vars := []fo.Var{"x", "y"}[:arity]
		qg := &queryGen{rng: rng, vars: vars, colors: 2}
		phi := qg.formula(2 + rng.Intn(2))
		q, err := Compile(phi, vars, CompileOptions{})
		if err != nil {
			continue // outside the fragment
		}
		g := gen.Generate(classes[rng.Intn(len(classes))], 30+rng.Intn(40), gen.Options{Seed: int64(trial), Colors: 2, ColorProb: 0.35})
		for _, kind := range locKinds {
			e, err := preprocess(g, q, Options{}, kind)
			if err != nil {
				t.Fatalf("trial %d (%s): preprocess: %v", trial, phi, err)
			}
			gCur := g
			for step := 0; step < 4; step++ {
				var edits []graph.Edit
				for i := 1 + rng.Intn(2); i > 0; i-- {
					u, v := rng.Intn(g.N()), rng.Intn(g.N())
					switch {
					case rng.Intn(3) == 0:
						edits = append(edits, graph.Edit{Op: graph.AddColor + graph.EditOp(rng.Intn(2)), U: u, Color: rng.Intn(2)})
					case gCur.Degree(u) > 0 && rng.Intn(2) == 0:
						nb := gCur.Neighbors(u)
						edits = append(edits, graph.Edit{Op: graph.RemoveEdge, U: u, V: int(nb[rng.Intn(len(nb))])})
					case u != v:
						edits = append(edits, graph.Edit{Op: graph.AddEdge, U: u, V: v})
					}
				}
				e2, err := e.ApplyEdits(nil, edits)
				if err != nil {
					t.Fatalf("trial %d (%s): ApplyEdits: %v", trial, phi, err)
				}
				if gCur, err = graph.Patch(gCur, edits); err != nil {
					t.Fatal(err)
				}
				ref, err := preprocess(gCur, q, Options{}, kind)
				if err != nil {
					t.Fatal(err)
				}
				got, want := materializeEngine(e2), materializeEngine(ref)
				if i, ok := tuplesEqual(got, want); !ok {
					t.Fatalf("trial %d, locality %q, step %d: query %s after %v: patched %d vs rebuilt %d tuples (diff near %v vs %v)",
						trial, kind.name, step, phi, edits, len(got), len(want), safeIndex(got, i), safeIndex(want, i))
				}
				e = e2
			}
		}
	}
}
