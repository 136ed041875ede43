package core

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestLocalQueryString(t *testing.T) {
	q, err := Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"k=2", "R=2", "guarded", "clause 0", "C0(x1)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan missing %q:\n%s", want, s)
		}
	}
}

func TestEngineExplain(t *testing.T) {
	q, err := Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Generate(gen.Grid, 100, gen.Options{Seed: 1, Colors: 1, ColorProb: 0.3})
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Explain()
	for _, want := range []string{"cover:", "distance index:", "TableCells:", "Fallbacks:0", "live clauses", "|starter|="} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "partner cells") {
		t.Fatalf("explain reports partner cells for far2, which has no close pair:\n%s", s)
	}
	// The cover line: its shape, then the bytes of each structure it holds,
	// memberOf once a write has derived it.
	cov := e.loc.(*coverLoc).cov
	line := fmt.Sprintf("cover: radius %d, %d bags, degree %d, %d cells; bags ", cov.R, cov.NumBags(), cov.Degree(), cov.SumBagSizes())
	fields := regexp.MustCompile(`cover: .*; bags [0-9.]+ MB, kernels [0-9.]+ MB, kernelOf [0-9.]+ MB, assign [0-9.]+ MB\n`)
	if !strings.Contains(s, line) || !fields.MatchString(s) {
		t.Fatalf("explain's cover line is not %q…, structures bags, kernels, kernelOf, assign:\n%s", line, s)
	}
	e2, err := e.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`assign [0-9.]+ MB, memberOf [0-9.]+ MB\n`).MatchString(e2.Explain()) {
		t.Fatalf("explain after an edge write does not list memberOf last:\n%s", e2.Explain())
	}
	// The k of Lemma 5.8, per component and per table: y's list is asked with
	// one value, x's with none.
	y := e.clauses[0].comps[1].skip
	for _, want := range []string{
		fmt.Sprintf("2 components, 1 tables (k=1: %d, largest %d), %d pointers", y.Size(), y.Largest(), y.Size()),
		"skip pointers=0 k=0,", fmt.Sprintf("skip pointers=%d k=1,", y.Size()),
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain missing %q:\n%s", want, s)
		}
	}
	e3, err := Preprocess(gen.Generate(gen.Grid, 100, gen.Options{Seed: 1, Colors: 2}), compileT(t, far3, "x", "y", "z"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, z := e3.clauses[0].comps[0].skip, e3.clauses[0].comps[2].skip
	if want := fmt.Sprintf("5 components, 2 tables (k=1: %d, largest %d; k=2: %d, largest %d), %d pointers",
		x.Size(), x.Largest(), z.Size(), z.Largest(), x.Size()+z.Size()); !strings.Contains(e3.Explain(), want) {
		t.Fatalf("explain missing %q:\n%s", want, e3.Explain())
	}
	unary, err := Preprocess(g, compileT(t, "C0(x)", "x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "1 components, 0 tables, 0 pointers"; !strings.Contains(unary.Explain(), want) {
		t.Fatalf("explain missing %q:\n%s", want, unary.Explain())
	}

	// A close pair prints the cells of its rows beside its starter list, and
	// Stats adds them up.
	near, err := Compile(fo.MustParse("dist(x,y) <= 2 & C0(x)"), []fo.Var{"x", "y"}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, preprocess := range []func(*graph.Graph, *LocalQuery, Options) (*Engine, error){Preprocess, PreprocessBalls} {
		e, err := preprocess(g, near, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cells := e.Stats().PartnerCells
		if want := fmt.Sprintf("partner cells=%d,", cells); cells == 0 || cells != e.Count() || !strings.Contains(e.Explain(), want) {
			t.Fatalf("%d partner cells for %d answers; explain should say %q:\n%s", cells, e.Count(), want, e.Explain())
		}
	}
}
