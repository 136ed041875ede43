package core

import (
	"fmt"
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
