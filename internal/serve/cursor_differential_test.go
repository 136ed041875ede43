package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/graph"
)

// TestCursorPagingDifferential is the cursor correctness property test:
// for a grid of random graphs and queries, paging through /v1/enumerate
// with page sizes 1, 2, 7 and ∞ — flushing the index cache mid-stream so
// the cursor must survive eviction and rebuild — reproduces exactly the
// Index.Enumerate stream, which itself is checked against the naive
// materialize-everything oracle.
func TestCursorPagingDifferential(t *testing.T) {
	graphs := map[string]*repro.Graph{
		"path":   repro.Generate("path", 60, repro.GenOptions{Colors: 2, Seed: 3}),
		"sparse": repro.Generate("sparserandom", 48, repro.GenOptions{Colors: 2, Seed: 9}),
		"tree":   repro.Generate("btree", 63, repro.GenOptions{Colors: 2, Seed: 4}),
		"tiny":   repro.Generate("cycle", 24, repro.GenOptions{Colors: 2, Seed: 8}),
	}
	queries := []struct {
		src  string
		vars []string
	}{
		{"C0(x)", []string{"x"}},
		{"E(x,y)", []string{"x", "y"}},
		{"dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"C0(x) & ~(exists z (dist(x,z) <= 2 & C1(z)))", []string{"x"}},
		{"exists z (E(x,z) & E(z,y)) | x = y", []string{"x", "y"}},
	}
	// Arity-3 only on the smallest graph: the oracle is Θ(n³·eval).
	triple := struct {
		src  string
		vars []string
	}{"dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []string{"x", "y", "z"}}

	cfg := Config{Graphs: graphs, CacheSize: 2, MaxLimit: 1 << 30, DefaultLimit: 50}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pageSizes := []int{1, 2, 7, 1 << 29} // 1<<29 ≡ ∞: one page swallows everything

	for gname, g := range graphs {
		for _, qc := range queries {
			t.Run(fmt.Sprintf("%s/%s", gname, qc.src), func(t *testing.T) {
				checkPaging(t, ts.URL, s, g, gname, qc.src, qc.vars, pageSizes)
			})
		}
	}
	t.Run("tiny/"+triple.src, func(t *testing.T) {
		checkPaging(t, ts.URL, s, graphs["tiny"], "tiny", triple.src, triple.vars, pageSizes)
	})
}

// facadeEngine adapts *repro.Index to the conformance kit's engine
// contract (the facade names Theorem 2.3 "Next" where the internal
// engines say "NextGeq").
type facadeEngine struct{ ix *repro.Index }

func (f facadeEngine) NextGeq(a []graph.V) ([]graph.V, bool) { return f.ix.Next(a) }
func (f facadeEngine) Test(a []graph.V) bool                 { return f.ix.Test(a) }
func (f facadeEngine) Enumerate(y func([]graph.V) bool)      { f.ix.Enumerate(y) }
func (f facadeEngine) Count() int                            { return f.ix.Count() }
func (f facadeEngine) NextLast(p []graph.V, b graph.V) (graph.V, bool) {
	return f.ix.NextLast(p, b)
}

func checkPaging(t *testing.T, base string, s *Server, g *repro.Graph, gname, src string, vars []string, pageSizes []int) {
	// Oracle: the shared conformance kit ties the facade index all the way
	// back to the formula semantics (naive materialization) across the full
	// engine contract, then its sorted solution list is the acceptance bar
	// the paged HTTP stream must reproduce byte for byte.
	q := repro.MustParseQuery(src, vars...)
	fvars := make([]fo.Var, len(vars))
	for i, v := range vars {
		fvars[i] = fo.Var(v)
	}
	lq, err := core.Compile(q.Phi, fvars, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	want := conform.NewNaive(g, lq).Solutions()
	sys := conform.System{
		Name: gname + "/facade", Engine: facadeEngine{ix}, K: len(vars), N: g.N(),
		NewCursor: func(a []graph.V) conform.Cursor { return ix.IteratorFrom(a) },
	}
	if err := conform.CheckAll(sys, want); err != nil {
		t.Fatal(err)
	}

	qr := registerQuery(t, base, gname, src, vars...)
	for _, pageSize := range pageSizes {
		var got [][]int
		cursor := ""
		pages := 0
		for {
			url := fmt.Sprintf("%s/v1/enumerate?query=%s&limit=%d", base, qr.ID, pageSize)
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			resp, data := getJSON(t, url)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("page %d: status %d: %s", pages, resp.StatusCode, data)
			}
			page := mustDecode[EnumerateResponse](t, data)
			got = append(got, page.Solutions...)
			pages++
			if page.Done {
				break
			}
			if page.NextCursor == "" {
				t.Fatalf("page %d: not done but no cursor", pages)
			}
			cursor = page.NextCursor
			// Every third page boundary, drop every cached index: the
			// resumed cursor must survive eviction + rebuild bit for bit.
			if pages%3 == 0 {
				s.cache.Flush()
			}
			if pages > len(want)+2 {
				t.Fatalf("paging does not terminate (%d pages for %d solutions)", pages, len(want))
			}
		}
		if !reflect.DeepEqual(norm(got), norm(want)) {
			t.Fatalf("page size %d: paged stream (%d sols) != Enumerate stream (%d sols)\n got: %v\nwant: %v",
				pageSize, len(got), len(want), got, want)
		}
	}
}

// norm maps nil to an empty slice so DeepEqual compares streams, not
// JSON-decoding artifacts.
func norm(s [][]int) [][]int {
	if s == nil {
		return [][]int{}
	}
	return s
}
