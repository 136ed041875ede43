package serve

import (
	"bytes"
	"context"
	"encoding/json"
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
	"repro/internal/obs"
)

// TestCursorPagingDifferential is the cursor correctness property test:
// for a grid of random graphs and queries, paging through /v1/enumerate
// with page sizes 1, 2, 7 and ∞ — flushing the index cache mid-stream so
// the cursor must survive eviction and rebuild — reproduces exactly the
// Index.Enumerate stream, which itself is checked against the naive
// materialize-everything oracle.
//
// Every page body read on the way is also compared byte for byte with what
// encoding/json writes for the same EnumerateResponse in its envelope: the page writer is a second encoder, and this is the test
// that keeps it from becoming a second wire format. The smallest graph
// runs once more against a server with a Tracer, for the trace_id tail.
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
		{"C0(x) & ~C0(x)", []string{"x"}}, // no solutions: "solutions": []
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

	cfg.Tracer = obs.NewTracer(obs.TracerConfig{Buffer: 16})
	traced := NewServer(cfg)
	tts := httptest.NewServer(traced.Handler())
	defer tts.Close()

	pageSizes := []int{1, 2, 7, 1 << 29} // 1<<29 ≡ ∞: one page swallows everything

	var seen pageShapes
	for gname, g := range graphs {
		for _, qc := range queries {
			t.Run(fmt.Sprintf("%s/%s", gname, qc.src), func(t *testing.T) {
				checkPaging(t, ts.URL, s, g, gname, qc.src, qc.vars, pageSizes, &seen)
			})
		}
	}
	t.Run("tiny/"+triple.src, func(t *testing.T) {
		checkPaging(t, ts.URL, s, graphs["tiny"], "tiny", triple.src, triple.vars, pageSizes, &seen)
	})
	for _, qc := range append(queries, triple) {
		t.Run("traced/tiny/"+qc.src, func(t *testing.T) {
			checkPaging(t, tts.URL, traced, graphs["tiny"], "tiny", qc.src, qc.vars, pageSizes[2:], &seen)
		})
	}
	if want := (pageShapes{empty: true, arity: [4]bool{false, true, true, true}, limit1: true, done: true, notDone: true, traced: true, untraced: true}); seen != want {
		t.Fatalf("page shapes compared byte for byte: %+v, want %+v", seen, want)
	}
}

// pageShapes records which shapes of page the byte-for-byte comparison has
// seen, so that a change to the query grid cannot quietly stop covering one.
type pageShapes struct {
	empty, limit1    bool
	arity            [4]bool
	done, notDone    bool
	traced, untraced bool
}

// decodePageExact decodes one raw /v1/enumerate body and requires it to be
// exactly what encoding/json writes for what it decodes to.
func decodePageExact(raw []byte) (page EnumerateResponse, traceID string, err error) {
	var env struct {
		Data    EnumerateResponse `json:"data"`
		TraceID string            `json:"trace_id"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return page, "", fmt.Errorf("decoding %s: %v", raw, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(envelope{Data: env.Data, TraceID: env.TraceID}); err != nil {
		return page, "", err
	}
	if !bytes.Equal(raw, want.Bytes()) {
		return page, "", fmt.Errorf("page body is not what encoding/json writes for it\n got: %q\nwant: %q", raw, want.Bytes())
	}
	return env.Data, env.TraceID, nil
}

// checkPageBytes is decodePageExact plus every field the stream comparison
// does not already pin, checked against the request.
func checkPageBytes(t *testing.T, raw []byte, qid string, limit int, seen *pageShapes) EnumerateResponse {
	t.Helper()
	page, traceID, err := decodePageExact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if page.ID != qid || page.Limit != limit || page.Count != len(page.Solutions) || page.Solutions == nil {
		t.Fatalf("page header: %+v (query %s, limit %d)", page, qid, limit)
	}
	wantCursor := ""
	if !page.Done && page.Count > 0 {
		wantCursor = encodeCursor(qid, page.Version, page.Solutions[page.Count-1])
	}
	if page.NextCursor != wantCursor {
		t.Fatalf("next_cursor %q, want %q", page.NextCursor, wantCursor)
	}
	if page.Count == 0 {
		seen.empty = true
	} else {
		seen.arity[len(page.Solutions[0])] = true
	}
	seen.limit1 = seen.limit1 || limit == 1
	seen.done = seen.done || page.Done
	seen.notDone = seen.notDone || !page.Done
	seen.traced = seen.traced || traceID != ""
	seen.untraced = seen.untraced || traceID == ""
	return page
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

func checkPaging(t *testing.T, base string, s *Server, g *repro.Graph, gname, src string, vars []string, pageSizes []int, seen *pageShapes) {
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
			page := checkPageBytes(t, data, qr.ID, pageSize, seen)
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
