package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// The /v1/count endpoint and the engine-mode configuration: counting by
// registered id and by inline `#x,y: φ` form, agreement with the
// enumerated stream, engine routing surfaced through /v1/stats, and the
// cross-engine identity of the served counts.

// TestCountByRegisteredID: count an id registered through /v1/query and
// cross-check against a full enumeration of the same query.
func TestCountByRegisteredID(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")

	resp, data := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	cr := mustDecode[CountResponse](t, data)
	if cr.ID != qr.ID || cr.Version != 0 || cr.Engine != string(repro.EngineCore) {
		t.Fatalf("unexpected count envelope: %+v", cr)
	}

	_, edata := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=10000")
	er := mustDecode[EnumerateResponse](t, edata)
	if !er.Done {
		t.Fatal("enumeration not exhausted at limit 10000")
	}
	if cr.Count != len(er.Solutions) {
		t.Fatalf("count %d != %d enumerated solutions", cr.Count, len(er.Solutions))
	}
	if !cr.Fast {
		t.Fatalf("binary far query should count via the fast path: %+v", cr)
	}
}

// TestCountInlineForm: the `#x,y: φ` body registers the query with the
// same deterministic id /v1/query would assign, so both routes converge.
func TestCountInlineForm(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, data := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Graph: "path", Query: "#x,y: dist(x,y) > 2 & C0(y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	cr := mustDecode[CountResponse](t, data)

	qr := registerQuery(t, ts.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")
	if cr.ID != qr.ID {
		t.Fatalf("inline count id %q != registered id %q", cr.ID, qr.ID)
	}
	if !qr.Cached {
		t.Fatal("inline count should have warmed the index the registration then hits")
	}

	// Same id counts again, now by reference.
	_, data2 := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: cr.ID})
	if cr2 := mustDecode[CountResponse](t, data2); cr2.Count != cr.Count {
		t.Fatalf("count by id %d != inline count %d", cr2.Count, cr.Count)
	}
}

// TestCountErrors walks the failure surface: missing parameters, unknown
// graph and id, and a malformed counting form.
func TestCountErrors(t *testing.T) {
	_, ts := testServer(t, nil)
	for _, c := range []struct {
		name string
		req  any
		code string
	}{
		{"empty request", CountRequest{}, ErrBadRequest},
		{"unknown graph", CountRequest{Graph: "nope", Query: "#x: C0(x)"}, ErrUnknownGraph},
		{"unknown id", CountRequest{ID: "deadbeefdeadbeef"}, ErrUnknownQuery},
		{"missing hash", CountRequest{Graph: "path", Query: "C0(x)"}, ErrBadRequest},
		{"undeclared variable", CountRequest{Graph: "path", Query: "#x: C0(y)"}, ErrBadRequest},
		{"malformed body", `{"graph": }`, ErrBadRequest},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/count", c.req)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: unexpectedly succeeded: %s", c.name, data)
		}
		if got := errCode(t, data); got != c.code {
			t.Fatalf("%s: error code %q, want %q", c.name, got, c.code)
		}
	}
}

// TestCountAfterMutation: counts follow the head version — a mutation
// changes the answer set and the next count reflects it against a fresh
// naive-free cross-check (the enumerated stream of the new head).
func TestCountAfterMutation(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y) & C0(x)", "x", "y")
	_, d0 := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
	before := mustDecode[CountResponse](t, d0)

	resp, mdata := postJSON(t, ts.URL+"/v1/mutate", MutateRequest{
		Graph: "path",
		Edits: []EditSpec{{Op: "add_edge", U: 0, V: 40}, {Op: "add_color", U: 0, Color: 0}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %s", mdata)
	}

	_, d1 := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
	after := mustDecode[CountResponse](t, d1)
	if after.Version != 1 {
		t.Fatalf("count answered at version %d, want the new head 1", after.Version)
	}
	_, edata := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=10000")
	er := mustDecode[EnumerateResponse](t, edata)
	if after.Count != len(er.Solutions) {
		t.Fatalf("post-mutation count %d != %d enumerated", after.Count, len(er.Solutions))
	}
	if after.Count == before.Count {
		t.Fatalf("adding an edge and a color left the count at %d; the mutation cannot have reached the index", before.Count)
	}
}

// TestServeEngineModes runs the same query under all three engine
// configurations and demands identical counts and pages, with the routing
// decision surfaced in /v1/stats.
func TestServeEngineModes(t *testing.T) {
	query, vars := "dist(x,y) > 2 & C0(y)", []string{"x", "y"}
	type result struct {
		count CountResponse
		first EnumerateResponse
	}
	results := map[repro.EngineKind]result{}
	for _, mode := range []repro.EngineKind{"", repro.EngineLowDeg, repro.EngineAuto} {
		_, ts := testServer(t, func(c *Config) { c.Engine = mode })
		qr := registerQuery(t, ts.URL, "path", query, vars...)
		_, cdata := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
		cr := mustDecode[CountResponse](t, cdata)
		_, edata := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=25")
		er := mustDecode[EnumerateResponse](t, edata)

		_, sdata := getJSON(t, ts.URL+"/v1/stats")
		st := mustDecode[StatsResponse](t, sdata)
		wantMode := mode
		if wantMode == "" {
			wantMode = repro.EngineCore
		}
		if st.Engine != string(wantMode) {
			t.Fatalf("mode %q: stats engine %q", mode, st.Engine)
		}
		if len(st.Queries) != 1 {
			t.Fatalf("mode %q: %d queries in stats", mode, len(st.Queries))
		}
		qs := st.Queries[0]
		if qs.Engine != cr.Engine {
			t.Fatalf("mode %q: stats engine %q != count engine %q", mode, qs.Engine, cr.Engine)
		}
		if qs.Selection == nil || qs.Selection.Chosen != repro.EngineKind(qs.Engine) {
			t.Fatalf("mode %q: selection not surfaced: %+v", mode, qs.Selection)
		}
		// The path graph has degree ≤ 2: lowdeg and auto must land on the
		// low-degree engine, the default on core.
		switch mode {
		case "":
			if qs.Engine != string(repro.EngineCore) {
				t.Fatalf("default mode routed to %q", qs.Engine)
			}
		case repro.EngineLowDeg, repro.EngineAuto:
			if qs.Engine != string(repro.EngineLowDeg) {
				t.Fatalf("mode %q routed to %q", mode, qs.Engine)
			}
		}
		if mode == repro.EngineAuto && (qs.Selection.MaxDegree < 1 || qs.Selection.MaxDegree > 2) {
			t.Fatalf("auto selection measured degree %d on a path", qs.Selection.MaxDegree)
		}
		results[mode] = result{count: cr, first: er}
	}
	base := results[""]
	for mode, r := range results {
		if r.count.Count != base.count.Count {
			t.Fatalf("mode %q count %d != default %d", mode, r.count.Count, base.count.Count)
		}
		if len(r.first.Solutions) != len(base.first.Solutions) {
			t.Fatalf("mode %q page size %d != default %d", mode, len(r.first.Solutions), len(base.first.Solutions))
		}
		for i := range r.first.Solutions {
			for j := range r.first.Solutions[i] {
				if r.first.Solutions[i][j] != base.first.Solutions[i][j] {
					t.Fatalf("mode %q solution %d differs: %v vs %v", mode, i, r.first.Solutions[i], base.first.Solutions[i])
				}
			}
		}
	}
}

// TestServeLowdegUsesSnapshotTier: with a snapshot directory configured, an
// auto server whose graph routes to lowdeg writes the index back like any
// other, and a restart — a second server on the same directory — answers
// from the file without building, and says in /v1/stats that what it serves
// is a lowdeg index.
func TestServeLowdegUsesSnapshotTier(t *testing.T) {
	dir := t.TempDir()
	auto := func(c *Config) {
		c.Engine = repro.EngineAuto
		c.SnapshotDir = dir
	}
	s, ts := testServer(t, auto)
	qr := registerQuery(t, ts.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")
	_, data := postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
	first := mustDecode[CountResponse](t, data)
	if first.Engine != string(repro.EngineLowDeg) {
		t.Fatalf("auto on a path graph served by %q", first.Engine)
	}
	if st := s.cache.Stats(); st.Builds != 1 || st.SnapshotWrites != 1 {
		t.Fatalf("first server: builds=%d snapWrites=%d, want 1/1", st.Builds, st.SnapshotWrites)
	}
	if _, err := os.Stat(filepath.Join(dir, qr.ID+".fodsnap")); err != nil {
		t.Fatalf("no snapshot file for the lowdeg-backed index: %v", err)
	}

	s2, ts2 := testServer(t, auto)
	registerQuery(t, ts2.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")
	_, data = postJSON(t, ts2.URL+"/v1/count", CountRequest{ID: qr.ID})
	if again := mustDecode[CountResponse](t, data); again.Count != first.Count || again.Engine != first.Engine {
		t.Fatalf("restarted server counts %d on %q, the first %d on %q", again.Count, again.Engine, first.Count, first.Engine)
	}
	if st := s2.cache.Stats(); st.Builds != 0 || st.SnapshotHits != 1 {
		t.Fatalf("restarted server: builds=%d snapHits=%d, want 0/1", st.Builds, st.SnapshotHits)
	}
	_, data = getJSON(t, ts2.URL+"/v1/stats")
	st := mustDecode[StatsResponse](t, data)
	if len(st.Queries) != 1 || st.Queries[0].Engine != string(repro.EngineLowDeg) ||
		st.Queries[0].Selection == nil || st.Queries[0].Selection.Requested != repro.EngineAuto {
		t.Fatalf("stats of the restored query: %+v", st.Queries)
	}
}
