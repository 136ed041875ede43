package serve

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/obs"
)

// encodeLegacyCursor builds a pre-versioning "v1" cursor, as clients from
// before the mutation API would still hold.
func encodeLegacyCursor(queryID string, last []int) string {
	fields := []string{"v1", queryID}
	for _, v := range last {
		fields = append(fields, strconv.Itoa(v))
	}
	return base64.RawURLEncoding.EncodeToString([]byte(strings.Join(fields, " ")))
}

// mutateGraph asks the server to apply an edit batch and returns the
// response, failing on non-200.
func mutateGraph(t *testing.T, base, graph string, edits []EditSpec) MutateResponse {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/mutate", MutateRequest{Graph: graph, Edits: edits})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, data)
	}
	return mustDecode[MutateResponse](t, data)
}

// drainStream pages through /v1/enumerate from the given cursor (or the
// head when empty) and returns the concatenated solutions.
func drainStream(t *testing.T, base, id, cursor string, pageSize int) [][]int {
	t.Helper()
	var got [][]int
	for {
		url := fmt.Sprintf("%s/v1/enumerate?query=%s&limit=%d", base, id, pageSize)
		if cursor != "" {
			url = fmt.Sprintf("%s/v1/enumerate?cursor=%s&limit=%d", base, cursor, pageSize)
		}
		resp, data := getJSON(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("enumerate: status %d: %s", resp.StatusCode, data)
		}
		page := mustDecode[EnumerateResponse](t, data)
		got = append(got, page.Solutions...)
		if page.Done {
			return got
		}
		cursor = page.NextCursor
	}
}

// TestMutateEndpoint: an effective batch publishes a new version whose
// answers match a from-scratch build on the patched graph, served through
// the incremental migration path rather than a rebuild.
func TestMutateEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")
	if qr.Version != 0 {
		t.Fatalf("fresh registration at version %d, want 0", qr.Version)
	}

	edits := []EditSpec{
		{Op: "remove_edge", U: 3, V: 4},
		{Op: "add_edge", U: 0, V: 7},
	}
	mr := mutateGraph(t, ts.URL, "path", edits)
	if mr.Version != 1 || mr.NoOp || mr.Applied != 2 {
		t.Fatalf("mutate response: %+v", mr)
	}

	// Oracle: a fresh index over the same edits applied out of band.
	g := repro.Generate("path", 80, repro.GenOptions{Colors: 2, Seed: 11})
	gNew, err := repro.PatchGraph(g, []repro.Edit{repro.RemoveEdge(3, 4), repro.AddEdge(0, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := repro.Build(context.Background(), gNew, repro.MustParseQuery("E(x,y)", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	ix.Enumerate(func(sol []int) bool {
		want = append(want, append([]int(nil), sol...))
		return true
	})

	got := drainStream(t, ts.URL, qr.ID, "", 7)
	if !reflect.DeepEqual(norm(got), norm(want)) {
		t.Fatalf("post-mutation stream diverged from rebuild: got %d sols, want %d", len(got), len(want))
	}

	// The head index must have been derived by edit-log replay from the
	// resident version-0 index, not rebuilt: registration was the only
	// full build.
	cs := s.cache.Stats()
	if cs.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 (stats %+v)", cs.Migrations, cs)
	}
	if cs.Builds != 1 {
		t.Fatalf("builds = %d, want 1 — the mutated version should migrate, not rebuild", cs.Builds)
	}
	// The migration applied the batch to the graph Mutate had patched: the
	// head index answers over the server's head graph itself, not over a
	// second patch of its predecessor's.
	head, ok := s.cache.Peek(cacheKey{graph: "path", version: 1, canonical: s.queries[qr.ID].canonical})
	if !ok {
		t.Fatal("no index of version 1 resident after the stream was served")
	}
	if head.Graph() != s.graphs["path"].Head().g {
		t.Fatal("the head index holds a graph of its own: a write patched the graph twice")
	}

	// /v1/test and /v1/next answer at the new head.
	_, data := postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{3, 4}})
	if tr := mustDecode[TestResponse](t, data); tr.Solution || tr.Version != 1 {
		t.Fatalf("test after removal: %+v", tr)
	}
	_, data = postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{0, 7}})
	if tr := mustDecode[TestResponse](t, data); !tr.Solution {
		t.Fatalf("test after insertion: %+v", tr)
	}

	// Stats carries the version and retention window.
	_, data = getJSON(t, ts.URL+"/v1/stats")
	st := mustDecode[StatsResponse](t, data)
	if gst := st.Graphs["path"]; gst.Version != 1 || !reflect.DeepEqual(gst.Retained, []int{0, 1}) {
		t.Fatalf("stats graph state: %+v", gst)
	}
	if st.Graphs["path"].M != mr.M {
		t.Fatalf("stats M=%d, mutate reported M=%d", st.Graphs["path"].M, mr.M)
	}
}

// TestMutateCursorPinsVersion: a cursor minted before a mutation keeps
// paging the old snapshot — the combined stream is byte-identical to the
// unmutated stream — while cursorless requests see the new head.
func TestMutateCursorPinsVersion(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")

	before := drainStream(t, ts.URL, qr.ID, "", 1<<20)

	// Take one small page, hold its cursor across a mutation.
	resp, data := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first page: %d: %s", resp.StatusCode, data)
	}
	first := mustDecode[EnumerateResponse](t, data)
	if first.Done || first.NextCursor == "" || first.Version != 0 {
		t.Fatalf("first page: %+v", first)
	}

	mutateGraph(t, ts.URL, "path", []EditSpec{{Op: "remove_edge", U: 10, V: 11}})

	rest := drainStream(t, ts.URL, qr.ID, first.NextCursor, 7)
	combined := append(append([][]int(nil), first.Solutions...), rest...)
	if !reflect.DeepEqual(norm(combined), norm(before)) {
		t.Fatalf("pinned stream drifted under mutation: got %d sols, want %d", len(combined), len(before))
	}

	// A cursorless enumeration reads the mutated head: the removed edge
	// is gone.
	head := drainStream(t, ts.URL, qr.ID, "", 1<<20)
	if len(head) != len(before)-2 { // undirected edge = two ordered tuples
		t.Fatalf("head stream has %d sols, want %d", len(head), len(before)-2)
	}
}

// TestMutateVersionGone: a cursor whose version has left the retention
// window answers 410 version_gone; a legacy v1 cursor (no version) is
// still accepted and resumes at the head.
func TestMutateVersionGone(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.RetainVersions = 1 })
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")

	resp, data := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first page: %d: %s", resp.StatusCode, data)
	}
	pinned := mustDecode[EnumerateResponse](t, data).NextCursor
	if pinned == "" {
		t.Fatal("no cursor to pin")
	}

	// Two effective mutations push version 0 out of a retain=1 window.
	mutateGraph(t, ts.URL, "path", []EditSpec{{Op: "remove_edge", U: 20, V: 21}})
	mutateGraph(t, ts.URL, "path", []EditSpec{{Op: "remove_edge", U: 30, V: 31}})

	resp, data = getJSON(t, ts.URL+"/v1/enumerate?cursor="+pinned)
	if resp.StatusCode != http.StatusGone || errCode(t, data) != ErrVersionGone {
		t.Fatalf("GC'd version: status %d, %s (want 410 %s)", resp.StatusCode, data, ErrVersionGone)
	}

	// The same position as a v1 cursor resumes — at the current head.
	_, _, last, err := decodeCursor(pinned)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeLegacyCursor(qr.ID, last)
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?cursor="+v1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 cursor: status %d: %s", resp.StatusCode, data)
	}
	if page := mustDecode[EnumerateResponse](t, data); page.Version != 2 {
		t.Fatalf("v1 cursor served at version %d, want head 2", page.Version)
	}
}

// TestHeadRequestsRetryAGoneHead forces the race a head-resolved request
// can lose: between resolving the head and building its index, two writes
// push that head out of a retain=1 window, so the build reports it gone.
// /v1/test, /v1/next, /v1/count and a cursorless /v1/enumerate answer 200 at
// the new head; a cursor pinned to the lost version still answers 410.
func TestHeadRequestsRetryAGoneHead(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.RetainVersions = 1 })
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")
	gs := s.graphs["path"]
	// write toggles one edge, so that every write publishes a version. The
	// race tier calls it from a build flight's goroutine: t.Errorf, not
	// t.Fatalf.
	write := func() {
		op := repro.OpRemoveEdge
		if !gs.Head().g.HasEdge(10, 11) {
			op = repro.OpAddEdge
		}
		if _, noop, err := gs.Mutate([]repro.Edit{{Op: op, U: 10, V: 11}}); err != nil || noop {
			t.Errorf("write: noop=%v, %v", noop, err)
		}
	}
	// An armed tier in front of the others lets two writes land on the
	// next miss before any tier produces the index it was asked for.
	var armed atomic.Bool
	race := cacheTier{span: "test.race", counter: new(obs.Counter), load: func(context.Context, cacheKey) (*repro.Index, error) {
		if armed.CompareAndSwap(true, false) {
			write()
			write()
		}
		return nil, nil
	}}
	s.cache.tiers = append([]cacheTier{race}, s.cache.tiers...)

	// prime moves the head to a version no index exists for and arms the
	// race; it returns the version the request will answer at.
	prime := func() int {
		write()
		armed.Store(true)
		return gs.Head().version + 2
	}
	tuple := []int{3, 4}
	for _, probe := range []struct {
		name string
		get  func() (*http.Response, []byte)
		ver  func([]byte) int
	}{
		{"test", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: tuple})
		}, func(d []byte) int { return mustDecode[TestResponse](t, d).Version }},
		{"next", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/next", TupleRequest{ID: qr.ID, Tuple: tuple})
		}, func(d []byte) int { return mustDecode[NextResponse](t, d).Version }},
		{"count", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/count", CountRequest{ID: qr.ID})
		}, func(d []byte) int { return mustDecode[CountResponse](t, d).Version }},
		{"enumerate", func() (*http.Response, []byte) {
			return getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=3")
		}, func(d []byte) int { return mustDecode[EnumerateResponse](t, d).Version }},
	} {
		want := prime()
		resp, data := probe.get()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s across a lost head: status %d: %s", probe.name, resp.StatusCode, data)
		}
		if got := probe.ver(data); got != want || armed.Load() {
			t.Fatalf("%s answered at version %d, want the new head %d (race fired: %v)", probe.name, got, want, !armed.Load())
		}
	}

	// A cursor names its version: lost, it stays lost.
	pinned := encodeCursor(qr.ID, prime()-2, tuple)
	resp, data := getJSON(t, ts.URL+"/v1/enumerate?cursor="+pinned)
	if resp.StatusCode != http.StatusGone || errCode(t, data) != ErrVersionGone || armed.Load() {
		t.Fatalf("pinned cursor across a lost version: status %d, %s (want 410 %s)", resp.StatusCode, data, ErrVersionGone)
	}
}

// TestMutateNoOpAndErrors: identity batches publish nothing; malformed
// batches are rejected with 400/404 before any state changes.
func TestMutateNoOpAndErrors(t *testing.T) {
	_, ts := testServer(t, nil)

	// Identity: removing an absent edge plus an add/remove pair.
	mr := mutateGraph(t, ts.URL, "path", []EditSpec{
		{Op: "remove_edge", U: 0, V: 50},
		{Op: "add_edge", U: 5, V: 60},
		{Op: "remove_edge", U: 5, V: 60},
	})
	if !mr.NoOp || mr.Version != 0 {
		t.Fatalf("identity batch: %+v", mr)
	}

	cases := []struct {
		name    string
		body    any
		status  int
		errcode string
	}{
		{"unknown graph", MutateRequest{Graph: "nope", Edits: []EditSpec{{Op: "add_edge", U: 0, V: 1}}}, http.StatusNotFound, ErrUnknownGraph},
		{"empty batch", MutateRequest{Graph: "path"}, http.StatusBadRequest, ErrBadRequest},
		{"unknown op", MutateRequest{Graph: "path", Edits: []EditSpec{{Op: "recolor", U: 0}}}, http.StatusBadRequest, ErrBadRequest},
		{"vertex out of range", MutateRequest{Graph: "path", Edits: []EditSpec{{Op: "add_edge", U: 0, V: 9999}}}, http.StatusBadRequest, ErrBadRequest},
		{"color out of range", MutateRequest{Graph: "path", Edits: []EditSpec{{Op: "add_color", U: 0, Color: 99}}}, http.StatusBadRequest, ErrBadRequest},
		{"malformed JSON", `{"graph": `, http.StatusBadRequest, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/mutate", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if c := errCode(t, data); c != tc.errcode {
				t.Fatalf("error code %q, want %q", c, tc.errcode)
			}
		})
	}

	// A rejected batch must not have bumped the version.
	_, data := getJSON(t, ts.URL+"/v1/stats")
	if st := mustDecode[StatsResponse](t, data); st.Graphs["path"].Version != 0 {
		t.Fatalf("rejected batches changed the version: %+v", st.Graphs["path"])
	}
}

// TestMutateConcurrentReadersAndWriters hammers reads across writer
// version bumps; under -race this is the versioned serving layer's
// concurrency audit. Readers paging with pinned cursors tolerate 410
// (their version may expire) but never see a malformed stream.
func TestMutateConcurrentReadersAndWriters(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.CacheSize = 16 })
	qr := registerQuery(t, ts.URL, "sparse", "E(x,y)", "x", "y")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cursor := ""
			for j := 0; j < 20; j++ {
				if w%2 == 0 { // pinned pagers
					url := ts.URL + "/v1/enumerate?query=" + qr.ID + "&limit=3"
					if cursor != "" {
						url = ts.URL + "/v1/enumerate?cursor=" + cursor + "&limit=3"
					}
					resp, data := getJSON(t, url)
					switch resp.StatusCode {
					case http.StatusOK:
						page := mustDecode[EnumerateResponse](t, data)
						cursor = page.NextCursor
						if page.Done {
							cursor = ""
						}
					case http.StatusGone:
						cursor = "" // version expired mid-stream: restart at head
					default:
						t.Errorf("enumerate: %d: %s", resp.StatusCode, data)
						return
					}
				} else { // point probes at the head
					resp, data := postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{j % 60, (j * 7) % 60}})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("test: %d: %s", resp.StatusCode, data)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		u, v := (i*13)%60, (i*29+1)%60
		if u == v {
			continue
		}
		resp, data := postJSON(t, ts.URL+"/v1/mutate",
			MutateRequest{Graph: "sparse", Edits: []EditSpec{{Op: "add_edge", U: u, V: v}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: %d: %s", i, resp.StatusCode, data)
		}
	}
	wg.Wait()
}
