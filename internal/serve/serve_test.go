package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// testServer spins up a Server over a standard set of small graphs behind
// an httptest listener.
func testServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Graphs: map[string]*repro.Graph{
			"path":   repro.Generate("path", 80, repro.GenOptions{Colors: 2, Seed: 11}),
			"sparse": repro.Generate("sparserandom", 60, repro.GenOptions{Colors: 2, Seed: 5}),
			"big":    repro.Generate("grid", 3600, repro.GenOptions{Colors: 1, Seed: 3}),
		},
		Metrics: obs.New(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s) // raw payloads for malformed-JSON tests
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// mustDecode unwraps the uniform {data, error, trace_id} envelope and
// returns the typed payload, failing on error responses.
func mustDecode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var env struct {
		Data  T        `json:"data"`
		Error *errBody `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if env.Error != nil {
		t.Fatalf("error envelope where data was expected: %s", data)
	}
	return env.Data
}

func errCode(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Data  json.RawMessage `json:"data"`
		Error *errBody        `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if env.Error == nil {
		t.Fatalf("success envelope where an error was expected: %s", data)
	}
	if len(env.Data) > 0 {
		t.Fatalf("envelope carries both data and error: %s", data)
	}
	return env.Error.Code
}

// registerQuery registers a query and returns its id.
func registerQuery(t *testing.T, base, graph, query string, vars ...string) QueryResponse {
	t.Helper()
	resp, data := postJSON(t, base+"/v1/query", QueryRequest{Graph: graph, Query: query, Vars: vars})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %q: status %d: %s", query, resp.StatusCode, data)
	}
	return mustDecode[QueryResponse](t, data)
}

func TestQueryRegisterHappyPath(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")
	if qr.Arity != 2 || qr.ID == "" || qr.Graph != "path" {
		t.Fatalf("bad response: %+v", qr)
	}
	if qr.Cached {
		t.Fatal("first registration reported cached")
	}
	// Same query, different spelling: same deterministic id, now cached.
	qr2 := registerQuery(t, ts.URL, "path", "dist(x , y)>2&C0(y)", "x", "y")
	if qr2.ID != qr.ID {
		t.Fatalf("canonicalization failed: %q vs %q", qr2.ID, qr.ID)
	}
	if !qr2.Cached {
		t.Fatal("re-registration did not hit the cache")
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := testServer(t, nil)
	cases := []struct {
		name    string
		body    any
		status  int
		errcode string
	}{
		{"malformed JSON", `{"graph": "path", `, http.StatusBadRequest, ErrBadRequest},
		{"unknown field", `{"graph":"path","nope":1}`, http.StatusBadRequest, ErrBadRequest},
		{"missing fields", QueryRequest{Graph: "path"}, http.StatusBadRequest, ErrBadRequest},
		{"unknown graph", QueryRequest{Graph: "nope", Query: "C0(x)", Vars: []string{"x"}}, http.StatusNotFound, ErrUnknownGraph},
		{"parse error", QueryRequest{Graph: "path", Query: "C0(x", Vars: []string{"x"}}, http.StatusBadRequest, ErrBadRequest},
		{"compile error", QueryRequest{Graph: "path", Query: "C0(x)", Vars: []string{"x", "x"}}, http.StatusBadRequest, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/v1/query", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if c := errCode(t, data); c != tc.errcode {
				t.Fatalf("error code %q, want %q", c, tc.errcode)
			}
		})
	}
}

func TestEnumerateHappyAndErrors(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y) & C0(x)", "x", "y")

	resp, data := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	page := mustDecode[EnumerateResponse](t, data)
	if page.Count != len(page.Solutions) || page.Limit != 5 {
		t.Fatalf("bad page bookkeeping: %+v", page)
	}
	if !page.Done && page.NextCursor == "" {
		t.Fatal("undrained page without cursor")
	}

	// Unknown query id.
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?query=deadbeef")
	if resp.StatusCode != http.StatusNotFound || errCode(t, data) != ErrUnknownQuery {
		t.Fatalf("unknown query: status %d, %s", resp.StatusCode, data)
	}
	// No query, no cursor.
	resp, data = getJSON(t, ts.URL+"/v1/enumerate")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrBadRequest {
		t.Fatalf("missing query: status %d, %s", resp.StatusCode, data)
	}
	// Undecodable cursor.
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?cursor=%21%21%21")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrInvalidCursor {
		t.Fatalf("bad cursor: status %d, %s", resp.StatusCode, data)
	}
	// Cursor bound to a different query id than ?query=.
	other := registerQuery(t, ts.URL, "path", "C0(x)", "x")
	cur := encodeCursor(other.ID, 0, []int{0})
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&cursor="+cur)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrInvalidCursor {
		t.Fatalf("cross-query cursor: status %d, %s", resp.StatusCode, data)
	}
	// Cursor with wrong arity.
	cur = encodeCursor(qr.ID, 0, []int{1, 2, 3})
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?cursor="+cur)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrInvalidCursor {
		t.Fatalf("wrong-arity cursor: status %d, %s", resp.StatusCode, data)
	}
	// Bad limit.
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=zzz")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrBadRequest {
		t.Fatalf("bad limit: status %d, %s", resp.StatusCode, data)
	}
}

func TestEnumerateLimitCap(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.MaxLimit = 7 })
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")
	resp, data := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=1000000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	page := mustDecode[EnumerateResponse](t, data)
	if page.Limit != 7 || len(page.Solutions) > 7 {
		t.Fatalf("limit cap not applied: limit=%d count=%d", page.Limit, page.Count)
	}
	if page.Done || page.NextCursor == "" {
		t.Fatalf("a path with 80 vertices has > 7 edges; page claims done=%v", page.Done)
	}
}

func TestTestAndNextEndpoints(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")

	// On the path graph, (0,1) is an edge, (0,2) is not.
	resp, data := postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{0, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("test: status %d: %s", resp.StatusCode, data)
	}
	if tr := mustDecode[TestResponse](t, data); !tr.Solution {
		t.Fatal("(0,1) should be a solution of E(x,y) on a path")
	}
	_, data = postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{0, 2}})
	if tr := mustDecode[TestResponse](t, data); tr.Solution {
		t.Fatal("(0,2) should not be a solution of E(x,y) on a path")
	}

	resp, data = postJSON(t, ts.URL+"/v1/next", TupleRequest{ID: qr.ID, Tuple: []int{0, 0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next: status %d: %s", resp.StatusCode, data)
	}
	nr := mustDecode[NextResponse](t, data)
	if !nr.Found || len(nr.Solution) != 2 {
		t.Fatalf("next(0,0): %+v", nr)
	}
	if nr.Solution[0] != 0 || nr.Solution[1] != 1 {
		t.Fatalf("next(0,0) = %v, want [0 1]", nr.Solution)
	}

	// Errors: unknown id, wrong arity, out-of-range component.
	resp, data = postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: "nope", Tuple: []int{0, 1}})
	if resp.StatusCode != http.StatusNotFound || errCode(t, data) != ErrUnknownQuery {
		t.Fatalf("unknown id: status %d, %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: qr.ID, Tuple: []int{0}})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrBadRequest {
		t.Fatalf("wrong arity: status %d, %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/next", TupleRequest{ID: qr.ID, Tuple: []int{0, 10_000}})
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrBadRequest {
		t.Fatalf("out of range: status %d, %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/next", `{"id": 5}`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, data) != ErrBadRequest {
		t.Fatalf("malformed body: status %d, %s", resp.StatusCode, data)
	}
}

func TestStatsAndFlush(t *testing.T) {
	_, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "C0(x)", "x")

	resp, data := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, data)
	}
	st := mustDecode[StatsResponse](t, data)
	if _, ok := st.Graphs["path"]; !ok || len(st.Graphs) != 3 {
		t.Fatalf("stats graphs: %+v", st.Graphs)
	}
	if len(st.Queries) != 1 || st.Queries[0].ID != qr.ID {
		t.Fatalf("stats queries: %+v", st.Queries)
	}
	if st.Cache.Builds != 1 || st.Cache.Size != 1 {
		t.Fatalf("stats cache: %+v", st.Cache)
	}
	if len(st.Metrics) == 0 || !strings.Contains(string(st.Metrics), "serve.http.query_ns") {
		t.Fatal("stats is missing the metrics snapshot")
	}

	resp, data = postJSON(t, ts.URL+"/v1/cache/flush", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d: %s", resp.StatusCode, data)
	}
	if fr := mustDecode[FlushResponse](t, data); fr.Flushed != 1 {
		t.Fatalf("flushed %d entries, want 1", fr.Flushed)
	}
	// The query survives the flush; the next page transparently rebuilds.
	resp, data = getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-flush enumerate: status %d: %s", resp.StatusCode, data)
	}
}

func TestDebugMetricsExposed(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, data := getJSON(t, ts.URL+"/debug/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("/debug/metrics is not a snapshot: %v", err)
	}
}

// TestDeadlineExceededDuringBuild: a request whose deadline passes during
// the build aborts with 504 deadline_exceeded, and — its flight having
// lost its only waiter — the underlying build is canceled. A retry that
// arrives while the canceled build is still unwinding (parked on a hook
// here, so nothing depends on timing) builds afresh and succeeds.
func TestDeadlineExceededDuringBuild(t *testing.T) {
	s, ts := testServer(t, nil)
	bt := buildTier(s)
	build := bt.load
	var builds atomic.Int64
	parked := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	bt.load = func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) > 1 {
			return build(ctx, key)
		}
		close(parked)
		<-release // a phase that outlasts the deadline and the retry
		return nil, ctx.Err()
	}
	body := QueryRequest{Graph: "big", Query: "dist(x,y) > 2 & C0(y)", Vars: []string{"x", "y"}}
	resp, data := postJSON(t, ts.URL+"/v1/query?timeout_ms=50", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if c := errCode(t, data); c != ErrDeadlineExceeded {
		t.Fatalf("error code %q, want %q", c, ErrDeadlineExceeded)
	}
	select {
	case <-parked:
	default:
		t.Fatal("the deadline passed before the build started")
	}
	// The canceled flight must not poison the key. Were the retry to join
	// it, it would wait for release and time out.
	resp, data = postJSON(t, ts.URL+"/v1/query?timeout_ms=60000", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry beside a canceled build: status %d: %s", resp.StatusCode, data)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

// TestCanceledBuildOnServingServer: a build that fails with
// context.Canceled while the server is not draining is an internal error,
// not 503 shutting_down — a healthy server must not tell clients to leave.
func TestCanceledBuildOnServingServer(t *testing.T) {
	s, ts := testServer(t, nil)
	buildTier(s).load = func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		return nil, fmt.Errorf("build: %w", context.Canceled)
	}
	body := QueryRequest{Graph: "big", Query: "dist(x,y) > 2 & C0(y)", Vars: []string{"x", "y"}}
	resp, data := postJSON(t, ts.URL+"/v1/query", body)
	if resp.StatusCode != http.StatusInternalServerError || errCode(t, data) != ErrInternal {
		t.Fatalf("status %d code %q, want 500 %q: %s", resp.StatusCode, errCode(t, data), ErrInternal, data)
	}
}

// TestSingleflightStress: N concurrent registrations of the same uncached
// query must trigger exactly one build.
func TestSingleflightStress(t *testing.T) {
	s, ts := testServer(t, nil)
	const clients = 24
	body, _ := json.Marshal(QueryRequest{Graph: "big", Query: "E(x,y) & C0(x)", Vars: []string{"x", "y"}})

	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	start.Done()
	done.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("client %d: status %d", i, c)
		}
	}
	cs := s.cache.Stats()
	if cs.Builds != 1 {
		t.Fatalf("singleflight failed: %d builds for %d concurrent clients (stats %+v)", cs.Builds, clients, cs)
	}
	if cs.FlightShared+cs.Hits != clients-1 {
		t.Fatalf("accounting: shared %d + hits %d != %d", cs.FlightShared, cs.Hits, clients-1)
	}
}

// TestConcurrentMixedTraffic hammers every endpoint at once; run under
// -race this doubles as the serving layer's concurrency audit.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := testServer(t, func(c *Config) { c.CacheSize = 2 })
	q1 := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")
	q2 := registerQuery(t, ts.URL, "sparse", "C0(x)", "x")
	q3 := registerQuery(t, ts.URL, "path", "dist(x,y) > 2 & C0(y)", "x", "y")
	ids := []string{q1.ID, q2.ID, q3.ID}

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i%len(ids)]
			for j := 0; j < 15; j++ {
				switch j % 5 {
				case 0:
					resp, _ := getJSON(t, ts.URL+"/v1/enumerate?query="+id+"&limit=4")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("enumerate: %d", resp.StatusCode)
					}
				case 1:
					resp, _ := postJSON(t, ts.URL+"/v1/test", TupleRequest{ID: id, Tuple: make([]int, lenOf(id, ids, 2, 1, 2))})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("test: %d", resp.StatusCode)
					}
				case 2:
					resp, _ := getJSON(t, ts.URL+"/v1/stats")
					if resp.StatusCode != http.StatusOK {
						t.Errorf("stats: %d", resp.StatusCode)
					}
				case 3:
					resp, _ := postJSON(t, ts.URL+"/v1/cache/flush", `{}`)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("flush: %d", resp.StatusCode)
					}
				case 4:
					resp, _ := postJSON(t, ts.URL+"/v1/next", TupleRequest{ID: id, Tuple: make([]int, lenOf(id, ids, 2, 1, 2))})
					if resp.StatusCode != http.StatusOK {
						t.Errorf("next: %d", resp.StatusCode)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// lenOf maps a query id back to its arity for tuple construction.
func lenOf(id string, ids []string, arities ...int) int {
	for i, x := range ids {
		if x == id {
			return arities[i]
		}
	}
	return 1
}

// TestGracefulShutdown: requests in flight before Shutdown complete;
// requests after it get 503 shutting_down.
func TestGracefulShutdown(t *testing.T) {
	s, ts := testServer(t, nil)
	qr := registerQuery(t, ts.URL, "path", "E(x,y)", "x", "y")

	// Occupy the server with a slow-ish page stream, then shut down.
	done := make(chan int, 1)
	go func() {
		resp, _ := getJSON(t, ts.URL+"/v1/enumerate?query="+qr.ID+"&limit=100000")
		done <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond) // let the request enter

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if code := <-done; code != http.StatusOK && code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight request: status %d", code)
	}
	resp, data := getJSON(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, data) != ErrShuttingDown {
		t.Fatalf("post-shutdown request: status %d, %s", resp.StatusCode, data)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// buildTier is the last tier of the server's cache, the full build, for
// tests that stand in for it.
func buildTier(s *Server) *cacheTier { return &s.cache.tiers[len(s.cache.tiers)-1] }

// encodeCursor is appendCursor as a string, for tests that forge cursors.
func encodeCursor(queryID string, version int, last []int) string {
	return string(appendCursor(nil, queryID, version, last))
}
