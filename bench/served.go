package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"time"

	"repro"
	"repro/internal/serve"
)

var graphNames = [2]string{"large", "small"}

// apiError and reply mirror the server's response envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type reply[T any] struct {
	Data  T         `json:"data"`
	Error *apiError `json:"error"`
}

// client is one closed-loop connection: its own transport with a single
// keep-alive connection, so "two clients" means two connections.
type client struct {
	base string
	http *http.Client
	// verify accumulates the time spent decoding and checking replies,
	// which is off the clock.
	verify time.Duration
	reqs   int
	flat   []int // decodePage's buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the body and the time from sending to
// the last byte. body is nil for GET. A non-2xx status is an error.
func (c *client) do(method, path string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	c.reqs++
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, d, nil
}

// call is do plus decoding the enveloped payload into out, off the clock.
func call[T any](c *client, method, path string, in any, out *T) (time.Duration, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	raw, d, err := c.do(method, path, body)
	if err != nil {
		return d, err
	}
	v0 := time.Now()
	var rep reply[T]
	err = json.Unmarshal(raw, &rep)
	c.verify += time.Since(v0)
	if err != nil {
		return d, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	if rep.Error != nil {
		return d, fmt.Errorf("%s %s: %s: %s", method, path, rep.Error.Code, rep.Error.Message)
	}
	*out = rep.Data
	return d, nil
}

// host is one running server: the serve.Server, its loopback listener and
// the ids of the workload's query on both graphs.
type host struct {
	srv *serve.Server
	ts  *httptest.Server
	ids [2]string
}

func startHost(w workloadSpec, g [2]*repro.Graph, snapDir string) *host {
	cfg := serve.Config{
		Graphs:      map[string]*repro.Graph{graphNames[large]: g[large], graphNames[small]: g[small]},
		Engine:      w.Engine,
		SnapshotDir: snapDir,
	}
	srv := serve.NewServer(cfg)
	return &host{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (h *host) stop() {
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx) // nothing is in flight once the listener is closed
}

// snapStore is the snapshot tier of a run: one directory and, for a served
// workload, one host whose misses load from it. It outlives the run's
// targets, which come and go with the rounds.
type snapStore struct {
	dir  string
	host *host // started on first use
	cl   *client
	// lib, per size: 0 not tried, 1 snapshot on disk, 2 the engine refused
	// (lowdeg), so restore means rebuild.
	lib [2]int
}

func (s *snapStore) close() {
	if s.host != nil {
		s.cl.close()
		s.host.stop()
	}
	os.RemoveAll(s.dir)
}

// servedTarget drives the system over loopback HTTP. The main host has no
// snapshot directory (its misses build); the misses of the run's snapshot
// host load from disk.
type servedTarget struct {
	w     workloadSpec
	g     [2]*repro.Graph
	main  *host
	cl    *client // connection to the main host
	snaps *snapStore
}

func newServedTarget(w workloadSpec, g [2]*repro.Graph, snaps *snapStore) *servedTarget {
	t := &servedTarget{w: w, g: g, snaps: snaps}
	t.main = startHost(w, g, "")
	t.cl = newClient(t.main.ts.URL)
	return t
}

// register posts the workload's query for graph sz: a build when the index
// is not resident, a cache hit otherwise.
func register(c *client, h *host, w workloadSpec, sz size) (time.Duration, error) {
	var out serve.QueryResponse
	d, err := call(c, http.MethodPost, "/v1/query",
		serve.QueryRequest{Graph: graphNames[sz], Query: w.Query.Src, Vars: w.Query.Vars}, &out)
	if err == nil {
		h.ids[sz] = out.ID
	}
	return d, err
}

func flush(c *client) error {
	var out serve.FlushResponse
	_, err := call(c, http.MethodPost, "/v1/cache/flush", nil, &out)
	return err
}

// coldOn is a cold start on one host, whose cache must not hold the index:
// the registration that has to obtain it, then the first page.
func coldOn(c *client, h *host, w workloadSpec, sz size) (time.Duration, error) {
	d1, err := register(c, h, w, sz)
	if err != nil {
		return 0, err
	}
	var page serve.EnumerateResponse
	d2, err := call(c, http.MethodGet, "/v1/enumerate?query="+h.ids[sz]+"&limit="+strconv.Itoa(firstPage), nil, &page)
	if err != nil {
		return 0, err
	}
	if page.Count != len(page.Solutions) || page.Count == 0 {
		return 0, fmt.Errorf("cold start on %s: first page holds %d solutions, count %d", graphNames[sz], len(page.Solutions), page.Count)
	}
	return d1 + d2, nil
}

// evict flushes the main host's cache: a flush empties the whole of it.
func (t *servedTarget) evict() error { return flush(t.cl) }

func (t *servedTarget) cold(sz size) (time.Duration, error) {
	return coldOn(t.cl, t.main, t.w, sz)
}

func (t *servedTarget) restore(sz size) (time.Duration, error) {
	s := t.snaps
	if s.host == nil {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return 0, err
		}
		s.host = startHost(t.w, t.g, s.dir)
		s.cl = newClient(s.host.ts.URL)
		// The first registration builds and writes the snapshot back.
		for sz := large; sz <= small; sz++ {
			if _, err := register(s.cl, s.host, t.w, sz); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(s.cl); err != nil {
		return 0, err
	}
	return coldOn(s.cl, s.host, t.w, sz)
}

func (t *servedTarget) warm() error {
	for sz := large; sz <= small; sz++ {
		if _, err := register(t.cl, t.main, t.w, sz); err != nil {
			return err
		}
	}
	return nil
}

// scanOn fetches the next page of st over connection c.
func (t *servedTarget) scanOn(c *client, st *stream, limit int) (time.Duration, error) {
	path := "/v1/enumerate?limit=" + strconv.Itoa(limit)
	if st.token != "" {
		path += "&cursor=" + url.QueryEscape(st.token)
	} else {
		path += "&query=" + t.main.ids[st.sz]
	}
	raw, d, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return d, err
	}
	v0 := time.Now()
	page, flat, err := decodePage(raw, c.flat[:0])
	if err != nil {
		return d, fmt.Errorf("GET %s: %w", path, err)
	}
	c.flat = flat
	st.accept(flat, len(t.w.Query.Vars), page.Count, page.Done)
	st.token = page.NextCursor
	c.verify += time.Since(v0)
	return d, nil
}

// decodePage decodes an enveloped /v1/enumerate reply. The solutions array
// — up to 10 000 tuples — is scanned by hand into flat (reused from page to
// page), because decoding it through encoding/json costs the client as
// much time and as many allocations as the server spent producing it; the
// rest of the reply goes through the wire type.
func decodePage(raw []byte, flat []int) (serve.EnumerateResponse, []int, error) {
	var rep reply[serve.EnumerateResponse]
	rest := raw
	key := []byte(`"solutions":`)
	if at := bytes.Index(raw, key); at >= 0 {
		open := at + len(key) + bytes.IndexByte(raw[at+len(key):], '[')
		depth, num, inNum := 0, 0, false
		end := -1
		for i := open; i < len(raw) && end < 0; i++ {
			switch b := raw[i]; {
			case b >= '0' && b <= '9':
				num, inNum = num*10+int(b-'0'), true
				continue
			case b == '[':
				depth++
			case b == ']':
				if depth--; depth == 0 {
					end = i
				}
			case b == '-':
				return rep.Data, flat, fmt.Errorf("negative vertex in solutions")
			}
			if inNum {
				flat = append(flat, num)
				num, inNum = 0, false
			}
		}
		if end < 0 {
			return rep.Data, flat, fmt.Errorf("solutions array is not closed")
		}
		rest = make([]byte, 0, len(raw)-(end-open)+1)
		rest = append(append(append(rest, raw[:open]...), "[]"...), raw[end+1:]...)
	}
	if err := json.Unmarshal(rest, &rep); err != nil {
		return rep.Data, flat, err
	}
	if rep.Error != nil {
		return rep.Data, flat, fmt.Errorf("%s: %s", rep.Error.Code, rep.Error.Message)
	}
	return rep.Data, flat, nil
}

func (t *servedTarget) scan(st *stream, limit int) (time.Duration, error) {
	return t.scanOn(t.cl, st, limit)
}

func (t *servedTarget) testOn(c *client, tu []int) (bool, time.Duration, error) {
	var out serve.TestResponse
	d, err := call(c, http.MethodPost, "/v1/test", serve.TupleRequest{ID: t.main.ids[large], Tuple: tu}, &out)
	return out.Solution, d, err
}

func (t *servedTarget) nextOn(c *client, tu []int) ([]int, time.Duration, error) {
	var out serve.NextResponse
	d, err := call(c, http.MethodPost, "/v1/next", serve.TupleRequest{ID: t.main.ids[large], Tuple: tu}, &out)
	if !out.Found {
		return nil, d, err
	}
	return out.Solution, d, err
}

func (t *servedTarget) countOn(c *client) (int, time.Duration, error) {
	var out serve.CountResponse
	d, err := call(c, http.MethodPost, "/v1/count", serve.CountRequest{ID: t.main.ids[large]}, &out)
	return out.Count, d, err
}

func (t *servedTarget) test(tuples [][]int, res []bool) (time.Duration, error) {
	var total time.Duration
	for i, tu := range tuples {
		ok, d, err := t.testOn(t.cl, tu)
		if err != nil {
			return total, err
		}
		res[i] = ok
		total += d
	}
	return total, nil
}

func (t *servedTarget) next(tuples [][]int, res [][]int) (time.Duration, error) {
	var total time.Duration
	for i, tu := range tuples {
		sol, d, err := t.nextOn(t.cl, tu)
		if err != nil {
			return total, err
		}
		res[i] = sol
		total += d
	}
	return total, nil
}

var editOpNames = map[repro.EditOp]string{
	repro.OpAddEdge: "add_edge", repro.OpRemoveEdge: "remove_edge",
	repro.OpAddColor: "add_color", repro.OpRemoveColor: "remove_color",
}

// mutateRequest is the wire form of a write to the large graph.
func mutateRequest(edits []repro.Edit) serve.MutateRequest {
	req := serve.MutateRequest{Graph: graphNames[large]}
	for _, e := range edits {
		req.Edits = append(req.Edits, serve.EditSpec{Op: editOpNames[e.Op], U: e.U, V: e.V, Color: e.Color})
	}
	return req
}

func (t *servedTarget) update(edits []repro.Edit, st *stream) (time.Duration, error) {
	*st = *newStream(large)
	var out serve.MutateResponse
	d1, err := call(t.cl, http.MethodPost, "/v1/mutate", mutateRequest(edits), &out)
	if err != nil {
		return 0, err
	}
	if out.NoOp {
		return 0, fmt.Errorf("mutate: the batch was a no-op, the generator should only send effective edits")
	}
	d2, err := t.scanOn(t.cl, st, firstPage)
	if err != nil {
		return 0, err
	}
	// The benchmark's own copy of the head follows through the facade.
	g, err := repro.PatchGraph(t.g[large], edits)
	if err != nil {
		return 0, err
	}
	t.g[large] = g
	return d1 + d2, nil
}

func (t *servedTarget) graph(sz size) *repro.Graph { return t.g[sz] }

// cacheStats reads the main host's cache counters from /v1/stats.
func (t *servedTarget) cacheStats() (serve.CacheStats, error) {
	var out serve.StatsResponse
	_, err := call(t.cl, http.MethodGet, "/v1/stats", nil, &out)
	return out.Cache, err
}

func (t *servedTarget) close() {
	t.cl.close()
	t.main.stop()
}
