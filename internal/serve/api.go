package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro"
	"repro/internal/obs"
)

// The wire types of the /v1 JSON API. Every response — success or failure —
// is the uniform envelope
//
//	{"data": <payload>, "trace_id": "..."}            on success
//	{"error": {"code": ..., "message": ...}, "trace_id": "..."}  on failure
//
// with a matching HTTP status. trace_id is the request's trace (present
// whenever the server runs with a Tracer), so a client error report can be
// joined against /debug/traces and the structured log without guesswork.
// The payload of a success is one of the *Response types below.

// QueryRequest registers (and warms) a query against a loaded graph.
type QueryRequest struct {
	// Graph names a graph loaded or generated at server start.
	Graph string `json:"graph"`
	// Query is the FO⁺ query text, e.g. "dist(x,y) > 2 & C0(y)".
	Query string `json:"query"`
	// Vars fixes the output-column order, e.g. ["x","y"].
	Vars []string `json:"vars"`
}

// QueryResponse describes a registered query. ID is deterministic — the
// same (graph, canonical query) always yields the same id, across
// restarts — so clients can hold on to ids and cursors statelessly.
type QueryResponse struct {
	ID        string `json:"id"`
	Graph     string `json:"graph"`
	Canonical string `json:"canonical"`
	Arity     int    `json:"arity"`
	// Version is the graph version the warmed index answers over (the
	// head at registration time).
	Version int `json:"version"`
	// Cached reports whether the index was already resident; BuildNS is
	// the wall time this request spent obtaining it (≈0 on a cache hit,
	// shared across concurrent requests by singleflight on a miss).
	Cached  bool  `json:"cached"`
	BuildNS int64 `json:"build_ns"`
}

// EnumerateResponse is one page of the solution stream in lexicographic
// order. NextCursor is opaque; pass it back to /v1/enumerate to resume
// after the last tuple of this page in constant time (Theorem 2.3). The
// cursor pins the graph version this page was served at, so a paging
// client sees one consistent snapshot even while the graph is mutated
// under it; resuming a version that has since left the retention window
// fails with 410 version_gone. Done means the stream is exhausted
// (NextCursor empty).
type EnumerateResponse struct {
	ID        string  `json:"id"`
	Version   int     `json:"version"`
	Solutions [][]int `json:"solutions"`
	Count     int     `json:"count"`
	Limit     int     `json:"limit"`

	NextCursor string `json:"next_cursor,omitempty"`
	Done       bool   `json:"done"`
}

// TupleRequest addresses one tuple of a registered query (for /v1/test
// and /v1/next).
type TupleRequest struct {
	ID    string `json:"id"`
	Tuple []int  `json:"tuple"`
}

// TestResponse answers Corollary 2.4: is the tuple a solution? Version is
// the graph version the answer is valid for (the head at request time).
type TestResponse struct {
	ID       string `json:"id"`
	Version  int    `json:"version"`
	Tuple    []int  `json:"tuple"`
	Solution bool   `json:"solution"`
}

// NextResponse answers Theorem 2.3: the smallest solution ≥ the tuple.
type NextResponse struct {
	ID       string `json:"id"`
	Version  int    `json:"version"`
	Solution []int  `json:"solution,omitempty"`
	Found    bool   `json:"found"`
}

// EditSpec is one graph mutation on the wire. Op is the edit kind
// ("add_edge", "remove_edge", "add_color", "remove_color"); U and V are
// vertex ids (V ignored for color edits); Color is the color relation
// touched by the color edits.
type EditSpec struct {
	Op    string `json:"op"`
	U     int    `json:"u"`
	V     int    `json:"v,omitempty"`
	Color int    `json:"color,omitempty"`
}

// MutateRequest applies an edit batch to a graph. The batch is atomic:
// either every edit lands and one new version is published, or none are.
type MutateRequest struct {
	Graph string     `json:"graph"`
	Edits []EditSpec `json:"edits"`
}

// MutateResponse reports the published graph version. NoOp means the batch
// netted out to the identity (adding present edges, add+remove pairs …):
// no new version was published and Version is the unchanged head. Indexes
// over the new version are derived lazily, on first use, from resident
// older versions via the incremental update path (or rebuilt when the
// edits are not local).
type MutateResponse struct {
	Graph   string `json:"graph"`
	Version int    `json:"version"`
	// Applied is the number of edits in the accepted batch.
	Applied int  `json:"applied"`
	NoOp    bool `json:"no_op"`
	// N and M describe the graph after the batch.
	N int `json:"n"`
	M int `json:"m"`
}

// CountRequest evaluates a counting query `#x̄ φ` (Grohe–Schweikardt).
// Either ID names an already registered query, or Graph + Query register
// one inline using the counting syntax, e.g.
//
//	{"graph": "g", "query": "#x,y: dist(x,y) > 2 & C0(y)"}
//
// The inline form registers the query exactly like POST /v1/query would
// (same deterministic id), so a later /v1/enumerate can stream the tuples
// that were counted.
type CountRequest struct {
	ID    string `json:"id,omitempty"`
	Graph string `json:"graph,omitempty"`
	Query string `json:"query,omitempty"`
}

// CountResponse is the solution count at the graph's head version. Fast
// reports whether the engine's sub-enumeration counting path produced the
// number (rather than a full enumeration); Engine names the engine that
// backs the counted index ("core" or "lowdeg").
type CountResponse struct {
	ID      string `json:"id"`
	Version int    `json:"version"`
	Count   int    `json:"count"`
	Fast    bool   `json:"fast"`
	Engine  string `json:"engine"`
}

// FlushResponse reports how many cached indexes POST /v1/cache/flush
// dropped.
type FlushResponse struct {
	Flushed int `json:"flushed"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Graphs  map[string]GraphStats `json:"graphs"`
	Queries []QueryStats          `json:"queries"`
	Cache   CacheStats            `json:"cache"`
	// Engine is the configured engine mode ("core", "lowdeg" or "auto";
	// "core" when the server was configured with the default).
	Engine string `json:"engine"`
	// Metrics is the full obs registry snapshot (per-endpoint latency
	// histograms, cache counters, in-flight gauge, engine internals of
	// resident indexes); omitted when the server runs unmetered.
	Metrics json.RawMessage `json:"metrics,omitempty"`
}

// GraphStats describes one loaded graph at its current head version.
type GraphStats struct {
	N      int `json:"n"`
	M      int `json:"m"`
	Colors int `json:"colors"`
	// Version is the head version (0 until the first effective mutation);
	// Retained lists the versions currently resumable by cursors, oldest
	// first, head last.
	Version  int   `json:"version"`
	Retained []int `json:"retained"`
}

// QueryStats describes one registered query. Engine and Selection
// describe the index resident at the graph's head version — which engine
// backs it and the degree/degeneracy estimates that routed it there; both
// are omitted while no head index is resident (nothing to report without
// forcing a build from a stats scrape).
type QueryStats struct {
	ID        string `json:"id"`
	Graph     string `json:"graph"`
	Canonical string `json:"canonical"`
	Arity     int    `json:"arity"`

	Engine    string           `json:"engine,omitempty"`
	Selection *repro.Selection `json:"selection,omitempty"`
}

// Error codes of the API.
const (
	ErrBadRequest       = "bad_request"       // malformed JSON, bad params, bad tuple or edit
	ErrUnknownGraph     = "unknown_graph"     // graph name not loaded
	ErrUnknownQuery     = "unknown_query"     // query id never registered
	ErrInvalidCursor    = "invalid_cursor"    // cursor undecodable or for another query
	ErrVersionGone      = "version_gone"      // cursor pins a graph version outside the retention window
	ErrDeadlineExceeded = "deadline_exceeded" // request deadline hit (build or page)
	ErrShuttingDown     = "shutting_down"     // server is draining
	ErrInternal         = "internal"          // build failure or other server error
)

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// envelope is the uniform response wrapper: exactly one of Data / Error is
// set; TraceID is present whenever the request ran under a Tracer.
type envelope struct {
	Data    any      `json:"data,omitempty"`
	Error   *errBody `json:"error,omitempty"`
	TraceID string   `json:"trace_id,omitempty"`
}

// traceIDFrom recovers the request's trace id for the response envelope
// (empty without a Tracer).
func traceIDFrom(r *http.Request) string {
	if sc := obs.SpanFromContext(r.Context()); sc.Trace != nil {
		return sc.Trace.ID().String()
	}
	return ""
}

// respBuf is one response body under construction. Every /v1 response is
// built whole — by encoding/json into one of these for the fixed-size
// envelopes, by the page writer in enumerate.go into a buffer of its own
// for /v1/enumerate — and sent with a single Write, so a failure found
// half-way (a marshal error, a deadline in the middle of a page scan) can
// still be answered with a typed error envelope instead of a torn 200.
//
// Ownership: the function that takes a respBuf from the pool returns it,
// after its one writeBody call and before it returns itself.
// ResponseWriter.Write copies what it is given, so once the handler is
// done nothing refers to pooled bytes any more.
type respBuf struct{ b []byte }

func (p *respBuf) Write(q []byte) (int, error) {
	p.b = append(p.b, q...)
	return len(q), nil
}

// maxPooledBuf is the largest buffer the pool keeps: a body that outgrew
// 1 MiB came from an unusual request (a metrics-laden /v1/stats), and
// pinning its buffer for the common ones would only hold memory.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(respBuf) }}

func getBuf() *respBuf { return bufPool.Get().(*respBuf) }

func putBuf(p *respBuf) {
	if cap(p.b) > maxPooledBuf {
		return
	}
	p.b = p.b[:0]
	bufPool.Put(p)
}

// writeBody sends one complete JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) // on error the client hung up; there is no one left to tell
}

func writeEnvelope(w http.ResponseWriter, status int, env envelope) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(env); err != nil {
		writeBody(w, http.StatusInternalServerError,
			[]byte(`{"error":{"code":"internal","message":"response encoding failed"}}`+"\n"))
		return
	}
	writeBody(w, status, buf.b)
}

// appendJSONString appends s as the JSON string literal encoding/json
// writes for it. The strings of the page writer — query ids, cursors,
// trace ids — are hex or base64url and take the loop; anything that would
// need an escape (quotes, backslash, the HTML set <>&, control bytes,
// non-ASCII) is handed to encoding/json rather than escaped a second way.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// writeData answers a successful request with the enveloped payload.
func writeData(w http.ResponseWriter, r *http.Request, status int, v any) {
	writeEnvelope(w, status, envelope{Data: v, TraceID: traceIDFrom(r)})
}

// writeErr answers a failed request with the enveloped error.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeEnvelope(w, status, envelope{Error: &errBody{Code: code, Message: msg}, TraceID: traceIDFrom(r)})
}
