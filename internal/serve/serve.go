// Package serve is the concurrent query-serving layer: an HTTP/JSON API
// over the repro facade that turns the paper's answering primitives into
// a stateless pagination contract.
//
// The key observation (Theorem 2.3 / Corollary 2.5): after one
// pseudo-linear preprocessing, NextGeq answers "smallest solution ≥ ā" in
// constant time, so a pagination cursor needs no server-side state — it
// is just the last tuple returned, and resuming costs O(1) wherever the
// client stopped, even across index eviction and rebuild.
//
// Graphs are mutable through POST /v1/mutate (the n^ε update regime of
// the paper's §3): each effective edit batch publishes a new immutable
// graph version, indexes are cached per (graph, version, query) and
// derived from resident older versions by replaying the edit log through
// Index.ApplyEdits, and cursors pin the version they started on — a
// paging client keeps reading one consistent snapshot while the head
// moves, until the version leaves the bounded retention window and
// resuming answers 410 version_gone.
//
// Endpoints:
//
//	POST /v1/query          register/compile a query, warm its index
//	GET  /v1/enumerate      one page of solutions + opaque resume cursor
//	POST /v1/test           Corollary 2.4: constant-time membership
//	POST /v1/next           Theorem 2.3: smallest solution ≥ tuple
//	POST /v1/count          counting query `#x̄ φ` (Grohe–Schweikardt)
//	POST /v1/mutate         apply an edit batch, publish a new graph version
//	GET  /v1/stats          graphs (with versions), queries, cache, metrics
//	POST /v1/cache/flush    drop all cached indexes (ops/testing)
//	GET  /debug/metrics     obs JSON snapshot (plus /debug/vars, /debug/pprof)
//
// Every /v1 response — success or failure — is the uniform envelope
// {"data": ...} / {"error": {"code", "message"}} plus the request's
// trace_id; see api.go.
//
// Behind the handlers sits an LRU index cache keyed by (graph id, graph
// version, canonical query) with singleflight deduplication: N concurrent
// requests for the same uncached query trigger exactly one parallel
// build (or one edit-log replay). Every request carries a deadline
// (default or ?timeout_ms=…, capped) threaded through build and page
// enumeration; shutdown drains in-flight requests before canceling
// outstanding builds.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value of every field selects a sensible
// default.
type Config struct {
	// Graphs are the served graphs, keyed by the name clients use in
	// QueryRequest.Graph. Each becomes version 0 of a mutable graph state;
	// POST /v1/mutate publishes later versions. The map itself is
	// read-only after NewServer (the set of graph names is fixed).
	Graphs map[string]*repro.Graph
	// RetainVersions bounds how many past graph versions stay resumable
	// by version-pinned cursors after mutations; older versions answer
	// 410 version_gone. Default repro.DefaultRetainVersions.
	RetainVersions int
	// CacheSize bounds the number of resident indexes (LRU beyond it).
	// Default 8.
	CacheSize int
	// DefaultLimit and MaxLimit shape /v1/enumerate pages: an absent or
	// non-positive limit becomes DefaultLimit (default 100); anything
	// above MaxLimit (default 10000) is clamped to it.
	DefaultLimit int
	MaxLimit     int
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout bounds a request that names no ?timeout_ms
	// (default 30s); MaxTimeout caps client-requested deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Parallelism forwards to repro.WithParallelism for cache builds.
	Parallelism int
	// Engine selects the enumeration engine for every index this server
	// builds: repro.EngineCore (also the "" default — existing deployments
	// are unchanged), repro.EngineLowDeg, or repro.EngineAuto, which
	// routes each graph on its measured degree and degeneracy. The chosen
	// engine and its selection inputs are surfaced per query in /v1/stats.
	Engine repro.EngineKind
	// SnapshotDir, when non-empty, enables the disk cache tier: on a
	// memory miss the server first tries to load the index from a
	// snapshot file in this directory (written by a previous run or by
	// fodsnap build), and after a successful build it writes the snapshot
	// back. Files are keyed by the deterministic query id and validated
	// against the served graph's fingerprint before use, so stale or
	// foreign snapshots are ignored, never served. The directory must
	// exist and be writable.
	SnapshotDir string
	// BaseContext, when non-nil, parents every background index build and
	// the server's drain lifecycle; canceling it aborts in-flight builds
	// exactly as Shutdown does. Nil means the server owns its lifecycle
	// outright (context.Background), which suits tests and single-server
	// binaries; a process hosting several servers passes its run context
	// here so one signal tears all of them down.
	BaseContext context.Context
	// Metrics, when non-nil, instruments the server (per-endpoint latency
	// histograms, cache hit/miss counters, in-flight gauge) and every
	// index it builds, and is served at /debug/metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span tree per request — cache
	// lookup, singleflight build or snapshot load phase by phase, cursor
	// resume, page scan — retains them with tail sampling (errors and slow
	// requests always, the fast bulk 1-in-N), and serves them at
	// /debug/traces. Incoming W3C traceparent headers are honored and the
	// response carries one. Nil disables tracing at the cost of one branch
	// per request.
	Tracer *obs.Tracer
	// Logger, when non-nil, emits one structured access-log record per
	// request plus index-build and snapshot-tier events, each carrying the
	// request's trace id when Tracer is set. Nil disables logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 8
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 100
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetainVersions <= 0 {
		c.RetainVersions = repro.DefaultRetainVersions
	}
	return c
}

// Server is the query-serving layer. Create with NewServer, mount
// Handler(), stop with Shutdown.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	cache  *indexCache

	// graphs is the versioned state of every served graph (map read-only
	// after NewServer; each graphState handles its own synchronization).
	graphs map[string]*graphState

	mu      sync.Mutex // guards queries
	queries map[string]*queryEntry

	baseCtx context.Context // canceled after drain; parent of all builds
	cancel  context.CancelFunc

	shutMu   sync.RWMutex // closed-flag vs. in-flight registration
	closed   bool
	inflight sync.WaitGroup

	// graphFP caches each served graph's snapshot fingerprint (hex), used
	// to validate disk-tier files; nil unless SnapshotDir is set.
	graphFP map[string]string

	inflightG obs.Gauge
}

// queryEntry is one registered query. The compiled *repro.Query is shared
// by every request (safe: compilation is behind a sync.Once) while the
// built index lives in the cache and may be evicted independently.
type queryEntry struct {
	id        string
	graph     string
	canonical string
	q         *repro.Query
	arity     int
}

// NewServer validates cfg and returns a ready Server.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Metrics,
		tracer:  cfg.Tracer,
		log:     cfg.Logger,
		graphs:  make(map[string]*graphState, len(cfg.Graphs)),
		queries: make(map[string]*queryEntry),
		baseCtx: ctx,
		cancel:  cancel,
	}
	for name, g := range cfg.Graphs {
		s.graphs[name] = newGraphState(name, g, cfg.RetainVersions)
	}
	s.tracer.Register(cfg.Metrics)
	s.cache = newIndexCache(ctx, cfg.CacheSize, cfg.Metrics, s.buildIndex)
	s.installTiers()
	if s.reg != nil {
		s.reg.RegisterGauge("serve.http.in_flight", &s.inflightG)
	}
	return s
}

// logEvent emits one structured event record with the trace id of the
// request (or build flight) the context belongs to. No-op without Logger.
func (s *Server) logEvent(ctx context.Context, lvl slog.Level, msg string, attrs ...slog.Attr) {
	if s.log == nil {
		return
	}
	tid := ""
	if sc := obs.SpanFromContext(ctx); sc.Trace != nil {
		tid = sc.Trace.ID().String()
	}
	attrs = append(attrs, slog.String("trace_id", tid))
	s.log.LogAttrs(ctx, lvl, msg, attrs...)
}

// queryID derives the deterministic id of a (graph, canonical) pair.
func queryID(graph, canonical string) string {
	h := sha256.Sum256([]byte(graph + "\x00" + canonical))
	return hex.EncodeToString(h[:8])
}

// Handler returns the full HTTP surface: the /v1 API plus the /debug
// observability endpoints when the server is metered.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("GET /v1/enumerate", s.instrument("enumerate", s.handleEnumerate))
	mux.HandleFunc("POST /v1/test", s.instrument("test", s.handleTest))
	mux.HandleFunc("POST /v1/next", s.instrument("next", s.handleNext))
	mux.HandleFunc("POST /v1/count", s.instrument("count", s.handleCount))
	mux.HandleFunc("POST /v1/mutate", s.instrument("mutate", s.handleMutate))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /v1/cache/flush", s.instrument("flush", s.handleFlush))
	if s.reg != nil || s.tracer != nil {
		mux.Handle("/debug/", obs.DebugMuxTraced(s.reg, s.tracer))
	}
	return mux
}

// Shutdown drains: new requests are rejected with 503 shutting_down,
// in-flight requests (including long enumeration pages) run to
// completion or until ctx expires, then outstanding builds are canceled.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutMu.Lock()
	already := s.closed
	s.closed = true
	s.shutMu.Unlock()
	if already {
		return nil
	}
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.cancel()
	return err
}

// handlerFunc is an http.HandlerFunc that is also handed the request's
// query string, parsed once by instrument for the deadline and the
// handler both.
type handlerFunc func(w http.ResponseWriter, r *http.Request, qs url.Values)

// instrument wraps a handler with the serving middleware: shutdown
// rejection, in-flight tracking (WaitGroup for draining, gauge for
// scrapes), the per-request deadline, per-endpoint latency/error
// instruments, and — when configured — the request trace (traceparent
// honored on the way in, emitted on the way out, span tree finished and
// tail-sampled on completion, latency bucket stamped with the trace id)
// and the structured access-log record.
func (s *Server) instrument(name string, h handlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("serve.http." + name + "_ns")
	reqs := s.reg.Counter("serve.http." + name + "_requests")
	errs := s.reg.Counter("serve.http." + name + "_errors")
	return func(w http.ResponseWriter, r *http.Request) {
		s.shutMu.RLock()
		if s.closed {
			s.shutMu.RUnlock()
			writeErr(w, r, http.StatusServiceUnavailable, ErrShuttingDown, "server is draining")
			return
		}
		s.inflight.Add(1)
		s.shutMu.RUnlock()
		defer s.inflight.Done()
		s.inflightG.Inc()
		defer s.inflightG.Dec()

		var qs url.Values // a nil Values reads as empty
		if r.URL.RawQuery != "" {
			qs = r.URL.Query()
		}
		ctx, cancel := s.requestContext(r, qs)
		defer cancel()
		var tr *obs.Trace
		var root *obs.Span
		if s.tracer != nil {
			// A well-formed incoming traceparent is adopted (the caller's
			// trace continues here); anything malformed mints a fresh id.
			id, remote, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
			tr = s.tracer.Start(r.Method+" "+r.URL.Path, id, remote)
			w.Header().Set("traceparent", tr.Traceparent())
			ctx = obs.ContextWithSpan(ctx, obs.SpanCtx{Trace: tr})
			root = s.reg.StartSpan(ctx, "http."+name)
			ctx = root.Attach(ctx)
		}
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r, qs)
		d := time.Since(start)
		if tr != nil {
			root.End()
			hist.ObserveTraced(d.Nanoseconds(), tr.ID())
			tr.Finish(sw.code, "")
		} else {
			hist.Observe(d)
		}
		reqs.Inc()
		if sw.code >= 400 {
			errs.Inc()
		}
		if s.log != nil {
			lvl := slog.LevelInfo
			switch {
			case sw.code >= 500:
				lvl = slog.LevelError
			case sw.code >= 400:
				lvl = slog.LevelWarn
			}
			tid := ""
			if tr != nil {
				tid = tr.ID().String()
			}
			s.log.LogAttrs(ctx, lvl, "request",
				slog.String("method", r.Method),
				slog.String("endpoint", name),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.code),
				slog.Int64("dur_us", d.Microseconds()),
				slog.String("trace_id", tid))
		}
	}
}

// requestContext derives the per-request deadline: ?timeout_ms=… capped
// at MaxTimeout, else DefaultTimeout.
func (s *Server) requestContext(r *http.Request, qs url.Values) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if v := qs.Get("timeout_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, _ url.Values) {
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Graph == "" || req.Query == "" || len(req.Vars) == 0 {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, "graph, query and vars are required")
		return
	}
	gs, ok := s.graphs[req.Graph]
	if !ok {
		writeErr(w, r, http.StatusNotFound, ErrUnknownGraph, fmt.Sprintf("graph %q is not loaded", req.Graph))
		return
	}
	q, err := repro.ParseQuery(req.Query, req.Vars...)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
		return
	}
	// Compile now so malformed queries fail at registration, not first use.
	if _, err := q.Plan(); err != nil {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
		return
	}
	canonical := q.Canonical()
	id := queryID(req.Graph, canonical)

	s.mu.Lock()
	entry, ok := s.queries[id]
	if !ok {
		entry = &queryEntry{id: id, graph: req.Graph, canonical: canonical, q: q, arity: q.Arity()}
		s.queries[id] = entry
	}
	s.mu.Unlock()

	// Warm the index at the current head version through the cache
	// (singleflight dedups concurrent registrations; a hit returns
	// immediately).
	gv := gs.Head()
	start := time.Now()
	_, cached, err := s.cache.Get(r.Context(), cacheKey{graph: entry.graph, version: gv.version, canonical: entry.canonical})
	if err != nil {
		s.writeCacheErr(w, r, err)
		return
	}
	wall := time.Since(start)

	writeData(w, r, http.StatusOK, QueryResponse{
		ID:        entry.id,
		Graph:     entry.graph,
		Canonical: entry.canonical,
		Arity:     entry.arity,
		Version:   gv.version,
		Cached:    cached,
		BuildNS:   wall.Nanoseconds(),
	})
}

// --- helpers ----------------------------------------------------------

func (s *Server) lookupQuery(id string) (*queryEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.queries[id]
	return e, ok
}

// decodeBody parses the JSON body into v, answering 400 on malformed or
// oversized input. Returns false when the request was already answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, r, http.StatusRequestEntityTooLarge, ErrBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	return true
}

// writeCacheErr maps index-acquisition errors to API errors. A canceled
// build is shutting_down only while the server drains (Shutdown cancels
// the builds); on a serving one it is an internal error like any other
// failed build, not a reason for the client to go elsewhere.
func (s *Server) writeCacheErr(w http.ResponseWriter, r *http.Request, err error) {
	var gone *versionGoneError
	switch {
	case errors.As(err, &gone):
		writeErr(w, r, http.StatusGone, ErrVersionGone,
			gone.Error()+"; restart the enumeration without a cursor")
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, r, http.StatusGatewayTimeout, ErrDeadlineExceeded, "request deadline exceeded")
	case errors.Is(err, context.Canceled) && s.draining():
		writeErr(w, r, http.StatusServiceUnavailable, ErrShuttingDown, "request canceled")
	default:
		writeErr(w, r, http.StatusInternalServerError, ErrInternal, err.Error())
	}
}

func (s *Server) draining() bool {
	s.shutMu.RLock()
	defer s.shutMu.RUnlock()
	return s.closed
}

func validateTuple(tuple []int, arity, n int) error {
	if len(tuple) != arity {
		return fmt.Errorf("tuple has %d components, query arity is %d", len(tuple), arity)
	}
	for i, v := range tuple {
		if v < 0 || v >= n {
			return fmt.Errorf("tuple component %d = %d out of range [0,%d)", i, v, n)
		}
	}
	return nil
}
