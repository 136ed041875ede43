// Command fodserve serves FO⁺ query answering over HTTP/JSON: register a
// query against a loaded graph (POST /v1/query), then page through its
// solutions with stateless constant-startup cursors (GET /v1/enumerate),
// test membership (POST /v1/test) or seek (POST /v1/next) — the serving
// face of Theorem 2.3 / Corollaries 2.4–2.5. Graphs are mutable: POST
// /v1/mutate applies an edit batch and publishes a new graph version
// (the incremental update of §3); open cursors keep reading their
// pinned version until it leaves the retention window (-retain).
//
//	fodserve -addr :8080 -graph road=road.txt -gen demo=grid:10000:1
//	curl -s localhost:8080/v1/query -d '{"graph":"demo","query":"dist(x,y) > 2 & C0(y)","vars":["x","y"]}'
//	curl -s 'localhost:8080/v1/enumerate?query=<id>&limit=100'
//	curl -s 'localhost:8080/v1/enumerate?cursor=<next_cursor>'
//	curl -s localhost:8080/v1/mutate -d '{"graph":"demo","edits":[{"op":"add_edge","u":0,"v":7}]}'
//
// Graphs are named at startup: -graph name=path loads the text format
// (fodgen | fodrel emit it), -gen name=class:n[:colors[:seed]] generates a
// benchmark class in process. Both flags repeat.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var graphFlags, genFlags multiFlag
	addr := flag.String("addr", "localhost:8080", "listen address")
	flag.Var(&graphFlags, "graph", "load a graph: name=path (text format; repeatable)")
	flag.Var(&genFlags, "gen", "generate a graph: name=class:n[:colors[:seed]] (repeatable)")
	cacheSize := flag.Int("cache", 8, "max resident indexes (LRU beyond)")
	defaultLimit := flag.Int("default-limit", 100, "page size when the request names none")
	maxLimit := flag.Int("max-limit", 10000, "hard page-size cap")
	maxBody := flag.Int64("max-body", 1<<20, "request body cap in bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	parallel := flag.Int("parallel", 0, "index-build workers (0 = all CPUs)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")
	snapshotDir := flag.String("snapshot-dir", "", "disk cache tier: load/store index snapshots in this directory (created if missing)")
	retain := flag.Int("retain", repro.DefaultRetainVersions, "graph versions kept readable behind the head for pinned cursors")
	traceBuffer := flag.Int("trace-buffer", 256, "retained traces in the in-memory ring (0 disables tracing)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "always retain traces at least this slow (negative: retain all)")
	traceSample := flag.Int("trace-sample", 16, "keep 1 in N fast, successful traces (1: all; negative: none)")
	logFormat := flag.String("log-format", "json", "structured log format: json, text, or off")
	engine := flag.String("engine", "auto", "enumeration engine: auto (route per graph on degree/degeneracy), core, or lowdeg")
	flag.Parse()

	switch repro.EngineKind(*engine) {
	case repro.EngineAuto, repro.EngineCore, repro.EngineLowDeg:
	default:
		fail(fmt.Errorf("-engine %q: want auto, core, or lowdeg", *engine))
	}

	graphs := make(map[string]*repro.Graph)
	for _, spec := range graphFlags {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("-graph %q: want name=path", spec))
		}
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		g, err := graph.Read(f)
		f.Close() // input opened read-only; the Read error below is the one that matters
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		graphs[name] = g
	}
	for _, spec := range genFlags {
		name, g, err := parseGen(spec)
		if err != nil {
			fail(err)
		}
		graphs[name] = g
	}
	if len(graphs) == 0 {
		fmt.Fprintln(os.Stderr, "fodserve: no graphs; pass -graph name=path or -gen name=class:n")
		os.Exit(2)
	}

	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fail(err)
		}
	}

	reg := obs.New()
	var tracer *obs.Tracer
	if *traceBuffer > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{
			Buffer:  *traceBuffer,
			Slow:    *traceSlow,
			SampleN: *traceSample,
		})
	}
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off":
	default:
		fail(fmt.Errorf("-log-format %q: want json, text, or off", *logFormat))
	}
	// The run context parents every index build; it is canceled on process
	// exit so nothing outlives main even if the drain path is skipped.
	runCtx, stopBuilds := context.WithCancel(context.Background())
	defer stopBuilds()
	srv := serve.NewServer(serve.Config{
		BaseContext:    runCtx,
		Graphs:         graphs,
		CacheSize:      *cacheSize,
		DefaultLimit:   *defaultLimit,
		MaxLimit:       *maxLimit,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Parallelism:    *parallel,
		RetainVersions: *retain,
		Engine:         repro.EngineKind(*engine),
		Metrics:        reg,
		SnapshotDir:    *snapshotDir,
		Tracer:         tracer,
		Logger:         logger,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	for name, g := range graphs {
		fmt.Fprintf(os.Stderr, "fodserve: graph %q: n=%d m=%d colors=%d\n", name, g.N(), g.M(), g.NumColors())
	}
	extras := "metrics at /debug/metrics"
	if tracer != nil {
		extras += ", traces at /debug/traces"
	}
	fmt.Fprintf(os.Stderr, "fodserve: serving on http://%s/v1 (engine %s, %s)\n", *addr, *engine, extras)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fail(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fodserve: %v — draining for up to %v\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "fodserve: drain incomplete: %v\n", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "fodserve: http shutdown: %v\n", err)
		}
	}
}

// parseGen parses name=class:n[:colors[:seed]].
func parseGen(spec string) (string, *repro.Graph, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, fmt.Errorf("-gen %q: want name=class:n[:colors[:seed]]", spec)
	}
	parts := strings.Split(rest, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return "", nil, fmt.Errorf("-gen %q: want name=class:n[:colors[:seed]]", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return "", nil, fmt.Errorf("-gen %q: bad n %q", spec, parts[1])
	}
	opt := repro.GenOptions{}
	if len(parts) >= 3 {
		if opt.Colors, err = strconv.Atoi(parts[2]); err != nil || opt.Colors < 0 {
			return "", nil, fmt.Errorf("-gen %q: bad colors %q", spec, parts[2])
		}
	}
	if len(parts) == 4 {
		if opt.Seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
			return "", nil, fmt.Errorf("-gen %q: bad seed %q", spec, parts[3])
		}
	}
	classes := repro.GraphClasses()
	valid := false
	for _, c := range classes {
		if c == parts[0] {
			valid = true
			break
		}
	}
	if !valid {
		return "", nil, fmt.Errorf("-gen %q: unknown class %q (have %s)", spec, parts[0], strings.Join(classes, ", "))
	}
	return name, repro.Generate(parts[0], n, opt), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fodserve:", err)
	os.Exit(1)
}
