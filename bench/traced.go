package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/serve"
)

// handlerCall sends one request straight into the server's handler with a
// ResponseRecorder — no socket, no client — and returns the body and the
// time ServeHTTP took.
func handlerCall(h http.Handler, method, path string, body []byte) ([]byte, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code/100 != 2 {
		return nil, d, fmt.Errorf("handler %s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), d, nil
}

// handlerUS calls the handler reps times and returns the lower-quartile
// time in microseconds, the heap allocations per call and the last body.
// path is called anew for each repetition and each, when not nil, sees
// every body, so that a cursor can advance.
func handlerUS(h http.Handler, reps int, method string, path func() string, body []byte, each func([]byte) error) (us, allocs float64, last []byte, err error) {
	lats := make([]time.Duration, 0, reps)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		var d time.Duration
		if last, d, err = handlerCall(h, method, path(), body); err == nil && each != nil {
			err = each(last)
		}
		if err != nil {
			return 0, 0, nil, err
		}
		lats = append(lats, d)
	}
	runtime.ReadMemStats(&m1)
	return quantile(durationsUS(lats), 0.25), float64(m1.Mallocs-m0.Mallocs) / float64(reps), last, nil
}

func fixed(path string) func() string { return func() string { return path } }

// serveLayers times each endpoint of the main host through its handler.
// The mutate calls come last and move the head of the large graph; ed
// keeps the target's copy of the head in step.
func serveLayers(t *servedTarget, ed *editor, probes [][]int, m map[string]float64) error {
	h := t.main.srv.Handler()
	id := t.main.ids[large]

	// enumerate limit=1 following its own cursor, as point-served does. The
	// decode that advances the cursor allocates too; it is the same for
	// every request and small beside the handler's own allocations.
	cursor := ""
	e1, allocs, _, err := handlerUS(h, 300, http.MethodGet, func() string {
		if cursor == "" {
			return "/v1/enumerate?limit=1&query=" + id
		}
		return "/v1/enumerate?limit=1&cursor=" + url.QueryEscape(cursor)
	}, nil, func(raw []byte) error {
		var rep reply[serve.EnumerateResponse]
		err := json.Unmarshal(raw, &rep)
		cursor = rep.Data.NextCursor
		return err
	})
	if err != nil {
		return err
	}
	m["serve.handler_enumerate1_us"], m["serve.allocs_per_req_enumerate1"] = e1, allocs

	e10k, _, body, err := handlerUS(h, 12, http.MethodGet, fixed("/v1/enumerate?limit="+strconv.Itoa(scanPage)+"&query="+id), nil, nil)
	if err != nil {
		return err
	}
	m["serve.handler_enumerate10k_us"] = e10k
	m["serve.per_answer_ns"] = 1e3 * (e10k - e1) / (scanPage - 1)
	m["serve.encode_copy_ns_per_answer"] = m["serve.per_answer_ns"] - m["core.next_ns"]
	m["serve.response_bytes_per_answer"] = float64(len(body)) / scanPage

	tuple, _ := json.Marshal(serve.TupleRequest{ID: id, Tuple: probes[1]})
	if m["serve.handler_test_us"], m["serve.allocs_per_req_test"], _, err = handlerUS(h, 300, http.MethodPost, fixed("/v1/test"), tuple, nil); err != nil {
		return err
	}
	if m["serve.handler_next_us"], _, _, err = handlerUS(h, 300, http.MethodPost, fixed("/v1/next"), tuple, nil); err != nil {
		return err
	}
	count, _ := json.Marshal(serve.CountRequest{ID: id})
	if m["serve.handler_count_us"], _, _, err = handlerUS(h, 300, http.MethodPost, fixed("/v1/count"), count, nil); err != nil {
		return err
	}
	query, _ := json.Marshal(serve.QueryRequest{Graph: graphNames[large], Query: t.w.Query.Src, Vars: t.w.Query.Vars})
	if m["serve.handler_query_warm_us"], _, _, err = handlerUS(h, 100, http.MethodPost, fixed("/v1/query"), query, nil); err != nil {
		return err
	}

	var mut []time.Duration
	for i := 0; i < 20; i++ {
		edits := ed.next(t.g[large])
		b, _ := json.Marshal(mutateRequest(edits))
		_, d, err := handlerCall(h, http.MethodPost, "/v1/mutate", b)
		if err != nil {
			return err
		}
		mut = append(mut, d)
		if t.g[large], err = repro.PatchGraph(t.g[large], edits); err != nil {
			return err
		}
	}
	m["serve.handler_mutate_us"] = quantile(durationsUS(mut), 0.25)
	return nil
}

// replay decomposes a sample of the workload's own requests: each is sent
// (a) over HTTP, (b) through the handler, (c) on the facade, and recorded
// as nested spans, so that transport = a−b, serve = b−c, engine = c. An
// in-process workload has only (c) against the engine below the facade,
// which answerLayers reports; its requests nest facade over nothing.
// It returns the median of a−b in microseconds.
func replay(r *run, ix *repro.Index, n int) (float64, error) {
	t, ok := r.tgt.(*servedTarget)
	if !ok {
		return 0, nil
	}
	h := t.main.srv.Handler()
	limit := scanPage
	switch r.cfg.w.Main {
	case mainPoint:
		limit = 1
	case mainCold, mainMutate:
		limit = firstPage
	}
	var transport []float64
	st := newStream(large)
	zero := make([]int, len(r.cfg.w.Query.Vars))
	for i := 0; i < n; i++ {
		if st.done {
			st.restart()
		}
		path := "/v1/enumerate?limit=" + strconv.Itoa(limit)
		from := zero
		if st.token != "" {
			path += "&cursor=" + url.QueryEscape(st.token)
			from = append([]int(nil), st.last...)
		} else {
			path += "&query=" + t.main.ids[large]
		}
		_, b, err := handlerCall(h, http.MethodGet, path, nil)
		if err != nil {
			return 0, err
		}
		// (c) the same page on the facade: resume, skip the cursor tuple,
		// limit calls of Next. Copying the answers out is serve's work.
		start := time.Now()
		it := ix.IteratorFrom(from)
		for got := 0; got < limit; {
			sol, ok := it.Next()
			if !ok {
				break
			}
			if got == 0 && st.token != "" && !lexLess(from, sol) {
				continue
			}
			got++
		}
		c := time.Since(start)
		a, err := t.scan(st, limit) // advances the stream, so it goes last
		if err != nil {
			return 0, err
		}
		r.rec.nest([]string{"request", "request.serve", "request.serve.engine"}, []time.Duration{a, b, c})
		transport = append(transport, float64((a-b).Nanoseconds())/1e3)
	}
	return quantile(transport, 0.5), nil
}

// tracedRun is the run behind --trace 1: every layer timed from outside,
// then the workload's main window twice, without and with the span recorder.
// It reports the per-layer metrics and writes <workload>.trace.json.
func tracedRun(cfg runConfig) (*report, error) {
	r := newRun(cfg)
	rep := newReport(cfg, true)
	w := cfg.w
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}

	m["graph.gen_ms"] = timeMS(3, func() { r.generate() })
	defer r.close()
	if err := r.setUp(false); err != nil {
		return nil, err
	}
	var err error
	if r.oracle, err = newOracle(w, r.generate()); err != nil {
		return nil, err
	}
	ix, head := r.oracle.ix, r.g0[large]
	rec := newRecorder()
	probes := r.oracle.probes(r.rng, 1000)
	r.phase("setup")

	// Layers from outside, on the graph as generated.
	en, err := buildLayers(w, head, ix.Engine(), m, rec)
	if err != nil {
		return nil, err
	}
	r.phase("build-layers")
	answerLayers(en, ix, probes, m)
	if ix.Engine() == repro.EngineCore {
		var buf bytes.Buffer
		m["snap.write_ms"] = timeMS(2, func() { buf.Reset(); err = ix.WriteSnapshot(&buf) })
		if err == nil {
			err = snapshotLayers(ix, buf.Bytes(), m)
		}
		if err != nil {
			return nil, err
		}
	}
	ed := newEditor(r.rng, head)
	var batches [][]repro.Edit
	for i := 0; i < 6; i++ {
		batches = append(batches, ed.next(head))
	}
	if err := mutationLayers(en, batches, m); err != nil {
		return nil, err
	}
	r.phase("layers")

	// A sample of the workload's page requests decomposed by replay.
	n := 200
	if w.Main == mainScan {
		n = 40 // 10 000-answer pages
	}
	r.rec = rec
	if m["client.transport_us"], err = replay(r, ix, n); err != nil {
		return nil, err
	}
	r.phase("replay")

	// The main window, first untraced, then traced.
	half := time.Duration(cfg.seconds / 10 * float64(time.Second))
	var st0 serve.CacheStats
	var fast [2]float64
	var mw *window
	g0 := readUsage()
	for pass := 0; pass < 2; pass++ {
		r.rec = nil
		if pass == 1 {
			r.rec = rec
			if t, ok := r.tgt.(*servedTarget); ok {
				if st0, err = t.cacheStats(); err != nil {
					return nil, err
				}
			}
		}
		var check []*stream
		if mw, check, err = r.mainWindow(half, 1, tracedCycles, ed); err != nil {
			return nil, err
		}
		fast[pass] = quantile(durationsUS(mw.lat), 0.1)
		r.oracle.checkStreams(check)
	}
	r.oracle.checkNotes()
	gc := readUsage().sub(g0)
	r.phase("main")
	m["trace.overhead_share"] = (fast[1] - fast[0]) / fast[0]
	m["client.samples"] = float64(len(mw.lat))
	m["client.req_p10_us"] = fast[1]
	m["runtime.cpu_ns_per_op"] = quantile(mw.cpuOp, 0.1)
	m["client.req_tail_us"], m["client.req_tail_pct"] = tailPercentile(durationsUS(mw.lat))
	m["runtime.gc_cycles"] = float64(gc.gcCycles)
	m["runtime.gc_pause_ms"] = float64(gc.gcPause.Nanoseconds()) / 1e6
	m["runtime.heap_sys_mb"] = float64(gc.heapSys) / (1 << 20)
	if served, ok := r.tgt.(*servedTarget); ok {
		st1, err := served.cacheStats()
		if err != nil {
			return nil, err
		}
		m["serve.cache_hits"] = float64(st1.Hits - st0.Hits)
		m["serve.cache_misses"] = float64(st1.Misses - st0.Misses)
		m["serve.cache_evictions"] = float64(st1.Evictions - st0.Evictions)
		m["serve.cache_builds"] = float64(st1.Builds - st0.Builds)
		m["serve.cache_migrations"] = float64(st1.Migrations - st0.Migrations)
		if served.snaps.host != nil {
			var out serve.StatsResponse
			if _, err := call(served.snaps.cl, http.MethodGet, "/v1/stats", nil, &out); err != nil {
				return nil, err
			}
			m["serve.cache_snapshot_hits"] = float64(out.Cache.SnapshotHits)
			m["serve.cache_snapshot_writes"] = float64(out.Cache.SnapshotWrites)
		}
		if looked := m["serve.cache_hits"] + m["serve.cache_misses"]; looked > 0 {
			m["serve.cache_hit_share"] = m["serve.cache_hits"] / looked
		}
		m["client.verify_us"] = float64(served.cl.verify.Microseconds()) / float64(max(served.cl.reqs, 1))
	}

	// Writes as the user sees them, for the spikes a median hides.
	upd := mw.updLat
	if w.Main != mainMutate {
		if upd, err = r.updateStarts(ed, 0, tracedUpdates); err != nil {
			return nil, err
		}
	}
	ms := durationsMS(upd)
	var sum, top float64
	for _, v := range ms {
		sum += v
		top = max(top, v)
	}
	m["mutate.update_mean_ms"], m["mutate.update_max_ms"] = sum/float64(len(ms)), top
	r.phase("update")

	// The handlers last: their mutate calls publish twenty versions that no
	// request reads, which the next read would have to catch up on.
	if served, ok := r.tgt.(*servedTarget); ok {
		if err := serveLayers(served, ed, probes, m); err != nil {
			return nil, err
		}
		r.phase("serve-layers")
	}
	m["client.failed_share"] = float64(r.oracle.failed) / float64(max(r.oracle.attempted, 1))

	for name, v := range m {
		rep.set(name, v, nil)
	}
	rep.Windows = r.phases
	rep.Counts = map[string]int{"main_ops": mw.ops, "req_samples": len(mw.lat), "spans": len(rec.spans), "replayed": n}
	rep.Attempted, rep.Failed = r.oracle.attempted+mw.ops, r.oracle.failed
	return rep, writeJSON(filepath.Join(cfg.outDir, w.Name+".trace.json"), rec.file(cfg))
}

const (
	// tracedCycles is the fixed number of write cycles of mutate-mix's
	// traced window, so that the cache counters it reports repeat exactly.
	tracedCycles = 60
	// tracedUpdates is the number of writes behind mutate.update_mean_ms
	// and mutate.update_max_ms on the other workloads.
	tracedUpdates = 8
)
