package main

import (
	"encoding/json"

	"repro"
)

// This file is the benchmark's definition: the workloads, the end-to-end
// metrics with their bounds, and the per-layer metrics with the end-to-end
// metric each should move. BENCHMARK.json repeats the names, units and
// bounds for the driver; bench_test.go checks that the two agree.

// metricSpec names one metric. Bound is set for end-to-end metrics only:
// the share of the parent's median by which the metric may worsen before a
// change is a regression. Moves is set for per-layer metrics only: the
// end-to-end metric (and workloads) the layer metric should move.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every metric, so each is defined for served and in-process workloads
// alike; "op" is one request of the workload's main loop (a page, a point
// request, a cold start, a request of a mutate cycle).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "answers_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "page_p10_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "probe_ns", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "seek_ns", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "first_answer_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_answer_restore_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "build_exponent", Unit: "1", Better: "lower", Bound: 0.25},
	{Name: "delay_drift", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "update_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "index_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Moves targets, spelled once.
const (
	movesBuild    = "first_answer_ms, build_exponent on cold-start, near-lib (starter), ternary-lib (skip), lowdeg-lib; not scan-served or point-served"
	movesAnswer   = "answers_per_s, probe_ns, seek_ns, delay_drift on far-lib, near-lib, ternary-lib, lowdeg-lib; at most 1/6 of client.req_p10_us on scan-served"
	movesFixed    = "probe_ns, seek_ns, page_p10_us on the served workloads (the fixed part of a request); not answers_per_s on scan-served"
	movesPerAns   = "answers_per_s, allocs_per_op on scan-served (the per-answer part); not point-served"
	movesCache    = "update_ms, answers_per_s on mutate-mix, first_answer_ms on cold-start"
	movesSnapshot = "first_answer_restore_ms on cold-start and every core workload"
	movesMutation = "update_ms on mutate-mix"
	movesClient   = "none: cost of the generator and the runtime, reported so that it can be subtracted"
)

// perLayer lists the single-layer metrics of the traced run (--trace 1).
// The prefix of a name is the module it measures. A layer that a workload
// does not use reports 0 there.
var perLayer = []metricSpec{
	// Build, timed by calling the constructors with the parameters
	// core.Preprocess derives.
	{Name: "graph.gen_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "fo.parse_us", Unit: "us", Better: "lower", Moves: movesBuild},
	{Name: "core.compile_us", Unit: "us", Better: "lower", Moves: movesBuild},
	{Name: "dist.build_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "cover.build_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "cover.kernels_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "cover.bags", Unit: "count", Better: "lower", Moves: movesBuild},
	{Name: "cover.degree", Unit: "count", Better: "lower", Moves: movesBuild},
	{Name: "cover.sum_bag_sizes", Unit: "count", Better: "lower", Moves: movesBuild},
	{Name: "skip.build_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "skip.pointers", Unit: "count", Better: "lower", Moves: movesBuild},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "core.starter_glue_ms", Unit: "ms", Better: "lower", Moves: movesBuild},
	{Name: "wcol.degeneracy_ms", Unit: "ms", Better: "lower", Moves: "first_answer_ms on lowdeg-lib"},
	{Name: "lowdeg.preprocess_ms", Unit: "ms", Better: "lower", Moves: "first_answer_ms, update_ms on lowdeg-lib"},

	// Answering.
	{Name: "core.next_ns", Unit: "ns", Better: "lower", Moves: movesAnswer},
	{Name: "core.test_ns", Unit: "ns", Better: "lower", Moves: movesAnswer},
	{Name: "core.nextgeq_ns", Unit: "ns", Better: "lower", Moves: movesAnswer},
	{Name: "core.seek_ns", Unit: "ns", Better: "lower", Moves: movesAnswer},
	{Name: "lowdeg.next_ns", Unit: "ns", Better: "lower", Moves: "answers_per_s on lowdeg-lib"},
	{Name: "lowdeg.test_ns", Unit: "ns", Better: "lower", Moves: "probe_ns on lowdeg-lib"},
	{Name: "repro.next_overhead_ns", Unit: "ns", Better: "lower", Moves: movesAnswer},
	{Name: "core.candidates_per_answer", Unit: "count", Better: "lower", Moves: movesAnswer},
	{Name: "core.dead_ends_per_answer", Unit: "count", Better: "lower", Moves: movesAnswer},
	{Name: "core.local_evals_per_answer", Unit: "count", Better: "lower", Moves: movesAnswer},
	{Name: "core.memo_hit_share", Unit: "ratio", Better: "higher", Moves: movesAnswer},

	// Serve, timed around Handler().ServeHTTP with a ResponseRecorder.
	{Name: "serve.handler_enumerate1_us", Unit: "us", Better: "lower", Moves: movesFixed},
	{Name: "serve.handler_enumerate10k_us", Unit: "us", Better: "lower", Moves: movesPerAns},
	{Name: "serve.handler_test_us", Unit: "us", Better: "lower", Moves: movesFixed},
	{Name: "serve.handler_next_us", Unit: "us", Better: "lower", Moves: movesFixed},
	{Name: "serve.handler_count_us", Unit: "us", Better: "lower", Moves: movesFixed},
	{Name: "serve.handler_mutate_us", Unit: "us", Better: "lower", Moves: movesMutation},
	{Name: "serve.handler_query_warm_us", Unit: "us", Better: "lower", Moves: movesFixed},
	{Name: "serve.allocs_per_req_enumerate1", Unit: "count", Better: "lower", Moves: "allocs_per_op on point-served"},
	{Name: "serve.allocs_per_req_test", Unit: "count", Better: "lower", Moves: "allocs_per_op on point-served"},
	{Name: "serve.per_answer_ns", Unit: "ns", Better: "lower", Moves: movesPerAns},
	{Name: "serve.encode_copy_ns_per_answer", Unit: "ns", Better: "lower", Moves: movesPerAns},
	{Name: "serve.response_bytes_per_answer", Unit: "B", Better: "lower", Moves: movesPerAns},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: movesCache},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "serve.cache_builds", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "serve.cache_migrations", Unit: "count", Better: "higher", Moves: movesCache},
	{Name: "serve.cache_snapshot_hits", Unit: "count", Better: "higher", Moves: movesCache},
	{Name: "serve.cache_snapshot_writes", Unit: "count", Better: "lower", Moves: movesCache},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher", Moves: movesCache},

	// Snapshot.
	{Name: "snap.write_ms", Unit: "ms", Better: "lower", Moves: "setup_s of a server with a snapshot directory"},
	{Name: "snap.read_ms", Unit: "ms", Better: "lower", Moves: movesSnapshot},
	{Name: "repro.restore_ms", Unit: "ms", Better: "lower", Moves: movesSnapshot},
	{Name: "snap.bytes", Unit: "B", Better: "lower", Moves: movesSnapshot},
	{Name: "snap.bytes_per_vertex", Unit: "B", Better: "lower", Moves: movesSnapshot},

	// Mutation.
	{Name: "graph.patch_us", Unit: "us", Better: "lower", Moves: movesMutation},
	{Name: "core.apply_edits_ms", Unit: "ms", Better: "lower", Moves: movesMutation},
	{Name: "cover.patch_ms", Unit: "ms", Better: "lower", Moves: movesMutation},
	{Name: "dist.patch_ms", Unit: "ms", Better: "lower", Moves: movesMutation},
	{Name: "skip.delta_len", Unit: "count", Better: "lower", Moves: movesMutation},
	{Name: "core.mut_rebuild_share", Unit: "ratio", Better: "lower", Moves: movesMutation},
	{Name: "mutate.update_mean_ms", Unit: "ms", Better: "lower", Moves: movesMutation},
	{Name: "mutate.update_max_ms", Unit: "ms", Better: "lower", Moves: movesMutation},

	// Generator and runtime.
	{Name: "client.transport_us", Unit: "us", Better: "lower", Moves: movesClient},
	{Name: "client.req_tail_us", Unit: "us", Better: "lower", Moves: movesClient},
	{Name: "client.req_tail_pct", Unit: "%", Better: "higher", Moves: movesClient},
	{Name: "client.samples", Unit: "count", Better: "higher", Moves: movesClient},
	{Name: "client.req_p10_us", Unit: "us", Better: "lower", Moves: "the main window's read latency; on a scan it is one page over answers_per_s"},
	{Name: "client.verify_us", Unit: "us", Better: "lower", Moves: movesClient},
	{Name: "client.failed_share", Unit: "ratio", Better: "lower", Moves: "must be 0 on every workload"},
	{Name: "runtime.cpu_ns_per_op", Unit: "ns", Better: "lower", Moves: "answers_per_s: on one processor it is a request's time on the clock again"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: movesClient},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Moves: movesClient},
	{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower", Moves: movesClient},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: movesClient},
}

// querySpec is one of the three benchmark queries. holds is the query's
// meaning written out by hand over a distance function and colour lookups,
// which is what makes the oracle independent of both engines.
type querySpec struct {
	Key   string
	Src   string
	Vars  []string
	holds func(g *repro.Graph, dist distFunc, t []int) bool
}

// distFunc returns dist(u,v) if it is at most max, and -1 otherwise.
type distFunc func(u, v, max int) int

var (
	far2 = querySpec{
		Key: "far2", Src: "dist(x,y) > 2 & C0(y)", Vars: []string{"x", "y"},
		holds: func(g *repro.Graph, d distFunc, t []int) bool {
			return d(t[0], t[1], 2) < 0 && g.HasColor(t[1], 0)
		},
	}
	near2 = querySpec{
		Key: "near2", Src: "dist(x,y) <= 2 & C0(x) & C1(y)", Vars: []string{"x", "y"},
		holds: func(g *repro.Graph, d distFunc, t []int) bool {
			return d(t[0], t[1], 2) >= 0 && g.HasColor(t[0], 0) && g.HasColor(t[1], 1)
		},
	}
	far3 = querySpec{
		Key: "far3", Src: "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", Vars: []string{"x", "y", "z"},
		holds: func(g *repro.Graph, d distFunc, t []int) bool {
			return d(t[0], t[2], 2) < 0 && d(t[1], t[2], 2) < 0 && g.HasColor(t[2], 0)
		},
	}
)

// mainKind is the traffic of a workload's main window.
type mainKind int

const (
	mainScan   mainKind = iota // one client pages through the answers, 10 000 a request
	mainPoint                  // two clients send a fixed mix of point requests
	mainCold                   // cold starts through the build tier and the snapshot tier, both sizes
	mainMutate                 // cycles of one write, the first page at the new head, ten cursor pages
)

// workloadSpec is one set of inputs. Every workload holds its graph at two
// sizes (large is four times small) so that build_exponent and delay_drift
// are defined everywhere.
type workloadSpec struct {
	Name   string
	Why    string
	Gated  bool // listed in BENCHMARK.json, so the driver runs it; the others are run by hand
	Served bool // through a loopback HTTP server, or on the facade in-process
	Class  string
	NLarge int
	NSmall int
	Query  querySpec
	Engine repro.EngineKind
	Main   mainKind
}

// The workload names are fixed: later issues cite them. Four of the eight
// are gated: the driver's time limit for all its runs buys runs long enough
// to repeat for four workloads, not for eight (README.md has the numbers),
// and these four between them reach every layer — the served read path, the
// write path, the core engine's build with its most expensive phase, and the
// second engine.
var workloads = []workloadSpec{
	{
		Name: "scan-served", Gated: true, Served: true, Class: "grid", NLarge: 32000, NSmall: 8000, Query: far2, Main: mainScan,
		Why: "paging 10000 answers a request over HTTP: per-answer copy and JSON encode in serve dominate, core Next is about 1/6, build layers idle",
	},
	{
		Name: "point-served", Served: true, Class: "grid", NLarge: 32000, NSmall: 8000, Query: far2, Main: mainPoint,
		Why: "two clients, 40% enumerate limit=1, 30% test, 20% next, 10% count: per-request HTTP, body and cursor decode, cache lookup dominate; mirror of scan-served",
	},
	{
		Name: "cold-start", Served: true, Class: "grid", NLarge: 32000, NSmall: 8000, Query: far2, Main: mainCold,
		Why: "flush then first page, build tier and snapshot tier, 16k and 64k: dist, cover, kernel, starter, skip and snap do the work, warm serve code idles",
	},
	{
		Name: "mutate-mix", Gated: true, Served: true, Class: "grid", NLarge: 32000, NSmall: 8000, Query: far2, Main: mainMutate,
		Why: "writes beside reads: mutate, first page at the new head, ten cursor pages; patching, skip overlay, version retention and LRU eviction show here",
	},
	{
		Name: "far-lib", Class: "grid", NLarge: 32000, NSmall: 8000, Query: far2, Main: mainScan,
		Why: "in-process facade, far2: the paper's constant-delay claim and its drift with n, with no serve layer at all",
	},
	{
		Name: "near-lib", Class: "grid", NLarge: 8000, NSmall: 2000, Query: near2, Main: mainScan,
		Why: "in-process, near2: starter computation is most of the build and bag-local evaluation with its memo most of an answer; skip pointers idle",
	},
	{
		Name: "ternary-lib", Gated: true, Class: "grid", NLarge: 4000, NSmall: 1000, Query: far3, Main: mainScan,
		Why: "in-process, far3: skip.New for bag sets of size 2 is about 85% of the build and grows faster than n; the workload for ROADMAP item 2",
	},
	{
		Name: "lowdeg-lib", Gated: true, Class: "bdeg", NLarge: 32000, NSmall: 8000, Query: far2, Engine: repro.EngineAuto, Main: mainScan,
		Why: "in-process, auto engine on a degree-4 graph: selection and lowdeg.Preprocess; a core, skip or cover change must not move it",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runSeconds is how long the rounds of one run go on, as BENCHMARK.json
// asks the driver for; see README.md for how it was chosen.
const runSeconds = 28

// benchmarkSpecJSON renders BENCHMARK.json from the tables above.
func benchmarkSpecJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	out := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if w.Gated {
			out.Workloads = append(out.Workloads, workload{w.Name, w.Why})
		}
	}
	for _, m := range endToEnd {
		b := m.Bound
		out.EndToEnd = append(out.EndToEnd, metric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	return string(b)
}
