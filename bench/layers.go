package main

// Every call into internal/{dist,cover,skip,core,lowdeg,wcol,snap,graph,fo}
// lives in this file, so that a change which moves a constructor needs a
// one-file change here first. The layers are measured from outside: each
// function below calls a layer's public constructor or method with the
// parameters core.Preprocess derives, and times the call.

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/lowdeg"
	"repro/internal/skip"
	"repro/internal/snap"
	"repro/internal/wcol"
)

// bfsDistance returns a truncated breadth-first distance over g, the
// oracle's notion of dist(u,v) that owes nothing to the distance index.
func bfsDistance(g *repro.Graph) distFunc {
	bfs := graph.NewBFS(g)
	return func(u, v, max int) int { return bfs.Distance(u, v, max) }
}

// timeMS runs f up to reps times, stopping once the runs have taken a
// second together, and returns the fastest run in milliseconds: a
// constructor's time has a floor, and the sandbox only ever adds to it.
// Calls long enough to allocate in earnest start from a collected heap,
// and the collector is parked while f runs, as it is inside the cold starts
// of the end-to-end run: a collection inside skip.New read 223 ms for 62.
func timeMS(reps int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best, total := time.Duration(1<<63-1), time.Duration(0)
	for i := 0; i < reps && total < time.Second; i++ {
		if i > 0 && best > 20*time.Millisecond {
			runtime.GC()
		}
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		if d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e6
}

// perCall runs f in up to `batches` batches, stopping after half a second
// once it has five, and returns the lower-quartile batch's time per call
// in nanoseconds. Each f call performs `calls` operations.
func perCall(batches, calls int, f func()) float64 {
	var ns []float64
	var total time.Duration
	for i := 0; i < batches && (i < 5 || total < time.Second/2); i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		ns = append(ns, float64(d.Nanoseconds())/float64(calls))
	}
	return quantile(ns, 0.25)
}

// engines is what the layer measurements share: the compiled query and an
// engine of each kind that applies to the workload, built here rather than
// taken from the facade.
type engines struct {
	lq      *core.LocalQuery
	g       *graph.Graph
	core    *core.Engine
	low     *lowdeg.Engine
	cov     *cover.Cover
	dix     *dist.Index
	starter [][]graph.V    // per live component, in clause order
	skip0   *skip.Pointers // skip pointers of the first component
}

// buildLayers times the build, layer by layer, for the engine the facade
// chose, and records one span per layer under a "build" span whose self
// time is what core.Preprocess does besides calling them.
func buildLayers(w workloadSpec, g *repro.Graph, chosen repro.EngineKind, m map[string]float64, rec *recorder) (*engines, error) {
	en := &engines{g: g}
	var phi fo.Formula
	var err error
	m["fo.parse_us"] = 1e3 * timeMS(20, func() { phi, err = fo.Parse(w.Query.Src) })
	if err != nil {
		return nil, err
	}
	vars := make([]fo.Var, len(w.Query.Vars))
	for i, v := range w.Query.Vars {
		vars[i] = fo.Var(v)
	}
	m["core.compile_us"] = 1e3 * timeMS(10, func() { en.lq, err = core.Compile(phi, vars, core.CompileOptions{}) })
	if err != nil {
		return nil, err
	}
	m["wcol.degeneracy_ms"] = timeMS(2, func() { wcol.DegeneracyFast(g) })

	if chosen == repro.EngineLowDeg {
		m["lowdeg.preprocess_ms"] = timeMS(3, func() { en.low, err = lowdeg.Preprocess(g, en.lq, lowdeg.Options{}) })
		if err == nil {
			rec.synth("build", 0, m["lowdeg.preprocess_ms"], map[string]float64{})
		}
		return en, err
	}

	// The parameters core.Preprocess derives from the query.
	lq := en.lq
	distR := lq.R
	for ci := range lq.Clauses {
		for li := range lq.Clauses[ci].Locals {
			if d := fo.MaxDistConstant(lq.Clauses[ci].Locals[li].Psi); d > distR {
				distR = d
			}
		}
	}
	coverR := 2 * lq.R
	if alt := lq.R*lq.K + lq.LocalRadius; !lq.Guarded && alt > coverR {
		coverR = alt
	}
	workers := runtime.GOMAXPROCS(0)

	m["dist.build_ms"] = timeMS(3, func() { en.dix = dist.New(g, distR, dist.Options{Workers: workers}) })
	m["cover.build_ms"] = timeMS(3, func() { en.cov = cover.ComputeWith(g, coverR, cover.Options{Workers: workers}) })
	m["cover.kernels_ms"] = timeMS(3, func() { en.cov.ComputeKernels(lq.R) })
	m["cover.bags"] = float64(en.cov.NumBags())
	m["cover.degree"] = float64(en.cov.Degree())
	m["cover.sum_bag_sizes"] = float64(en.cov.SumBagSizes())

	m["core.preprocess_ms"] = timeMS(3, func() { en.core, err = core.Preprocess(g, lq, core.Options{}) })
	if err != nil {
		return nil, err
	}
	for _, clause := range en.core.SnapshotParts().Clauses {
		for _, comp := range clause {
			l := make([]graph.V, len(comp.Starter))
			for i, v := range comp.Starter {
				l[i] = int(v)
			}
			en.starter = append(en.starter, l)
		}
	}
	if lq.K >= 2 {
		var ptrs int
		m["skip.build_ms"] = timeMS(3, func() {
			ptrs = 0
			for i, l := range en.starter {
				p := skip.New(g, en.cov, lq.K-1, l)
				ptrs += p.Size()
				if i == 0 {
					en.skip0 = p
				}
			}
		})
		m["skip.pointers"] = float64(ptrs)
	}
	layers := map[string]float64{
		"dist": m["dist.build_ms"], "cover": m["cover.build_ms"], "kernels": m["cover.kernels_ms"], "skip": m["skip.build_ms"],
	}
	glue := m["core.preprocess_ms"]
	for _, v := range layers {
		glue -= v
	}
	// The layers were timed apart from Preprocess; when noise makes them
	// outlast it together, the glue reads 0 rather than less.
	m["core.starter_glue_ms"] = max(glue, 0)
	rec.synth("build", 0, m["core.preprocess_ms"], layers)
	return en, nil
}

// answerLayers times the answering calls on the engines directly and on
// the facade index ix, and reads the engine's work counters per answer.
func answerLayers(en *engines, ix *repro.Index, probes [][]int, m map[string]float64) {
	const chunk, chunks = 10000, 30
	zero := make([]int, en.lq.K)
	scanNS := func(next func() ([]int, bool), reset func()) float64 {
		return perCall(chunks, chunk, func() {
			for i := 0; i < chunk; i++ {
				if _, ok := next(); !ok {
					reset()
				}
			}
		})
	}
	var engineNext float64
	if en.core != nil {
		it := en.core.Iterator()
		engineNext = scanNS(it.Next, func() { it.Seek(zero) })
		m["core.next_ns"] = engineNext
		m["core.test_ns"] = perCall(20, len(probes), func() {
			for _, t := range probes {
				en.core.Test(t)
			}
		})
		m["core.nextgeq_ns"] = perCall(20, len(probes), func() {
			for _, t := range probes {
				en.core.NextGeq(t)
			}
		})
		m["core.seek_ns"] = perCall(20, len(probes), func() {
			for _, t := range probes {
				en.core.IteratorFrom(t).Next()
			}
		})
	} else {
		it := en.low.Iterator()
		engineNext = scanNS(it.Next, func() { it.Seek(zero) })
		m["lowdeg.next_ns"] = engineNext
		m["lowdeg.test_ns"] = perCall(20, len(probes), func() {
			for _, t := range probes {
				en.low.Test(t)
			}
		})
	}
	fit := ix.Iterator()
	before := ix.Stats()
	facadeNext := scanNS(fit.Next, func() { fit.Seek(zero) })
	after := ix.Stats()
	m["repro.next_overhead_ns"] = facadeNext - engineNext
	answers := float64(chunk * chunks)
	evals, hits := float64(after.LocalEvals-before.LocalEvals), float64(after.LocalEvalHits-before.LocalEvalHits)
	m["core.candidates_per_answer"] = float64(after.Candidates-before.Candidates) / answers
	m["core.dead_ends_per_answer"] = float64(after.DeadEnds-before.DeadEnds) / answers
	m["core.local_evals_per_answer"] = evals / answers
	if evals+hits > 0 {
		m["core.memo_hit_share"] = hits / (evals + hits)
	}
}

// snapshotLayers times the snapshot codec and the restore on the bytes of
// one snapshot of ix.
func snapshotLayers(ix *repro.Index, data []byte, m map[string]float64) error {
	var err error
	m["snap.read_ms"] = timeMS(3, func() { _, err = snap.Read(data) })
	if err != nil {
		return err
	}
	m["repro.restore_ms"] = timeMS(3, func() { _, err = repro.ReadIndexSnapshot(data) })
	m["snap.bytes"] = float64(len(data))
	m["snap.bytes_per_vertex"] = float64(len(data)) / float64(ix.Graph().N())
	return err
}

// mutationLayers applies each batch to the unchanged engine (never
// chained, so every sample patches the same structure) and times the
// layers ApplyEdits goes through.
func mutationLayers(en *engines, batches [][]repro.Edit, m map[string]float64) error {
	if en.core == nil {
		return nil // lowdeg: a write is a rebuild, which lowdeg.preprocess_ms reports
	}
	var patchUS, applyMS, coverMS, distMS []float64
	rebuilds, deltaLen := 0, 0
	ctx := context.Background()
	for _, edits := range batches {
		var gNew *graph.Graph
		var err error
		patchUS = append(patchUS, 1e3*timeMS(1, func() { gNew, err = graph.Patch(en.g, edits) }))
		if err != nil {
			return err
		}
		var srcs []graph.V
		for _, e := range edits {
			if e.Op == graph.AddEdge || e.Op == graph.RemoveEdge {
				srcs = append(srcs, e.U, e.V)
			}
		}
		sort.Ints(srcs)
		var e2 *core.Engine
		applyMS = append(applyMS, timeMS(1, func() { e2, err = en.core.ApplyEdits(ctx, edits) }))
		if err != nil {
			return err
		}
		rebuilds += e2.Stats().MutRebuilds
		var covNew *cover.Cover
		var info *cover.PatchInfo
		ok := false
		coverMS = append(coverMS, timeMS(1, func() { covNew, info, ok = en.cov.Patch(en.g, gNew, srcs) }))
		distMS = append(distMS, timeMS(1, func() { dist.Patch(en.dix, en.g, gNew, srcs) }))
		if ok && en.skip0 != nil && deltaLen == 0 {
			deltaLen = en.skip0.WithDelta(covNew, en.starter[0], info.KernelDelta).DeltaLen()
		}
	}
	m["graph.patch_us"] = quantile(patchUS, 0.25)
	m["core.apply_edits_ms"] = quantile(applyMS, 0.25)
	m["cover.patch_ms"] = quantile(coverMS, 0.25)
	m["dist.patch_ms"] = quantile(distMS, 0.25)
	m["skip.delta_len"] = float64(deltaLen)
	m["core.mut_rebuild_share"] = float64(rebuilds) / float64(len(batches))
	return nil
}
