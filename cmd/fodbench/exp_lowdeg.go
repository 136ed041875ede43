package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/xbench"
)

// runE17 measures the low-degree engine (Durand–Schweikardt–Segoufin: the
// one engine over its ball locality, built by lowdeg.Preprocess) against
// the same engine over the paper's cover locality on degree-bounded
// graphs: the regime where the linear ball-based preprocessing should beat
// the core build (no cover, kernels, distance recursion or skip pointers
// to pay for) while matching its constant enumeration delay. Both kinds
// are forced through the facade (repro.WithEngine), cross-checked on
// their counts before any timing is trusted, and the auto selector's
// routing decision for each graph is recorded alongside.
//
// Emits BENCH_lowdeg.json: per class and size, both build walls and their
// ratio, the median per-answer delay of both engines, and the selection
// estimates (max degree, degeneracy) that auto routing would act on.
func runE17(quick bool) {
	classes := []string{"bdeg", "grid", "caterpillar"}
	sizes := sweep(quick)

	out := lowdegFile{
		Experiment: "E17",
		Claim:      "low-degree engine: linear build ≪ core preprocessing on degree-bounded graphs, same answers, same delay regime",
		Query:      benchQuery,
		Quick:      quick,
		Parallel:   parallelism,
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}

	t := xbench.NewTable("class", "n", "core build", "lowdeg build", "speedup", "core delay p50", "lowdeg delay p50", "auto")
	for _, class := range classes {
		for _, n := range sizes {
			rec := profileLowdeg(class, n)
			out.Records = append(out.Records, rec)
			t.Add(class, rec.N, ns(rec.CoreBuildNS), ns(rec.LowdegBuildNS),
				fmt.Sprintf("%.1f×", rec.BuildSpeedup),
				ns(rec.CoreDelayNS), ns(rec.LowdegDelayNS), rec.AutoChosen)
		}
	}
	t.Render(os.Stdout)
	fmt.Println("\nshape: lowdeg build a small constant of the graph size; core build pays for its cover machinery. Delays in the same band.")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "fodbench: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(outDir, "BENCH_lowdeg.json")
	if err := writeBenchJSON(path, out); err != nil {
		fmt.Fprintf(os.Stderr, "fodbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// profileLowdeg builds the same (graph, query) with both engines forced,
// verifies count agreement, and measures build walls plus per-answer
// enumeration delay medians.
func profileLowdeg(class string, n int) lowdegRecord {
	ctx := context.Background()
	g := repro.Generate(class, n, repro.GenOptions{Colors: 2, Seed: 16})
	q := repro.MustParseQuery(benchQuery, "x", "y")

	start := time.Now()
	coreIx, err := repro.Build(ctx, g, q, repro.WithParallelism(parallelism), repro.WithEngine(repro.EngineCore))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodbench: E17 %s n=%d core: %v\n", class, n, err)
		os.Exit(1)
	}
	coreWall := time.Since(start)

	start = time.Now()
	lowIx, err := repro.Build(ctx, g, q, repro.WithParallelism(parallelism), repro.WithEngine(repro.EngineLowDeg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodbench: E17 %s n=%d lowdeg: %v\n", class, n, err)
		os.Exit(1)
	}
	lowWall := time.Since(start)

	// Correctness gate before timing is trusted: the counting path of both
	// engines must agree (FastCount, not Count: the answer set is Θ(n²)).
	cc, _ := coreIx.SolutionCount()
	lc, _ := lowIx.SolutionCount()
	if cc != lc {
		fmt.Fprintf(os.Stderr, "fodbench: E17 %s n=%d: core count %d != lowdeg count %d\n", class, n, cc, lc)
		os.Exit(1)
	}

	// What would auto have done? Recorded so the JSON documents the
	// routing decision alongside the measurements it is based on.
	autoIx, err := repro.Build(ctx, g, q, repro.WithParallelism(parallelism), repro.WithEngine(repro.EngineAuto))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodbench: E17 %s n=%d auto: %v\n", class, n, err)
		os.Exit(1)
	}
	sel := autoIx.Selection()

	return lowdegRecord{
		Class:         class,
		N:             g.N(),
		M:             g.M(),
		Count:         cc,
		CoreBuildNS:   coreWall.Nanoseconds(),
		LowdegBuildNS: lowWall.Nanoseconds(),
		BuildSpeedup:  float64(coreWall) / float64(lowWall),
		CoreDelayNS:   delayMedian(coreIx),
		LowdegDelayNS: delayMedian(lowIx),
		MaxDegree:     sel.MaxDegree,
		Degeneracy:    sel.Degeneracy,
		AutoChosen:    string(sel.Chosen),
	}
}

// delayMedian measures the per-answer delay of the index's cursor over a
// bounded prefix of the solution stream and returns the median in
// nanoseconds (the Corollary 2.5 quantity; the bound keeps E17 linear in
// the sweep rather than quadratic in the answer set).
func delayMedian(ix *repro.Index) int64 {
	const samples = 50000
	it := ix.Iterator()
	ds := make([]time.Duration, 0, samples)
	for len(ds) < samples {
		start := time.Now()
		_, ok := it.Next()
		d := time.Since(start)
		if !ok {
			break
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds).Nanoseconds()
}

// lowdegFile is the schema of BENCH_lowdeg.json. All durations are
// nanoseconds; delays are medians over up to 50k answers.
type lowdegFile struct {
	Experiment string         `json:"experiment"`
	Claim      string         `json:"claim"`
	Query      string         `json:"query"`
	Quick      bool           `json:"quick"`
	Parallel   int            `json:"parallel"`
	NumCPU     int            `json:"num_cpu"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Records    []lowdegRecord `json:"records"`
}

type lowdegRecord struct {
	Class         string  `json:"class"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Count         int     `json:"count"`
	CoreBuildNS   int64   `json:"core_build_ns"`
	LowdegBuildNS int64   `json:"lowdeg_build_ns"`
	BuildSpeedup  float64 `json:"build_speedup"` // core / lowdeg
	CoreDelayNS   int64   `json:"core_delay_ns"`
	LowdegDelayNS int64   `json:"lowdeg_delay_ns"`
	MaxDegree     int     `json:"max_degree"` // auto selector's estimate
	Degeneracy    int     `json:"degeneracy"` // auto selector's estimate
	AutoChosen    string  `json:"auto_chosen"`
}
