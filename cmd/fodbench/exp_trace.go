package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/obs"
)

// runTrace is the -trace mode: it builds one index and enumerates one
// page with request-scoped tracing enabled, then prints the span tree the
// serve layer would expose at /debug/traces/{id}. It is the offline twin
// of the HTTP trace explorer — same spans, same names, no server.
func runTrace(quick bool) {
	n := 16000
	if quick {
		n = 2000
	}
	g := repro.Generate("grid", n, repro.GenOptions{Colors: 2})
	q := repro.MustParseQuery("dist(x,y) <= 2 & C0(y)", "x", "y")

	tracer := obs.NewTracer(obs.TracerConfig{Buffer: 4, Slow: -1}) // retain everything
	tracer.Register(benchReg)
	tr := tracer.Start("fodbench build+enumerate", obs.TraceID{}, "")
	ctx := obs.ContextWithSpan(context.Background(), obs.SpanCtx{Trace: tr})

	ix, err := repro.Build(ctx, g, q, repro.WithParallelism(parallelism), repro.WithMetrics(benchReg))
	if err != nil {
		fmt.Printf("trace: build failed: %v\n", err)
		return
	}

	sp := benchReg.StartSpan(ctx, "enumerate")
	it := ix.Iterator()
	count := 0
	for count < 1000 {
		if _, ok := it.Next(); !ok {
			break
		}
		count++
	}
	sp.End()

	tr.Finish(200, "")
	det := tr.Detail()
	fmt.Printf("trace %s — %s (grid n=%d, %d solutions, %s total)\n\n",
		det.ID, det.Name, n, count, time.Duration(det.DurNS))
	for _, node := range det.Tree {
		printSpanTree(node, 0)
	}
}

func printSpanTree(node *obs.SpanNode, depth int) {
	for i := 0; i < depth; i++ {
		fmt.Print("  ")
	}
	fmt.Printf("%-*s %12s  (start +%s)\n", 36-2*depth, node.Name,
		time.Duration(node.DurNS), time.Duration(node.StartNS))
	for _, c := range node.Children {
		printSpanTree(c, depth+1)
	}
}
