// Command fodenum builds the Theorem 2.3 index for an FO⁺ query over a
// colored graph and enumerates, tests, or counts solutions:
//
//	fodgen -class grid -n 10000 -colors 1 | fodenum -query "dist(x,y) > 2 & C0(y)" -vars x,y -limit 10
//	fodenum -graph g.txt -query "E(x,y) & C0(x)" -vars x,y -count
//	fodenum -graph g.txt -query "C0(x)" -vars x -test 17
//	fodenum -graph g.txt -query "C0(x)" -vars x -next 40
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/graph"
)

func main() {
	graphPath := flag.String("graph", "-", "graph file in the text format ('-' = stdin)")
	query := flag.String("query", "", "FO⁺ query, e.g. 'dist(x,y) > 2 & C0(y)'")
	vars := flag.String("vars", "", "comma-separated output variables, e.g. x,y")
	limit := flag.Int("limit", 0, "stop after this many solutions (0 = all)")
	count := flag.Bool("count", false, "print only the number of solutions")
	testTuple := flag.String("test", "", "test one comma-separated tuple instead of enumerating")
	nextTuple := flag.String("next", "", "print the smallest solution ≥ this comma-separated tuple")
	explain := flag.Bool("explain", false, "print the compiled plan and index structure, then exit")
	parallel := flag.Int("parallel", 0, "preprocessing workers (0 = all CPUs, 1 = sequential)")
	deadline := flag.Duration("deadline", 0, "abort preprocessing after this long, e.g. 30s (0 = no deadline)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (expvar), /debug/metrics (JSON) and /debug/pprof on this address, e.g. localhost:6060")
	metrics := flag.Bool("metrics", false, "print the metrics JSON snapshot to stderr when done")
	flag.Parse()

	if *query == "" || *vars == "" {
		fmt.Fprintln(os.Stderr, "fodenum: -query and -vars are required")
		os.Exit(2)
	}
	in := os.Stdin
	if *graphPath != "-" {
		f, err := os.Open(*graphPath)
		if err != nil {
			fail(err)
		}
		defer f.Close() // input opened read-only; close errors carry no data loss
		in = f
	}
	g, err := graph.Read(in)
	if err != nil {
		fail(err)
	}
	q, err := repro.ParseQuery(*query, strings.Split(*vars, ",")...)
	if err != nil {
		fail(err)
	}
	var reg *repro.Metrics
	if *debugAddr != "" || *metrics {
		reg = repro.NewMetrics()
	}
	if *debugAddr != "" {
		ln, err := repro.ServeDebug(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fodenum: debug server on http://%s/debug/vars (also /debug/metrics, /debug/pprof)\n", ln.Addr())
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	start := time.Now()
	ix, err := repro.Build(ctx, g, q, repro.WithParallelism(*parallel), repro.WithMetrics(reg))
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "fodenum: preprocessing %v (n=%d, m=%d)\n",
		time.Since(start).Round(time.Microsecond), g.N(), g.M())

	switch {
	case *explain:
		fmt.Println(ix.Explain())
	case *testTuple != "":
		tup := parseTuple(*testTuple, ix.Arity())
		fmt.Println(ix.Test(tup))
	case *nextTuple != "":
		tup := parseTuple(*nextTuple, ix.Arity())
		if sol, ok := ix.Next(tup); ok {
			fmt.Println(strings.Trim(fmt.Sprint(sol), "[]"))
		} else {
			fmt.Println("none")
		}
	case *count:
		fmt.Println(ix.FastCount())
	default:
		printed := 0
		ix.Enumerate(func(sol []int) bool {
			fmt.Println(strings.Trim(fmt.Sprint(sol), "[]"))
			printed++
			return *limit == 0 || printed < *limit
		})
		fmt.Fprintf(os.Stderr, "fodenum: %d solutions\n", printed)
	}
	if *metrics {
		if err := reg.WriteJSON(os.Stderr); err != nil {
			fail(err)
		}
	}
}

func parseTuple(s string, arity int) []int {
	parts := strings.Split(s, ",")
	if len(parts) != arity {
		fail(fmt.Errorf("tuple %q has %d components, query arity is %d", s, len(parts), arity))
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fail(err)
		}
		out[i] = v
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fodenum:", err)
	os.Exit(1)
}
