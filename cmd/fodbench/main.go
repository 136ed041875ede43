// Command fodbench reproduces the paper's evaluation: one experiment per
// complexity claim. Each experiment prints a table; EXPERIMENTS.md records
// the interpretation.
//
//	fodbench -exp all
//	fodbench -exp E1,E5,E6 -quick
//	fodbench -exp F1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/par"
)

// benchReg aggregates the phase spans of every engine the experiments
// build; -debug-addr exposes it live.
var benchReg = obs.New()

type experiment struct {
	name  string
	title string
	run   func(quick bool)
}

var experiments = []experiment{
	{"F1", "Figure 1: Storing-Theorem register layout (n=27, ε=1/3)", runF1},
	{"E1", "Theorem 3.1: Storing Theorem — update O(n^ε), lookup O(1), space O(|Dom|·n^ε)", runE1},
	{"E2", "Theorem 4.4: neighborhood covers — pseudo-linear time, small degree", runE2},
	{"E3", "Proposition 4.2: distance index — O(1) tests after pseudo-linear preprocessing", runE3},
	{"E4", "Theorem 4.6: splitter game — λ(r) independent of n on nowhere dense classes", runE4},
	{"E5", "Theorem 2.3: next-solution — O(1) NextGeq after pseudo-linear preprocessing", runE5},
	{"E6", "Corollary 2.5: constant-delay enumeration vs naive streaming", runE6},
	{"E7", "Corollary 2.4: constant-time testing vs direct evaluation", runE7},
	{"E8", "Crossover: time to first K solutions, index vs naive", runE8},
	{"E9", "Theorem 2.1: sparsity ‖G‖ ≤ |G|^{1+ε} on nowhere dense classes", runE9},
	{"E10", "Lemma 2.2: adjacency-graph encoding of relational databases", runE10},
	{"E11", "Lemma 5.8: skip pointers — O(1) SKIP queries", runE11},
	{"E12", "Counting ([18]): pseudo-linear FastCount vs counting by enumeration", runE12},
	{"E13", "§2 characterization: weak r-accessibility small on nowhere dense classes", runE13},
}

// parallelism is the preprocessing worker count shared by all experiments
// (0 = GOMAXPROCS); set by the -parallel flag.
var parallelism int

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	quick := flag.Bool("quick", false, "smaller sweeps for a fast pass")
	flag.IntVar(&parallelism, "parallel", 0,
		"preprocessing workers (0 = all CPUs, 1 = sequential); results are identical for every setting")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars (expvar), /debug/metrics (JSON) and /debug/pprof on this address while the experiments run")
	trace := flag.Bool("trace", false,
		"build one index, enumerate one page, and print the request-scoped span tree (the offline view of /debug/traces)")
	flag.Parse()
	parallelism = par.Resolve(parallelism)

	if *debugAddr != "" {
		ln, err := obs.ServeDebug(*debugAddr, benchReg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fodbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fodbench: debug server on http://%s/debug/vars\n", ln.Addr())
	}
	if *trace {
		runTrace(*quick)
		return
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(e))] = true
		}
	}
	ran := 0
	for _, e := range experiments {
		if *expFlag != "all" && !want[e.name] {
			continue
		}
		fmt.Printf("== %s — %s ==\n\n", e.name, e.title)
		e.run(*quick)
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "fodbench: no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}

// sweep returns the default vertex-count sweep.
func sweep(quick bool) []int {
	if quick {
		return []int{500, 2000, 8000}
	}
	return []int{1000, 4000, 16000, 64000}
}

// sparseClasses are the nowhere dense generator classes used across the
// experiments.
var sparseClasses = []string{"path", "cycle", "star", "caterpillar", "btree",
	"rtree", "grid", "kinggrid", "bdeg", "sparserandom"}

// coreClasses is the shorter list used by the heavier engine experiments.
var coreClasses = []string{"path", "btree", "grid", "kinggrid", "bdeg"}
