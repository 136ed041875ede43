// Command fodlint is the repository's static check of the constant-delay
// claim (Theorem 2.3 / Corollary 2.5): it loads every package of the
// module, walks the call closure of every `//fod:hotpath` function and
// prints a file:line diagnostic for each allocation-prone or
// clock-reading construct in it (see internal/lint).
//
// The closure is computed over a whole-program call graph, so
// `fodlint ./...` is the canonical invocation — linting a subtree sees
// only that subtree's slice of the graph.
//
// Usage:
//
//	fodlint [-C dir] [patterns]   # default pattern ./...
//
// It exits 0 when the module is clean, 1 on a finding and 2 when the
// packages do not load. It runs as a tier-2 step of scripts/verify.sh;
// see the README "Static analysis" section for the annotations
// (//fod:hotpath, //fod:coldpath).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "module directory to lint")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodlint: %v\n", err)
		os.Exit(2)
	}
	diags := lint.Check(pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fodlint: %d hot-path violation(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("fodlint: %d packages clean\n", len(pkgs))
}
