// Command fodlint is the repository's custom static-analysis driver: it
// loads every package of the module, runs the repo-specific analyzers of
// internal/lint and exits non-zero with file:line diagnostics when any
// invariant behind the paper's complexity claims is violated.
//
// The v2 analyzers are interprocedural: they run over a whole-program
// call graph (see internal/lint/callgraph.go), so `fodlint ./...` is the
// canonical invocation — linting a subtree sees only that subtree's
// slice of the graph.
//
// Usage:
//
//	go run ./cmd/fodlint ./...           # lint the whole module
//	go run ./cmd/fodlint -json ./...     # machine-readable findings
//	go run ./cmd/fodlint -list           # print the analyzers and exit
//	go run ./cmd/fodlint -baseline path  # alternate suppression file
//
// Findings matching an entry of the baseline file (lint.baseline.json at
// the module root by default; see internal/lint/baseline.go) are
// suppressed as reviewed exceptions; a stale baseline entry (one that
// matches no finding) is reported on stderr and fails the run like a
// finding does, so the file cannot rot. fodlint lints its own implementation
// too — internal/lint and cmd/fodlint are inside every `./...` run and
// in scope for the errdrop analyzer.
//
// fodlint runs as a tier-2 step of scripts/verify.sh; see the README
// "Static analysis" section for the annotation vocabulary (//fod:hotpath,
// //fod:coldpath, //fod:sorted, //fod:errok, //fod:ctxok, //fod:lockok,
// //fod:atomicok) and DESIGN.md for the mapping from each analyzer to
// the paper claim it protects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

// jsonFinding is one machine-readable diagnostic of -json mode.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	dir := flag.String("C", ".", "module directory to lint")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	baselinePath := flag.String("baseline", "lint.baseline.json",
		"reviewed suppression file, relative to the module directory (missing file = empty baseline)")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-19s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodlint: %v\n", err)
		os.Exit(2)
	}

	moduleDir, err := filepath.Abs(*dir)
	if err != nil {
		moduleDir = *dir
	}
	bl, err := lint.LoadBaseline(filepath.Join(moduleDir, *baselinePath))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fodlint: %v\n", err)
		os.Exit(2)
	}

	diags := lint.RunAnalyzers(pkgs, analyzers)
	kept, suppressed, unused := bl.Filter(moduleDir, diags)
	for _, e := range unused {
		fmt.Fprintf(os.Stderr, "fodlint: stale baseline entry (no matching finding): %s %s: %s\n",
			e.Analyzer, e.File, e.Message)
	}

	if *jsonOut {
		findings := make([]jsonFinding, 0, len(kept))
		for _, d := range kept {
			findings = append(findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     lint.RelFile(moduleDir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "fodlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range kept {
			fmt.Println(d)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "fodlint: %d finding(s) suppressed by baseline\n", suppressed)
	}
	if len(kept) > 0 {
		fmt.Fprintf(os.Stderr, "fodlint: %d invariant violation(s) in %d package(s)\n", len(kept), len(pkgs))
	}
	if len(kept) > 0 || len(unused) > 0 {
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("fodlint: %d packages clean (%d analyzers)\n", len(pkgs), len(analyzers))
	}
}
