package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// The LINT2_GUARD suite is verify.sh tier 3's self-lint gate: it loads
// the whole module the way cmd/fodlint does, demands that all seven
// analyzers come back clean modulo the reviewed baseline, and
// cross-checks the static hot closure against the functions the
// AllocsPerRun guards (LINT_GUARD / LOWDEG_GUARD suites) pin at
// 0 allocs/op. Loading and type-checking the full module from source
// takes several seconds, so the suite is opt-in via LINT2_GUARD=1.

func lint2Gate(t *testing.T) {
	t.Helper()
	if os.Getenv("LINT2_GUARD") == "" {
		t.Skip("set LINT2_GUARD=1 to run the self-lint guard suite")
	}
}

func loadModule(t *testing.T) (string, []*Package) {
	t.Helper()
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return moduleDir, pkgs
}

// TestSelfLintClean runs every analyzer over every module package
// (internal/lint included) and requires zero findings outside the
// baseline, and zero stale baseline entries.
func TestSelfLintClean(t *testing.T) {
	lint2Gate(t)
	moduleDir, pkgs := loadModule(t)
	diags := RunAnalyzers(pkgs, All())
	b, err := LoadBaseline(filepath.Join(moduleDir, "lint.baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed, unused := b.Filter(moduleDir, diags)
	for _, d := range kept {
		t.Errorf("unbaselined finding: %s", d)
	}
	for _, e := range unused {
		t.Errorf("stale baseline entry (matches nothing): %s %s %q", e.Analyzer, e.File, e.Message)
	}
	t.Logf("self-lint: %d packages, %d finding(s) suppressed by baseline", len(pkgs), suppressed)
}

// TestHotClosureMatchesAllocGuards pins the agreement between the two
// halves of the delay-bound check: every function a dynamic
// AllocsPerRun guard pins at 0 allocs/op must be a member of the static
// //fod:hotpath closure, in both engines. If one of these drops out of
// the closure, hotpath-transitive has silently stopped checking a
// function the benchmarks still rely on.
func TestHotClosureMatchesAllocGuards(t *testing.T) {
	lint2Gate(t)
	_, pkgs := loadModule(t)
	prog := BuildProgram(pkgs)
	closure := HotClosure(prog)

	pinned := []struct{ pkgFrag, name string }{
		// internal/core LINT_GUARD suite: Iterator.Next (the one iterator,
		// shared by both engines), Engine.Test, Engine.NextLast and the
		// primitives under them.
		{"internal/core", "Next"},
		{"internal/core", "settle"},
		{"internal/core", "NextClauseInto"},
		{"internal/core", "nextGeq"},
		{"internal/core", "nextLast"},
		{"internal/core", "test"},
		{"internal/core", "localEval"},
		// The Claim 5.9 chase under nextGeq: one row lookup per hop.
		{"internal/skip", "lookup"},
		// internal/lowdeg LOWDEG_GUARD suite: same contract on the
		// low-degree engine. Its enumeration step is the shared
		// Iterator.Next dispatching to this NextClauseInto.
		{"internal/lowdeg", "NextClauseInto"},
		{"internal/lowdeg", "nextGeq"},
		{"internal/lowdeg", "nextLast"},
		{"internal/lowdeg", "test"},
		{"internal/lowdeg", "localEval"},
	}
	for _, p := range pinned {
		n := prog.LookupFunc(p.pkgFrag, p.name)
		if n == nil {
			t.Errorf("%s: no function %q in the call graph (guard target renamed?)", p.pkgFrag, p.name)
			continue
		}
		if !closure[n] {
			t.Errorf("%s is AllocsPerRun-pinned but outside the //fod:hotpath closure", n.Name())
		}
	}
	t.Logf("hot closure: %d members across %d packages", len(closure), len(pkgs))
}
