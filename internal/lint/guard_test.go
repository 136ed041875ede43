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
// //fod:hotpath closure, under both localities. If one of these drops out of
// the closure, hotpath-transitive has silently stopped checking a
// function the benchmarks still rely on.
func TestHotClosureMatchesAllocGuards(t *testing.T) {
	lint2Gate(t)
	_, pkgs := loadModule(t)
	prog := BuildProgram(pkgs)
	closure := HotClosure(prog)

	pinned := []string{
		// internal/core LINT_GUARD and internal/lowdeg LOWDEG_GUARD suites:
		// Iterator.Next (the one iterator), Engine.Test, Engine.NextLast
		// and the primitives under them — one engine, so one set.
		"core.(Iterator).Next",
		"core.(Iterator).settle",
		"core.(Engine).NextClauseInto",
		"core.(Engine).nextGeq",
		"core.(Engine).nextLast",
		"core.(Engine).test",
		"core.(Engine).localEval",
		// What the engine reaches only through the locality interface (the
		// call graph follows the dispatch by CHA): both implementations of
		// the distance test and of Case I.
		"core.(coverLoc).within",
		"core.(coverLoc).nextOpening",
		"core.(ballLoc).within",
		"core.(ballLoc).nextOpening",
		// The Claim 5.9 chase under coverLoc.nextOpening: one row lookup
		// per hop.
		"skip.(table).lookup",
		// internal/serve TestEnumerateAllocsPerAnswer: a 10000-answer page
		// allocates what a 100-answer page does, so the one function the
		// page writer runs per answer is held to the same rules.
		"serve.appendRow",
	}
	byName := map[string]*FuncNode{}
	for _, n := range prog.Nodes {
		byName[n.Name()] = n
	}
	for _, name := range pinned {
		n := byName[name]
		if n == nil {
			t.Errorf("no function %s in the call graph (guard target renamed?)", name)
			continue
		}
		if !closure[n] {
			t.Errorf("%s is AllocsPerRun-pinned but outside the //fod:hotpath closure", name)
		}
	}
	t.Logf("hot closure: %d members across %d packages", len(closure), len(pkgs))
}
