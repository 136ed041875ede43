package lint

import (
	"path/filepath"
	"testing"
)

// TestHotClosureMatchesAllocGuards pins the agreement between the two
// halves of the delay-bound check: every function a dynamic
// AllocsPerRun guard pins at 0 allocs/op must be a member of the static
// //fod:hotpath closure, under both localities. If one of these drops out of
// the closure, fodlint has silently stopped checking a
// function the benchmarks still rely on. It loads and type-checks the whole
// module from source the way cmd/fodlint does (a few seconds); that the
// module lints clean is fodlint's own exit status in verify.sh tier 2.
func TestHotClosureMatchesAllocGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildProgram(pkgs)
	closure := HotClosure(prog)

	pinned := []string{
		// internal/core and internal/lowdeg ZeroAllocs tests:
		// Iterator.Next (the one iterator), Engine.Test, Engine.NextLast
		// and the primitives under them — one engine, so one set.
		"core.(Iterator).Next",
		"core.(Iterator).settle",
		"core.(Engine).seek",
		"core.(Engine).step",
		"core.(Engine).search",
		"core.(compRT).startsAt",
		"core.lowerBound32", // over the per-kernel lists, which are int32
		"core.(Engine).nextGeq",
		"core.(Engine).nextLast",
		"core.(Engine).test",
		"core.(Engine).localEval",
		// The readers of the partner rows: a component of two positions is
		// answered by these and by nothing behind localEval.
		"core.(Engine).holdsAt",
		"core.(compRT).pairHolds",
		"core.(Engine).nextPartner",
		// What the engine reaches only through the locality interface (the
		// call graph follows the dispatch by CHA): both implementations of
		// the distance test and of Case I.
		"core.(coverLoc).within",
		"core.(coverLoc).nextOpening",
		"core.(ballLoc).within",
		"core.(ballLoc).nextOpening",
		// The one read path under all of them: adjacency, ball and inverted
		// rows are graph.Rows, built, patched or restored.
		"graph.(Rows[T]).Row",
		// The starter set: Case I's first step and a singleton's test.
		"graph.(RankSet).Rank",
		"graph.(RankSet).Has",
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
		if _, ok := closure[n]; !ok {
			t.Errorf("%s is AllocsPerRun-pinned but outside the //fod:hotpath closure", name)
		}
	}
	t.Logf("hot closure: %d members across %d packages", len(closure), len(pkgs))
}
