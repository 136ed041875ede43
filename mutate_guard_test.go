package repro

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMutateSpeedGuard pins the point of the mutation layer: a one-edge
// edit recomputes only what the edge can reach, so on grid-4000 it must be
// at least an order of magnitude faster than the rebuild it replaces (the
// n^ε update regime of the paper's §3 against the n^{1+ε} rebuild). A timing
// ratio, so it runs in verify.sh tier 3 under GUARD=1; that the patched index
// keeps the 0 allocs/op hot paths is a tier-1 row of
// TestFacadeHotPathsZeroAllocs.
func TestMutateSpeedGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	ctx := context.Background()
	// Example 2 of the paper on the 2-coloured grid-4000; the edge toggled
	// is one of the densest vertex, so the edit touches a nontrivial
	// neighborhood.
	g := Generate("grid", 4000, GenOptions{Colors: 2, Seed: 16})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	start := time.Now()
	ix, err := Build(ctx, g, q)
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
	u := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(u) {
			u = v
		}
	}
	w := int(g.Neighbors(u)[0])

	// Best of five alternating remove/add edits, so a stray scheduler
	// hiccup on a loaded machine does not fail the guard; every batch is
	// effective (the edge genuinely toggles). The rebuild is measured
	// once, cold, as a server would pay it.
	runtime.GC()
	updateTime := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		edit := RemoveEdge(u, w)
		if i%2 == 1 {
			edit = AddEdge(u, w)
		}
		start := time.Now()
		next, err := ix.ApplyEdits(ctx, []Edit{edit})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < updateTime {
			updateTime = d
		}
		if next == ix {
			t.Fatal("toggle edit reported as a no-op")
		}
		ix = next
	}
	if n := ix.Stats().MutRebuilds; n != 0 {
		t.Errorf("%d of 5 single-edge edits fell back to a full rebuild", n)
	}

	start = time.Now()
	if _, err := Build(ctx, ix.Graph(), q); err != nil {
		t.Fatal(err)
	}
	rebuildTime := time.Since(start)
	t.Logf("grid-4000: build %v, single-edge update %v, rebuild %v (%.1fx)",
		buildTime, updateTime, rebuildTime, float64(rebuildTime)/float64(updateTime))
	if 10*updateTime > rebuildTime {
		t.Errorf("single-edge update %v is not ≥10x faster than rebuild %v", updateTime, rebuildTime)
	}
}
