package snap_test

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
)

// The snapshot guards run in verify.sh tier 3 under SNAP_GUARD=1 with
// -count=1, next to the LINT_GUARD allocation guards they extend: loading
// a snapshot must beat rebuilding by at least 10× on the fodbench E15
// configuration, and the restored index must keep the //fod:hotpath
// contract — zero allocations per enumeration step.

func snapGuardGate(t *testing.T) {
	t.Helper()
	if os.Getenv("SNAP_GUARD") == "" {
		t.Skip("set SNAP_GUARD=1 to run the snapshot performance guards")
	}
}

// buildE15 reproduces the fodbench E15 setup (Example 2 of the paper on
// the grid class) through the public API.
func buildE15(t testing.TB) (*repro.Graph, *repro.Index, time.Duration) {
	t.Helper()
	g := repro.Generate("grid", 2000, repro.GenOptions{Seed: 7, Colors: 1, ColorProb: 0.05})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	start := time.Now()
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	return g, ix, time.Since(start)
}

// TestSnapshotLoadSpeedGuard pins the point of the snapshot tier: a load
// skips the whole pseudo-linear preprocessing, so it must be at least an
// order of magnitude faster than the build it replaces.
func TestSnapshotLoadSpeedGuard(t *testing.T) {
	snapGuardGate(t)
	_, ix, buildTime := buildE15(t)
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Best of three, so a stray scheduler hiccup on a loaded machine does
	// not fail the guard; the build is measured once, cold, as a server
	// would pay it. The explicit GC keeps the build's garbage from being
	// collected inside the timed loads.
	runtime.GC()
	loadTime := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := repro.ReadIndexSnapshot(data); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < loadTime {
			loadTime = d
		}
	}
	t.Logf("E15: build %v, snapshot load %v (%.1fx), %d snapshot bytes",
		buildTime, loadTime, float64(buildTime)/float64(loadTime), len(data))
	if 10*loadTime > buildTime {
		t.Errorf("snapshot load %v is not ≥10x faster than build %v", loadTime, buildTime)
	}
}

// TestSnapshotLoadZeroAllocsGuard pins the restored index to the same
// zero-allocation enumeration hot path as a freshly built one — restoring
// from disk must not reintroduce per-answer allocations.
func TestSnapshotLoadZeroAllocsGuard(t *testing.T) {
	snapGuardGate(t)
	_, built, _ := buildE15(t)
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := repro.ReadIndexSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	it := ix.Iterator()
	if !it.HasNext() {
		t.Fatal("restored E15 index produced no solutions")
	}
	zero := make([]int, ix.Arity())
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := it.Next(); !ok {
			it.Seek(zero)
		}
	})
	if allocs != 0 {
		t.Errorf("restored Iterator.Next = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}

	probe := make([]int, ix.Arity())
	allocs = testing.AllocsPerRun(2000, func() {
		ix.Test(probe)
	})
	if allocs != 0 {
		t.Errorf("restored Index.Test = %.2f allocs/op, want 0 (//fod:hotpath contract)", allocs)
	}
}
