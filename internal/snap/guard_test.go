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

// TestSnapshotLoadSpeedGuard pins the point of the snapshot tier: a load
// skips the whole pseudo-linear preprocessing, so it must be at least an
// order of magnitude faster than the build it replaces. A timing ratio, so
// it runs in verify.sh tier 3 under GUARD=1; that the restored index keeps
// the 0 allocs/op hot paths is a tier-1 row of TestFacadeHotPathsZeroAllocs.
func TestSnapshotLoadSpeedGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	// Example 2 of the paper on grid-2000, through the public API.
	g := repro.Generate("grid", 2000, repro.GenOptions{Seed: 7, Colors: 1, ColorProb: 0.05})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	start := time.Now()
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	buildTime := time.Since(start)
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
	t.Logf("grid-2000: build %v, snapshot load %v (%.1fx), %d snapshot bytes",
		buildTime, loadTime, float64(buildTime)/float64(loadTime), len(data))
	if 10*loadTime > buildTime {
		t.Errorf("snapshot load %v is not ≥10x faster than build %v", loadTime, buildTime)
	}
}
