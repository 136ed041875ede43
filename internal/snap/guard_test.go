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
// skips the whole pseudo-linear preprocessing, so it must be cheaper than
// the build it replaces by a margin worth a file. The threshold is what a
// load provably buys, not what it bought once, and its history is the
// history of both sides of the ratio on grid-2000:
//
//	gate 10×    the ratio was above 10× until PRs 12–15 made the build
//	            2–4× cheaper;
//	gate 3×     about 8× after them, 5.5× (3.9–6.6× over fifteen runs) after
//	            PR 23 took the starter phase out of the build;
//	gate 1.25×  2.3× (1.7–3.1×: build 1.4–2.0 ms, load 0.58–0.83 ms) after
//	            PR 24 halved the cover's share of it — a load was 42 % the
//	            CRC-64 of its sections, and the guard could ask for no more
//	            than "does not cost more than it saves";
//	gate 1.75×  3.5× (2.6–4.5× over fifteen runs alone: build 1.28–1.81 ms,
//	            load 0.35–0.54 ms; 2.9×, 3.7×, 3.5× in three runs beside the
//	            other guards) since PR 25 made the checksum CRC-32C — two
//	            thirds of the smallest ratio seen.
//
// At n = 32k bench reads first_answer_ms 23.7 against
// first_answer_restore_ms 7.7. What a load still pays is linear in the file
// and is not the checksum: revalidating the skip rows and the cover,
// rebuilding the inverted lists (ROADMAP item 9). A timing ratio, so it runs
// in verify.sh tier 3 under GUARD=1; that the restored index keeps the
// 0 allocs/op hot paths is a tier-1 row of TestFacadeHotPathsZeroAllocs.
func TestSnapshotLoadSpeedGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	// Example 2 of the paper on grid-2000, through the public API.
	g := repro.Generate("grid", 2000, repro.GenOptions{Seed: 7, Colors: 1, ColorProb: 0.05})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Best of three on both sides, each from a collected heap: one run is
	// at the mercy of a scheduler hiccup or of a collection that starts
	// inside it, and a guard that compares one cold build (which may be the
	// slow one) with the best of three loads passes or fails by that luck.
	best := func(op func() error) time.Duration {
		fastest := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			runtime.GC()
			start := time.Now()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			fastest = min(fastest, time.Since(start))
		}
		return fastest
	}
	buildTime := best(func() error { _, err := repro.Build(context.Background(), g, q); return err })
	loadTime := best(func() error { _, err := repro.ReadIndexSnapshot(data); return err })
	t.Logf("grid-2000: build %v, snapshot load %v (%.1fx), %d snapshot bytes",
		buildTime, loadTime, float64(buildTime)/float64(loadTime), len(data))
	if 7*loadTime > 4*buildTime {
		t.Errorf("snapshot load %v is not ≥1.75x faster than build %v", loadTime, buildTime)
	}
}
