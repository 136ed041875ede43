package snap_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/snap"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot fixture")

const goldenPath = "testdata/golden-grid64.fodsnap"

// goldenAllRowsPath is the fixture as the commit before the skip build was
// restricted to b ∈ L wrote it, with SC rows for every vertex: the pin that
// files of that era keep loading. It is never regenerated.
const goldenAllRowsPath = "testdata/golden-grid64-allrows.fodsnap"

// goldenBallsPath pins the ball form the same way: a lowdeg index over a
// degree-bounded graph, three positions so that the file carries both row
// arrays.
const goldenBallsPath = "testdata/golden-bdeg64.fodsnap"

func goldenBallsIndex(t testing.TB) *repro.Index {
	g := repro.Generate("bdeg", 64, repro.GenOptions{Seed: 3, Colors: 2})
	q := repro.MustParseQuery("E(x,y) & dist(y,z) > 1 & dist(x,z) > 1 & C0(z)", "x", "y", "z")
	ix, err := repro.Build(context.Background(), g, q, repro.WithEngine(repro.EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// goldenIndex is the fixed graph/query pair the golden fixture pins. Keep
// it in sync with the committed file: regenerate with
//
//	go test ./internal/snap/ -run TestGolden -update
func goldenIndex(t testing.TB) *repro.Index {
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestGoldenFormat pins the snapshot format byte for byte: any change to
// the container layout, the section encodings, or the engine's
// serialized structures shows up as a diff against the committed fixture
// and forces a deliberate format-version decision.
func TestGoldenFormat(t *testing.T) {
	goldenFormat(t, goldenIndex(t), goldenPath)
	goldenFormat(t, goldenBallsIndex(t), goldenBallsPath)
}

func goldenFormat(t *testing.T, ix *repro.Index, goldenPath string) {
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, buf.Len())
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	got := buf.Bytes()
	if !bytes.Equal(got, want) {
		if len(got) != len(want) {
			t.Fatalf("snapshot format changed: %d bytes, fixture has %d — if intentional, bump snap.Version and run -update",
				len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("snapshot format changed at byte %d (0x%02x vs 0x%02x) — if intentional, bump snap.Version and run -update",
					i, got[i], want[i])
			}
		}
	}
}

// TestGoldenLoads proves old files stay readable: the committed fixtures —
// written by whatever code version created them — must still restore and
// answer exactly like a freshly built index.
func TestGoldenLoads(t *testing.T) {
	fresh := goldenIndex(t)
	for _, path := range []string{goldenPath, goldenAllRowsPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate %s with -update): %v", goldenPath, err)
		}
		f, err := snap.Parse(data)
		if err != nil {
			t.Fatalf("%s does not parse: %v", path, err)
		}
		meta, err := snap.ReadMeta(f)
		if err != nil {
			t.Fatal(err)
		}
		if meta.GraphN != 64 || meta.K != 2 {
			t.Fatalf("%s: metadata off: n=%d k=%d", path, meta.GraphN, meta.K)
		}
		loaded, err := repro.ReadIndexSnapshot(data)
		if err != nil {
			t.Fatalf("%s does not restore: %v", path, err)
		}
		if got, want := enumerate(loaded), enumerate(fresh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers differently: %d solutions vs %d fresh", path, len(got), len(want))
		}
		if st := loaded.Stats(); st.SkipTables != 2 {
			t.Fatalf("%s restored to %d skip tables, want 2", path, st.SkipTables)
		}
	}
	// The ball fixture restores to a lowdeg index that says so.
	data, err := os.ReadFile(goldenBallsPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate %s with -update): %v", goldenBallsPath, err)
	}
	loaded, err := repro.ReadIndexSnapshot(data)
	if err != nil {
		t.Fatalf("%s does not restore: %v", goldenBallsPath, err)
	}
	balls := goldenBallsIndex(t)
	if got, want := enumerate(loaded), enumerate(balls); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s answers differently: %d solutions vs %d fresh", goldenBallsPath, len(got), len(want))
	}
	if st := loaded.Stats(); loaded.Engine() != repro.EngineLowDeg || st.CompEntries <= st.BallEntries || st.SkipTables != 0 {
		t.Fatalf("%s restored as %s with %+v", goldenBallsPath, loaded.Engine(), st)
	}
	// The two fixtures differ in their skip sections and in nothing the
	// answers depend on: the old one carries the rows nobody reads.
	if old, cur := mustStat(t, goldenAllRowsPath), mustStat(t, goldenPath); old <= cur {
		t.Fatalf("the all-rows fixture (%d bytes) is not larger than the current one (%d)", old, cur)
	}
}

func mustStat(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
