package snap_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/snap"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot fixtures this build writes (stepped)")

// The fixtures come in fours. The plain names are the version-1 corpus
// (CRC-64/ECMA), beside each lies its version-2 twin (CRC-32C) and its
// version-3 one (partner rows): written by the code of their day, never
// regenerated, the pin that old files keep loading. The fourth
// (versionPath(·, 4)) is the same index in format 4 — one skip table a list
// that is asked, none under far2's x — as the build before the cover's
// centers stepped into uncovered ground wrote it: a pin too, never
// regenerated. What the current build writes for the cover-form indexes is
// steppedPath(·), same format, fewer bags, which the format test pins byte
// for byte and -update rewrites.
const goldenPath = "testdata/golden-grid64.fodsnap"

// steppedPath names the version-4 fixture the current build writes beside
// the version-1 file v1: its cover centers each bag on the uncovered vertex
// of N_R(a) farthest from a, where the committed version-4 file's centers
// are a itself.
func steppedPath(v1 string) string {
	return strings.TrimSuffix(v1, ".fodsnap") + ".v4-stepped.fodsnap"
}

// goldenAllRowsPath is the fixture as the commit before the skip build was
// restricted to b ∈ L wrote it, with SC rows for every vertex: the pin that
// files of that era keep loading. No build makes those rows any more; its
// versions 2 and 3 are the version-1 file decoded and written again, its
// version 4 is what the engine restored from it writes.
const goldenAllRowsPath = "testdata/golden-grid64-allrows.fodsnap"

// goldenBallsPath pins the ball form the same way: a lowdeg index over a
// degree-bounded graph, three positions so that the file carries both row
// arrays — and, two of them being a close pair, from version 3 on its
// partner rows.
const goldenBallsPath = "testdata/golden-bdeg64.fodsnap"

// goldenNearPath is the cover form of a close pair: near2 on the grid of
// goldenPath. It exists from version 3 on.
func goldenNearPath(version uint32) string {
	return versionPath("testdata/golden-grid64-near.fodsnap", version)
}

// versionPath names the fixture of the given format version beside the
// version-1 file v1.
func versionPath(v1 string, version uint32) string {
	if version == 1 {
		return v1
	}
	return fmt.Sprintf("%s.v%d.fodsnap", strings.TrimSuffix(v1, ".fodsnap"), version)
}

// goldenFar3Path is bench's far3 on the grid of goldenPath: tables of set
// size 1 and 2, where the other fixtures hold set size 1 only. It exists
// from version 4 on.
const goldenFar3Path = "testdata/golden-grid64-far3.fodsnap"

func goldenFar3Index(t testing.TB) *repro.Index {
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func goldenNearIndex(t testing.TB) *repro.Index {
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 3, Colors: 2})
	ix, err := repro.Build(context.Background(), g, repro.MustParseQuery("dist(x,y) <= 2 & C0(x) & C1(y)", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

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
// serialized structures shows up as a diff against the committed version-4
// fixtures and forces a deliberate format-version decision.
func TestGoldenFormat(t *testing.T) {
	goldenFormat(t, indexBytes(t, goldenIndex(t)), steppedPath(goldenPath))
	goldenFormat(t, indexBytes(t, goldenNearIndex(t)), steppedPath(goldenNearPath(1)))
	goldenFormat(t, indexBytes(t, goldenFar3Index(t)), steppedPath(goldenFar3Path))

	// Two indexes whose bytes no cover construction decides, which this
	// build writes as the committed version-4 files are (-update leaves
	// them): the ball form, and the all-rows file through an engine, whose
	// parts as decoded hold the file's cover and the table under x, which
	// no version-4 file has.
	sameAsFixture(t, indexBytes(t, goldenBallsIndex(t)), versionPath(goldenBallsPath, snap.Version))
	old := restoreEngine(t, goldenAllRowsPath)
	var buf bytes.Buffer
	if _, err := snap.Write(&buf, old.snap.Graph, old.snap.Meta, old.eng.SnapshotParts()); err != nil {
		t.Fatal(err)
	}
	sameAsFixture(t, buf.Bytes(), versionPath(goldenAllRowsPath, snap.Version))
}

func indexBytes(t testing.TB, ix *repro.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenFormat(t *testing.T, got []byte, goldenPath string) {
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	sameAsFixture(t, got, goldenPath)
}

// sameAsFixture fails unless got is the committed file byte for byte.
func sameAsFixture(t *testing.T, got []byte, goldenPath string) {
	t.Helper()
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
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

// TestGoldenLoads proves old files stay readable: the committed fixtures of
// every format version — the older ones written by whatever code version
// created them — must still restore and answer exactly like a freshly built
// index.
func TestGoldenLoads(t *testing.T) {
	fresh := goldenIndex(t)
	for _, v1 := range []string{goldenPath, goldenAllRowsPath} {
		for version := uint32(1); version <= snap.Version; version++ {
			path := versionPath(v1, version)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate the version-4 ones with -update): %v", err)
			}
			f, err := snap.Parse(data)
			if err != nil {
				t.Fatalf("%s does not parse: %v", path, err)
			}
			if f.Version() != version {
				t.Fatalf("%s is a version-%d file, want %d", path, f.Version(), version)
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
			// One table, y's: the one an older file holds under x is not read.
			if st := loaded.Stats(); st.SkipTables != 1 {
				t.Fatalf("%s restored to %d skip tables, want 1", path, st.SkipTables)
			}
		}
	}
	// The files this build writes, with its stepped cover, and the far3
	// file the build before it wrote: the same index, the same answers.
	far3 := goldenFar3Index(t)
	for _, f := range []struct {
		path string
		ix   *repro.Index
	}{
		{steppedPath(goldenPath), fresh}, {versionPath(goldenFar3Path, 4), far3}, {steppedPath(goldenFar3Path), far3},
	} {
		loaded, err := repro.LoadIndexSnapshot(f.path)
		if err != nil {
			t.Fatalf("%s does not restore: %v", f.path, err)
		}
		if got, want := enumerate(loaded), enumerate(f.ix); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers differently: %d solutions vs %d fresh", f.path, len(got), len(want))
		}
		if got, want := loaded.Stats().SkipTables, f.ix.Stats().SkipTables; got != want {
			t.Fatalf("%s restored to %d skip tables, want %d", f.path, got, want)
		}
	}
	// The close pair, one component that stands first: no table in version 4,
	// one nobody reads in version 3.
	near := goldenNearIndex(t)
	for _, path := range []string{goldenNearPath(3), goldenNearPath(4), steppedPath(goldenNearPath(1))} {
		loaded, err := repro.LoadIndexSnapshot(path)
		if err != nil {
			t.Fatalf("%s does not restore: %v", path, err)
		}
		if got, want := enumerate(loaded), enumerate(near); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers differently: %d solutions vs %d fresh", path, len(got), len(want))
		}
		if st := loaded.Stats(); st.SkipTables != 0 || st.PartnerCells != near.Stats().PartnerCells {
			t.Fatalf("%s restored with %+v", path, st)
		}
	}
	// The ball fixtures restore to a lowdeg index that says so, with the
	// partner rows of its close pair: read from a file of version 3 or 4,
	// built for an older one.
	balls := goldenBallsIndex(t)
	for version := uint32(1); version <= snap.Version; version++ {
		path := versionPath(goldenBallsPath, version)
		loaded, err := repro.LoadIndexSnapshot(path)
		if err != nil {
			t.Fatalf("%s does not restore: %v", path, err)
		}
		if got, want := enumerate(loaded), enumerate(balls); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s answers differently: %d solutions vs %d fresh", path, len(got), len(want))
		}
		if st := loaded.Stats(); loaded.Engine() != repro.EngineLowDeg || st.CompEntries <= st.BallEntries || st.SkipTables != 0 ||
			st.PartnerCells == 0 || st.PartnerCells != balls.Stats().PartnerCells {
			t.Fatalf("%s restored as %s with %+v", path, loaded.Engine(), st)
		}
	}
	// The two fixtures differ in their skip sections and in nothing the
	// answers depend on: the old one carries the rows nobody reads.
	if old, cur := mustStat(t, goldenAllRowsPath), mustStat(t, goldenPath); old <= cur {
		t.Fatalf("the all-rows fixture (%d bytes) is not larger than the current one (%d)", old, cur)
	}
}

// TestGoldenTwins: the versions of a fixture are one index. Versions 1 and 2
// differ in the header's version word, in every checksum and in the
// fingerprint the metadata records — nowhere else, so they have one length;
// version 3 of an index without a close pair differs from version 2 in the
// version word and the table checksum, which now covers it, and one with a
// close pair has the partners section on top; version 4 of an index without
// skip tables differs from version 3 in those two header fields again, and
// one with tables is shorter by those nobody asks. All restore to engines
// with equal parts — the rows an old file lacks are built, the tables it has
// too many are dropped — that meet the whole answering contract on the same
// solution list, and an engine restored from an old file writes the
// version-4 one.
func TestGoldenTwins(t *testing.T) {
	headerOnly := func(a, b []byte) bool {
		diff := diffBytes(a, b)
		return diff[0] == 8 && diff[len(diff)-1] < 28
	}
	for _, v1 := range []string{goldenPath, goldenAllRowsPath, goldenBallsPath} {
		t.Run(filepath.Base(v1), func(t *testing.T) {
			v := map[uint32]restored{}
			for version := uint32(1); version <= snap.Version; version++ {
				v[version] = restoreEngine(t, versionPath(v1, version))
			}
			cur := v[snap.Version]
			if oldMeta, curMeta := v[1].snap.Meta, cur.snap.Meta; oldMeta.GraphFingerprint == curMeta.GraphFingerprint {
				t.Fatalf("versions 1 and %d record the fingerprint %s", snap.Version, oldMeta.GraphFingerprint)
			} else if oldMeta.GraphFingerprint = curMeta.GraphFingerprint; !reflect.DeepEqual(oldMeta, curMeta) {
				t.Fatalf("metadata differs beyond the fingerprint:\n%+v\n%+v", v[1].snap.Meta, curMeta)
			}
			for version := uint32(2); version < snap.Version; version++ {
				if !reflect.DeepEqual(v[version].snap.Meta, cur.snap.Meta) {
					t.Fatalf("versions %d and %d record different metadata:\n%+v\n%+v", version, snap.Version, v[version].snap.Meta, cur.snap.Meta)
				}
			}
			if len(v[1].data) != len(v[2].data) {
				t.Fatalf("version 1 has %d bytes, version 2 %d", len(v[1].data), len(v[2].data))
			}
			_, paired := sectionOf(t, cur.data, "partners")
			if !paired {
				if !headerOnly(v[2].data, v[3].data) {
					t.Fatalf("versions 2 and 3 of an index without a close pair differ at bytes %v, want the version word and the table checksum it is under", diffBytes(v[2].data, v[3].data))
				}
			} else if len(v[3].data) <= len(v[2].data) {
				t.Fatalf("version 3 carries partner rows in %d bytes, version 2 has %d", len(v[3].data), len(v[2].data))
			}
			if cur.eng.Stats().SkipTables == 0 {
				if !headerOnly(v[3].data, cur.data) {
					t.Fatalf("versions 3 and 4 of an index without skip tables differ at bytes %v, want the version word and the table checksum it is under", diffBytes(v[3].data, cur.data))
				}
			} else if len(cur.data) >= len(v[3].data) {
				t.Fatalf("version 4 has %d bytes, version 3 with a table under every component %d", len(cur.data), len(v[3].data))
			}
			want := conform.NewNaive(cur.snap.Graph, cur.lq).Solutions()
			if len(want) == 0 {
				t.Fatal("the fixture's query has no solutions")
			}
			for version, r := range v {
				if !reflect.DeepEqual(r.eng.SnapshotParts(), cur.eng.SnapshotParts()) {
					t.Fatalf("the engine restored from version %d has other parts than the one from version %d", version, snap.Version)
				}
				sys := conform.System{
					Name: fmt.Sprintf("v%d", version), Engine: r.eng, K: r.lq.K, N: r.snap.Graph.N(),
					NewCursor: func(a []int) conform.Cursor { return r.eng.IteratorFrom(a) },
				}
				if err := conform.CheckAll(sys, want); err != nil {
					t.Error(err)
				}
				var buf bytes.Buffer
				if _, err := snap.Write(&buf, r.snap.Graph, r.snap.Meta, r.eng.SnapshotParts()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), cur.data) {
					t.Fatalf("the engine restored from the version-%d file does not write the version-%d one", version, snap.Version)
				}
			}
		})
	}
}

// sectionOf returns the payload of the named section of a snapshot.
func sectionOf(t testing.TB, data []byte, name string) ([]byte, bool) {
	t.Helper()
	f, err := snap.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Sections() {
		if s.Name == name {
			return data[s.Off : s.Off+s.Len], true
		}
	}
	return nil, false
}

// diffBytes lists where two files of one length differ.
func diffBytes(a, b []byte) []int {
	if len(a) != len(b) {
		return []int{-1}
	}
	var at []int
	for i := range a {
		if a[i] != b[i] {
			at = append(at, i)
		}
	}
	return at
}

type restored struct {
	data []byte
	snap *snap.Snapshot
	lq   *core.LocalQuery
	eng  *core.Engine
}

// restoreEngine loads a fixture the way the facade does, one layer down,
// where the engine's parts can be looked at.
func restoreEngine(t *testing.T, path string) restored {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snap.Read(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	q, err := repro.ParseQuery(s.Meta.Query, s.Meta.Vars...)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := core.Compile(q.Phi, q.Vars, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.RestoreEngine(s.Graph, lq, s.Parts, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return restored{data, s, lq, eng}
}

func mustStat(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
