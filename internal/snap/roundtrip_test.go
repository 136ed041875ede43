// Differential round-trip tests: for every example-derived graph/query
// pair, build → snapshot → load must answer byte-identically to the
// freshly built index AND to the naive oracle (the PR-2 differential
// harness ground truth), and re-snapshotting the loaded index must
// reproduce the file byte for byte.
package snap_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/naive"
	"repro/internal/snap"
)

// rtCase mirrors the graph/query pairs of the examples/ programs
// (quickstart, roadnetwork, socialnetwork — citations is relational and
// exercises the same engine through the Lemma 2.2 translation) plus the
// differential-harness classes, scaled down for test time.
type rtCase struct {
	name  string
	class string
	n     int
	query string
	vars  []string
}

func rtCases() []rtCase {
	return []rtCase{
		// examples/quickstart
		{"quickstart", "grid", 100, "dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		// examples/roadnetwork (both queries)
		{"roadnetwork-dead-zone", "kinggrid", 81, "~(exists z (dist(x,z) <= 2 & C0(z)))", []string{"x"}},
		{"roadnetwork-pairs", "kinggrid", 81, "C1(x) & C1(y) & dist(x,y) > 4", []string{"x", "y"}},
		// examples/socialnetwork (both queries)
		{"socialnetwork-uncovered", "bdeg", 60, "C0(x) & ~(exists z (dist(x,z) <= 2 & C1(z)))", []string{"x"}},
		{"socialnetwork-pairs", "bdeg", 60, "C0(x) & C0(y) & dist(x,y) > 2", []string{"x", "y"}},
		// differential-harness classes
		{"path", "path", 60, "dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"cycle-close", "cycle", 45, "dist(x,y) <= 2 & C0(x)", []string{"x", "y"}},
		{"star", "star", 40, "C0(x) & C1(y) & dist(x,y) > 1", []string{"x", "y"}},
		{"caterpillar-exists", "caterpillar", 50, "dist(x,y) > 2 & (exists z (E(x,z) & C0(z)))", []string{"x", "y"}},
		{"ternary", "bdeg", 48, "dist(x,y) > 1 & dist(y,z) > 1 & dist(x,z) > 1 & C0(x)", []string{"x", "y", "z"}},
		// close pairs, restored from the partners section
		{"mixed-ternary", "grid", 36, "dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []string{"x", "z", "y"}},
		{"close-disjunction", "rtree", 60, "(E(x,y) & C0(x)) | (dist(x,y) <= 2 & C1(y))", []string{"x", "y"}},
	}
}

// bothEngines are the two kinds of index a snapshot can hold.
var bothEngines = []repro.EngineKind{repro.EngineCore, repro.EngineLowDeg}

func buildAndReload(t *testing.T, tc rtCase, seed int64, opts ...repro.Option) (*repro.Graph, *repro.Index, *repro.Index, []byte) {
	t.Helper()
	g := repro.Generate(tc.class, tc.n, repro.GenOptions{Seed: seed, Colors: 2})
	q, err := repro.ParseQuery(tc.query, tc.vars...)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	built, err := repro.Build(context.Background(), g, q, opts...)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var buf bytes.Buffer
	if err := built.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	loaded, err := repro.ReadIndexSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	return g, built, loaded, buf.Bytes()
}

func enumerate(ix *repro.Index) [][]int {
	var out [][]int
	ix.Enumerate(func(s []int) bool {
		out = append(out, append([]int(nil), s...))
		return true
	})
	return out
}

// TestRoundTripSharedTables: far3 has five components over two distinct
// starter lists, both asked. The file still carries one skip section per
// component — set size 1 under the three on "every vertex", 2 under the two
// on C0 — and the index restored from it passes the whole engine contract
// against the naive oracle and holds two tables, not five.
func TestRoundTripSharedTables(t *testing.T) {
	tc := rtCase{"far3", "grid", 36, "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []string{"x", "y", "z"}}
	g, built, _, data := buildAndReload(t, tc, 1)
	s, err := snap.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	sections, sizes := 0, ""
	for _, clause := range s.Parts.Clauses {
		for _, comp := range clause {
			if comp.Skip != nil {
				sections++
				sizes += fmt.Sprint(comp.Skip.K)
			}
		}
	}
	if sizes != "11212" {
		t.Fatalf("the skip sections have set sizes %s, want 1 1 2 in the first clause and 1 2 in the second", sizes)
	}
	lq, err := core.Compile(fo.MustParse(tc.query), []fo.Var{"x", "y", "z"}, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.RestoreEngine(s.Graph, lq, s.Parts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); sections != 5 || st.SkipTables != 2 || st.SkipPointers != built.Stats().SkipPointers {
		t.Fatalf("%d skip sections restored to %d tables with %d pointers; want 5 sections, 2 tables, %d pointers",
			sections, st.SkipTables, st.SkipPointers, built.Stats().SkipPointers)
	}
	sys := conform.System{Name: "far3/restored", Engine: e, K: lq.K, N: g.N(),
		NewCursor: func(a []graph.V) conform.Cursor { return e.IteratorFrom(a) }}
	if err := conform.CheckAll(sys, conform.NewNaive(g, lq).Solutions()); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripDifferential(t *testing.T) {
	for _, tc := range rtCases() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				for _, kind := range bothEngines {
					t.Run(string(kind), func(t *testing.T) {
						g, built, loaded, _ := buildAndReload(t, tc, seed, repro.WithEngine(kind))
						if loaded.Engine() != kind {
							t.Fatalf("a %s index restored as %s", kind, loaded.Engine())
						}

						// Ground truth from the naive oracle of the PR-2 harness.
						vars := make([]fo.Var, len(tc.vars))
						for i, v := range tc.vars {
							vars[i] = fo.Var(v)
						}
						lq, err := core.Compile(fo.MustParse(tc.query), vars, core.CompileOptions{})
						if err != nil {
							t.Fatalf("compile: %v", err)
						}
						want := naive.SolutionsLocal(g, lq)

						gotBuilt := enumerate(built)
						gotLoaded := enumerate(loaded)
						if !reflect.DeepEqual(gotBuilt, gotLoaded) {
							t.Fatalf("loaded index enumerates %d solutions, built %d (or different order)",
								len(gotLoaded), len(gotBuilt))
						}
						if len(want) != len(gotLoaded) || (len(want) > 0 && !reflect.DeepEqual(want, gotLoaded)) {
							t.Fatalf("loaded index enumerates %d solutions, naive oracle %d", len(gotLoaded), len(want))
						}

						// Membership: every solution tests true on both; random
						// probes agree tuple-for-tuple.
						rng := rand.New(rand.NewSource(seed))
						for _, sol := range gotBuilt {
							if !loaded.Test(sol) {
								t.Fatalf("loaded.Test(%v) = false for an enumerated solution", sol)
							}
						}
						k := len(tc.vars)
						for probe := 0; probe < 200; probe++ {
							tup := make([]int, k)
							for i := range tup {
								tup[i] = rng.Intn(g.N())
							}
							if got, want := loaded.Test(tup), built.Test(tup); got != want {
								t.Fatalf("Test(%v): loaded %v, built %v", tup, got, want)
							}
						}

						// NextGeq from random seeds: identical successor tuples.
						for probe := 0; probe < 100; probe++ {
							tup := make([]int, k)
							for i := range tup {
								tup[i] = rng.Intn(g.N())
							}
							bs, bok := built.Next(tup)
							ls, lok := loaded.Next(tup)
							if bok != lok || !reflect.DeepEqual(bs, ls) {
								t.Fatalf("Next(%v): loaded (%v,%v), built (%v,%v)", tup, ls, lok, bs, bok)
							}
						}
					})
				}
			})
		}
	}
}

// TestSnapshotDeterministic pins the writer's determinism: the same index
// serializes to identical bytes, and the loaded index re-serializes to
// the exact file it was loaded from — so the arrays a restored cover adopts
// are, section for section, the ones the built cover handed out. The second
// case is large enough for bags away from the border.
func TestSnapshotDeterministic(t *testing.T) {
	far2at900 := rtCases()[0]
	far2at900.n = 900
	for _, tc := range []rtCase{rtCases()[0], far2at900} {
		for _, kind := range bothEngines {
			snapshotDeterministic(t, tc, kind)
		}
	}
}

func snapshotDeterministic(t *testing.T, tc rtCase, kind repro.EngineKind) {
	_, built, loaded, first := buildAndReload(t, tc, 1, repro.WithEngine(kind))

	var again bytes.Buffer
	if err := built.WriteSnapshot(&again); err != nil {
		t.Fatalf("second write: %v", err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatalf("two writes of the same index differ (%d vs %d bytes)", len(first), again.Len())
	}

	var rewrite bytes.Buffer
	if err := loaded.WriteSnapshot(&rewrite); err != nil {
		t.Fatalf("rewrite from loaded index: %v", err)
	}
	if !bytes.Equal(first, rewrite.Bytes()) {
		t.Fatalf("loaded index re-serializes differently (%d vs %d bytes)", len(first), rewrite.Len())
	}
}

// TestSnapshotPortableEncoderSameBytes: on a little-endian host a typed
// section is the slice's own bytes, on any other the writer encodes it word
// by word; the file is the same either way, and read back word by word it
// is the same index. Run over both localities, every section kind the
// format has, and a star, whose distance index recurses.
func TestSnapshotPortableEncoderSameBytes(t *testing.T) {
	star := rtCase{"star-far2", "star", 300, "dist(x,y) > 2 & C0(y)", []string{"x", "y"}}
	for _, tc := range []rtCase{rtCases()[0], star} {
		for _, kind := range bothEngines {
			_, built, loaded, cast := buildAndReload(t, tc, 1, repro.WithEngine(kind))
			viewed, err := snap.Read(cast)
			if err != nil {
				t.Fatal(err)
			}
			restore := snap.ForcePortable()
			var portable bytes.Buffer
			err = built.WriteSnapshot(&portable)
			var copied *snap.Snapshot
			var reloaded *repro.Index
			if err == nil {
				copied, err = snap.Read(cast)
			}
			if err == nil {
				reloaded, err = repro.ReadIndexSnapshot(cast)
			}
			restore()
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			if !bytes.Equal(cast, portable.Bytes()) {
				t.Fatalf("%s/%s: the word-by-word encoder writes another file (%d vs %d bytes)", tc.name, kind, portable.Len(), len(cast))
			}
			if !reflect.DeepEqual(copied.Parts, viewed.Parts) {
				t.Fatalf("%s/%s: decoded word by word the file holds other parts", tc.name, kind)
			}
			if got, want := enumerate(reloaded), enumerate(loaded); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: decoded word by word the index has %d answers, cast %d", tc.name, kind, len(got), len(want))
			}
		}
	}

	// A container with one section of every kind (the engine has no i64).
	cast := syntheticFile(t)
	defer snap.ForcePortable()()
	if !bytes.Equal(cast, syntheticFile(t)) {
		t.Fatal("the two encoders disagree on a container with one section of every kind")
	}
}

// TestSnapshotOfPatchedLowdegIndex pins the PR 12 lesson for the ball
// locality at the level of the file: the snapshot of an index reached
// through ApplyEdits is, byte for byte, the snapshot of an index built on
// the edited graph — a patched ball locality is two plain arrays, and
// patched partner rows one CSR pair, not an older version plus corrections.
func TestSnapshotOfPatchedLowdegIndex(t *testing.T) {
	ctx := context.Background()
	g := repro.Generate("bdeg", 400, repro.GenOptions{Seed: 9, Colors: 2})
	for _, src := range []struct {
		query string
		vars  []string
	}{
		{"dist(x,y) > 2 & C0(y)", []string{"x", "y"}},
		{"E(x,y) & dist(y,z) > 1 & dist(x,z) > 1 & C1(z)", []string{"x", "y", "z"}},
		// Close pairs: the file carries their partner rows, patched here and
		// built there.
		{"dist(x,y) <= 2 & C0(x) & C1(y)", []string{"x", "y"}},
		{"dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []string{"x", "z", "y"}},
		{"(E(x,y) & C0(x)) | (dist(x,y) <= 2 & C1(y))", []string{"x", "y"}},
	} {
		q := repro.MustParseQuery(src.query, src.vars...)
		ix, err := repro.Build(ctx, g, q, repro.WithEngine(repro.EngineLowDeg))
		if err != nil {
			t.Fatal(err)
		}
		cx, err := repro.Build(ctx, g, q, repro.WithEngine(repro.EngineCore))
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]repro.Edit{
			{repro.RemoveEdge(7, int(g.Neighbors(7)[0])), repro.AddColor(100, 0)},
			{repro.AddEdge(3, 390), repro.AddEdge(3, 200)},
			{repro.RemoveColor(100, 0)},
		} {
			if ix, err = ix.ApplyEdits(ctx, batch); err != nil {
				t.Fatal(err)
			}
			if cx, err = cx.ApplyEdits(ctx, batch); err != nil {
				t.Fatal(err)
			}
		}
		if st := ix.Stats(); st.Mutations != 3 || st.MutRebuilds != 0 {
			t.Fatalf("premise: three patched batches, got %+v", st)
		}
		fresh, err := repro.Build(ctx, ix.Graph(), q, repro.WithEngine(repro.EngineLowDeg))
		if err != nil {
			t.Fatal(err)
		}
		var patched, built bytes.Buffer
		if err := ix.WriteSnapshot(&patched); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteSnapshot(&built); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(patched.Bytes(), built.Bytes()) {
			t.Fatalf("%s: snapshot of the patched index (%d bytes) differs from the built one (%d bytes)",
				src.query, patched.Len(), built.Len())
		}
		// A patched cover is another cover than a built one, so a core file
		// is not the rebuild's byte for byte; its partner rows, a function of
		// graph and query alone, are — and they are the lowdeg file's.
		patched.Reset()
		if err := cx.WriteSnapshot(&patched); err != nil {
			t.Fatal(err)
		}
		want, paired := sectionOf(t, built.Bytes(), "partners")
		if got, has := sectionOf(t, patched.Bytes(), "partners"); has != paired || !bytes.Equal(got, want) {
			t.Fatalf("%s: the partners section of the patched core index differs from the built lowdeg one's", src.query)
		}
	}
}

// TestSnapshotStatsSurvive checks that the structural statistics of the
// preprocessing survive the round trip — Explain and /v1/stats on a
// restored server must not silently report a hollow index.
func TestSnapshotStatsSurvive(t *testing.T) {
	_, built, loaded, _ := buildAndReload(t, rtCases()[0], 1, repro.WithEngine(repro.EngineLowDeg))
	bs, ls := built.Stats(), loaded.Stats()
	if bs.BallEntries == 0 || bs.BallEntries != ls.BallEntries || bs.CompEntries != ls.CompEntries || bs.MaxDegree != ls.MaxDegree {
		t.Errorf("ball stats changed: built (%d,%d,%d), loaded (%d,%d,%d)",
			bs.BallEntries, bs.CompEntries, bs.MaxDegree, ls.BallEntries, ls.CompEntries, ls.MaxDegree)
	}
	if !reflect.DeepEqual(bs.StarterSizes, ls.StarterSizes) {
		t.Errorf("starter sizes changed: %v → %v", bs.StarterSizes, ls.StarterSizes)
	}
	_, built, loaded, _ = buildAndReload(t, rtCases()[0], 1)
	bs, ls = built.Stats(), loaded.Stats()
	if bs.CoverBags != ls.CoverBags || bs.CoverDegree != ls.CoverDegree || bs.CoverRadius != ls.CoverRadius {
		t.Errorf("cover stats changed: built (%d,%d,%d), loaded (%d,%d,%d)",
			bs.CoverBags, bs.CoverDegree, bs.CoverRadius, ls.CoverBags, ls.CoverDegree, ls.CoverRadius)
	}
	if !reflect.DeepEqual(bs.StarterSizes, ls.StarterSizes) {
		t.Errorf("starter sizes changed: %v → %v", bs.StarterSizes, ls.StarterSizes)
	}
	if bs.SkipPointers != ls.SkipPointers {
		t.Errorf("skip pointers changed: %d → %d", bs.SkipPointers, ls.SkipPointers)
	}
}

// TestSnapshotRejectsForeignGraph ensures a snapshot refuses to restore
// when its embedded fingerprint does not match its graph sections (the
// serve disk tier additionally matches the fingerprint against the
// served graph before restoring).
func TestSnapshotWrongQueryIsCaught(t *testing.T) {
	// A valid snapshot restored through the facade re-checks that the
	// recompiled query matches the serialized engine shape; build one for
	// a k=2 query and check a deliberate arity probe errors cleanly.
	g := repro.Generate("grid", 64, repro.GenOptions{Seed: 1, Colors: 2})
	q := repro.MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := repro.Build(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.ReadIndexSnapshot(buf.Bytes()); err != nil {
		t.Fatalf("valid snapshot failed to load: %v", err)
	}
	// Corrupting the canonical text must be caught before restore.
	data := bytes.Replace(buf.Bytes(), []byte(`vars x,y`), []byte(`vars y,x`), 1)
	if _, err := repro.ReadIndexSnapshot(data); err == nil {
		t.Fatal("snapshot with tampered metadata loaded successfully")
	}
}
