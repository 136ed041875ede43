package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

func buildObsEngine(t *testing.T, reg *obs.Registry) *core.Engine {
	t.Helper()
	return buildObsEngineWith(t, core.Preprocess, reg)
}

type preprocessFunc func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error)

func buildObsEngineWith(t *testing.T, preprocess preprocessFunc, reg *obs.Registry) *core.Engine {
	t.Helper()
	g := gen.Generate("grid", 900, gen.Options{Seed: 7, Colors: 1, ColorProb: 0.1})
	lq, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := preprocess(g, lq, core.Options{Parallelism: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStatsSnapshotIsolation is the regression test for the StarterSizes
// aliasing bug: the snapshot used to copy the slice header, so callers
// shared the engine's backing array.
func TestStatsSnapshotIsolation(t *testing.T) {
	e := buildObsEngine(t, nil)
	s1 := e.Stats()
	if len(s1.StarterSizes) == 0 {
		t.Fatal("expected at least one starter list")
	}
	orig := append([]int(nil), s1.StarterSizes...)
	for i := range s1.StarterSizes {
		s1.StarterSizes[i] = -999
	}
	s2 := e.Stats()
	for i, v := range s2.StarterSizes {
		if v != orig[i] {
			t.Fatalf("snapshot mutation leaked into the engine: StarterSizes[%d] = %d, want %d", i, v, orig[i])
		}
	}
	s2.StarterSizes[0] = -1
	if s3 := e.Stats(); s3.StarterSizes[0] == -1 {
		t.Fatal("snapshots share a backing array")
	}
}

// TestEngineInstrumented checks the phase spans of a build, over both
// localities, and that what the engine then does shows in its own Stats.
func TestEngineInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name       string
		preprocess preprocessFunc
		spans      []string
	}{
		{"cover", core.Preprocess, []string{"dist", "cover", "starter", "skip"}},
		{"balls", core.PreprocessBalls, []string{"balls", "starter"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			e := buildObsEngineWith(t, tc.preprocess, reg)
			if e.Obs() != reg {
				t.Fatal("engine does not report its registry")
			}

			// Preprocessing spans must be recorded for every phase.
			snap := reg.Snapshot()
			if h, ok := snap.Histograms["span.preprocess_ns"]; !ok || h.Count == 0 {
				t.Error("missing root span span.preprocess_ns")
			}
			for _, phase := range tc.spans {
				name := "span.preprocess." + phase + "_ns"
				if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
					t.Errorf("missing phase span %q", name)
				}
			}

			n := 0
			e.Enumerate(func([]int) bool { n++; return n < 200 })
			if n == 0 {
				t.Fatal("no solutions enumerated")
			}
			for i := 0; i < 50; i++ {
				e.NextGeq([]int{i, i})
				e.Test([]int{i, i + 1})
				e.NextLast([]int{i}, 0)
			}
			if e.Stats().Candidates == 0 {
				t.Error("candidates counter never bumped")
			}
		})
	}
}

// TestMutateAndRestoreInstrumented: a write and a restore show phase by
// phase under "mutate" and "restore", children named for what they do, over
// either locality.
func TestMutateAndRestoreInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name            string
		preprocess      preprocessFunc
		mutate, restore []string
	}{
		{"cover", core.Preprocess, []string{"dist", "cover", "starter"}, []string{"dist", "cover", "clauses"}},
		{"balls", core.PreprocessBalls, []string{"balls", "starter"}, []string{"balls", "clauses"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			e := buildObsEngineWith(t, tc.preprocess, reg)
			e2 := patchedEngine(t, e)
			if _, err := core.RestoreEngine(e2.Graph(), e2.Query(), e2.SnapshotParts(), core.Options{Obs: reg}); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for root, phases := range map[string][]string{"mutate": tc.mutate, "restore": tc.restore} {
				for _, name := range append([]string{"span." + root + "_ns"}, spanNames(root, phases)...) {
					if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
						t.Errorf("missing span %q", name)
					}
				}
			}
		})
	}
}

// patchedEngine applies one edit to e that its locality patches.
func patchedEngine(t *testing.T, e *core.Engine) *core.Engine {
	t.Helper()
	e2, err := e.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().MutRebuilds != 0 {
		t.Fatal("premise: the edit is patched")
	}
	return e2
}

// TestRegistryNames is the audit of ROADMAP item 6 as a test: one registry
// shared by builds, writes and restores over both localities, then answers
// drawn from the first engine only. The registry holds the span tree and
// nothing else — in particular no name that would have to say which of the
// six engines it describes — and the answering work shows in the Stats of
// the engine that did it.
func TestRegistryNames(t *testing.T) {
	reg := obs.New()
	var engines []*core.Engine
	for _, preprocess := range []preprocessFunc{core.Preprocess, core.PreprocessBalls} {
		e := buildObsEngineWith(t, preprocess, reg)
		e2 := patchedEngine(t, e)
		r, err := core.RestoreEngine(e2.Graph(), e2.Query(), e2.SnapshotParts(), core.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e, e2, r)
	}
	first := engines[0]
	n := 0
	first.Enumerate(func([]int) bool { n++; return n < 200 })
	for i := 0; i < 50; i++ {
		first.NextGeq([]int{i, i})
		first.Test([]int{i, i + 1})
		first.NextLast([]int{i}, 0)
	}

	var want []string
	for _, path := range []string{
		"mutate", "mutate.balls", "mutate.cover", "mutate.dist", "mutate.starter",
		"preprocess", "preprocess.balls", "preprocess.cover", "preprocess.dist",
		"preprocess.skip", "preprocess.starter",
		"restore", "restore.balls", "restore.clauses", "restore.cover", "restore.dist",
	} {
		want = append(want, "span."+path+"_count", "span."+path+"_ns")
	}
	slices.Sort(want)
	if got := reg.Names(); !slices.Equal(got, want) {
		t.Errorf("registry names:\n got %v\nwant %v", got, want)
	}
	if first.Stats().Candidates == 0 {
		t.Error("the engine that answered counted no candidates")
	}
	for i, e := range engines[1:] {
		if c := e.Stats().Candidates; c != 0 {
			t.Errorf("engine %d answered nothing and counts %d candidates", i+1, c)
		}
	}
}

func spanNames(root string, phases []string) []string {
	out := make([]string, len(phases))
	for i, p := range phases {
		out[i] = "span." + root + "." + p + "_ns"
	}
	return out
}

// TestInstrumentedAnswersIdentical guards the instrumentation against
// changing any answer: the same engine built with and without a registry
// must enumerate byte-identical solutions.
func TestInstrumentedAnswersIdentical(t *testing.T) {
	plain := buildObsEngine(t, nil)
	inst := buildObsEngine(t, obs.New())
	var a, b [][]int
	plain.Enumerate(func(s []int) bool { a = append(a, append([]int(nil), s...)); return len(a) < 500 })
	inst.Enumerate(func(s []int) bool { b = append(b, append([]int(nil), s...)); return len(b) < 500 })
	if len(a) != len(b) {
		t.Fatalf("solution counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatalf("solution %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
