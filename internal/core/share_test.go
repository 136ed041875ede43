package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

const far3 = "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)"

func compileT(t *testing.T, src string, vars ...fo.Var) *LocalQuery {
	t.Helper()
	q, err := Compile(fo.MustParse(src), vars, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func enumerateAll(e *Engine) [][]graph.V {
	var out [][]graph.V
	e.Enumerate(func(a []graph.V) bool {
		out = append(out, slices.Clone(a))
		return true
	})
	return out
}

// checkSharing asserts the sharing rule on every pair of components: equal
// starter lists mean one table, unequal ones never do.
func checkSharing(t *testing.T, e *Engine) {
	t.Helper()
	var comps []*compRT
	for _, cl := range e.clauses {
		comps = append(comps, cl.comps...)
	}
	for i, c := range comps {
		for _, d := range comps[:i] {
			if equal := slices.Equal(c.starter, d.starter); equal != c.skip.SharesTable(d.skip) {
				t.Fatalf("components with starter lists of %d and %d vertices (equal: %v) share a table: %v",
					len(c.starter), len(d.starter), equal, !equal)
			}
		}
	}
}

// TestSkipTablesShared: far3 on a 2-coloured grid has five components over
// two distinct starter lists, so two tables are built and both clauses
// answer through the same pointers; far2 has two components over two lists.
func TestSkipTablesShared(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 3, Colors: 2})
	e, err := Preprocess(g, compileT(t, far3, "x", "y", "z"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.clauses) != 2 || len(e.clauses[0].comps) != 3 || len(e.clauses[1].comps) != 2 {
		t.Fatalf("far3 no longer compiles to 3 + 2 components: %s", e.Explain())
	}
	x, y, z := e.clauses[0].comps[0], e.clauses[0].comps[1], e.clauses[0].comps[2]
	xy, z2 := e.clauses[1].comps[0], e.clauses[1].comps[1]
	if x.skip != y.skip || x.skip != xy.skip || z.skip != z2.skip || x.skip == z.skip {
		t.Fatal("equal starter lists do not answer through one pointer")
	}
	if &x.byKernel[0] != &xy.byKernel[0] || &z.inStart[0] != &z2.inStart[0] {
		t.Fatal("the per-kernel lists and the starter bitmap are not shared with the table")
	}
	checkSharing(t, e)
	st := e.Stats()
	if st.SkipTables != 2 || st.SkipPointers != x.skip.Size()+z.skip.Size() || len(st.StarterSizes) != 5 {
		t.Fatalf("stats %d tables, %d pointers over %v; want 2 tables, %d pointers, 5 components",
			st.SkipTables, st.SkipPointers, st.StarterSizes, x.skip.Size()+z.skip.Size())
	}
	if !strings.Contains(e.Explain(), "5 components, 2 tables") {
		t.Fatalf("explain does not report the sharing:\n%s", e.Explain())
	}

	e2, err := Preprocess(g, compileT(t, "dist(x,y) > 2 & C0(y)", "x", "y"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.SkipTables != 2 {
		t.Fatalf("far2: %d tables, want 2", st.SkipTables)
	}
}

// TestKernelListsAreCoverRows: a component every vertex starts (far2's x)
// reads the cover's kernel rows as its per-kernel lists — built or restored,
// not a cell is copied — and a component with a proper starter list (C0(y))
// has lists of its own. A write gives x rows of its own for exactly the bags
// it redoes — those whose kernel changed and those the patch made — and
// leaves every other list where the parent has it; the parent's rows and
// lists stay bit for bit.
func TestKernelListsAreCoverRows(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 3, Colors: 2})
	q := compileT(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	built, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(g, q, built.SnapshotParts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"built": built, "restored": restored} {
		cov := e.loc.(*coverLoc).cov
		x, y := e.clauses[0].comps[0], e.clauses[0].comps[1]
		if len(x.starter) != g.N() || len(y.starter) == g.N() {
			t.Fatalf("%s: far2 no longer has a component every vertex starts and one not: %s", name, e.Explain())
		}
		shared, own := 0, 0
		for b := 0; b < cov.NumBags(); b++ {
			if rowAt(x.byKernel[b]) != rowAt(cov.Kernel(b)) {
				t.Fatalf("%s: x's list for bag %d is not the cover's kernel row", name, b)
			}
			if len(y.byKernel[b]) > 0 {
				if rowAt(y.byKernel[b]) == rowAt(cov.Kernel(b)) {
					t.Fatalf("%s: y's list for bag %d is the cover's kernel row", name, b)
				}
				own++
			}
			if len(cov.Kernel(b)) > 0 {
				shared++
			}
		}
		if shared == 0 || own == 0 {
			t.Fatalf("%s: every kernel or every list of y is empty; the test exercises nothing", name)
		}
	}

	// A removed edge grows kernels, a chord across the grid breaks containment
	// around its ends: both kinds of redone bag.
	e := built
	changedSeen, newSeen := false, false
	for _, edits := range [][]graph.Edit{
		{{Op: graph.RemoveEdge, U: 30*12 + 12, V: 30*12 + 13}},
		{{Op: graph.AddEdge, U: 30*5 + 5, V: 30*20 + 20}},
	} {
		before := e.KernelRows()
		e2, err := e.ApplyEdits(context.Background(), edits)
		if err != nil {
			t.Fatal(err)
		}
		if e2.Stats().MutRebuilds != e.Stats().MutRebuilds {
			t.Fatalf("%v was rebuilt, not patched; the test exercises nothing", edits)
		}
		cov, cov2 := e.loc.(*coverLoc).cov, e2.loc.(*coverLoc).cov
		x, x2 := e.clauses[0].comps[0], e2.clauses[0].comps[0]
		for b := 0; b < cov2.NumBags(); b++ {
			if !slices.Equal(x2.byKernel[b], cov2.Kernel(b)) {
				t.Fatalf("%v: x's list for bag %d is not the kernel", edits, b)
			}
			redone := b >= cov.NumBags() || !slices.Equal(cov.Kernel(b), cov2.Kernel(b))
			switch {
			case !redone && rowAt(x2.byKernel[b]) != rowAt(x.byKernel[b]):
				t.Fatalf("%v: x's list for bag %d, which the write did not redo, moved", edits, b)
			case redone && len(x2.byKernel[b]) > 0 && rowAt(x2.byKernel[b]) == rowAt(cov2.Kernel(b)):
				t.Fatalf("%v: x's list for redone bag %d is the new cover's row, not one of its own", edits, b)
			}
			if redone {
				changedSeen, newSeen = changedSeen || b < cov.NumBags(), newSeen || b >= cov.NumBags()
			}
		}
		if !SameKernelRows(before, e.KernelRows()) {
			t.Fatalf("%v: the write changed a kernel row or a per-kernel list of the version it started from", edits)
		}
		e = e2
	}
	if !changedSeen || !newSeen {
		t.Fatalf("the writes changed a kernel: %v, made a bag: %v; the test needs both", changedSeen, newSeen)
	}
}

// TestApplyEditsOverSharedTables: a patch gives every component its own
// overlay over the shared base (two tables still), the base engine keeps
// its answers, and once the accumulated delta outgrows the threshold the
// rebuilt tables are shared again — with answers equal to a fresh build
// at every step.
func TestApplyEditsOverSharedTables(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 3, Colors: 2})
	q := compileT(t, far3, "x", "y", "z")
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e0 := e
	rng := rand.New(rand.NewSource(5))
	overlaid, rebuilt := false, false
	for gen := 0; gen < 60 && !(overlaid && rebuilt); gen++ {
		v := rng.Intn(g.N() - 1)
		edits := []graph.Edit{{Op: graph.RemoveEdge, U: v, V: v + 1}}
		for i := 0; i < 4; i++ {
			flip := graph.Edit{Op: graph.AddColor, U: rng.Intn(g.N())}
			if e.g.HasColor(flip.U, 0) {
				flip.Op = graph.RemoveColor
			}
			edits = append(edits, flip)
		}
		e2, err := e.ApplyEdits(context.Background(), edits)
		if err != nil {
			t.Fatal(err)
		}
		if e2 == e || e2.Stats().MutRebuilds > e.Stats().MutRebuilds {
			e = e2
			continue
		}
		// The two C0(z) components: their list changes with every batch.
		z, z2 := e2.clauses[0].comps[2], e2.clauses[1].comps[1]
		first := false
		if z.skip.SharesTable(e.clauses[0].comps[2].skip) {
			first, overlaid = !overlaid, true
			if z.skip == z2.skip || !z.skip.SharesTable(z2.skip) {
				t.Fatal("overlays are not per component over one shared base")
			}
		} else {
			first, rebuilt = !rebuilt, true
			if z.skip != z2.skip {
				t.Fatal("tables rebuilt past the threshold are not shared")
			}
		}
		if st := e2.Stats(); st.SkipTables > 2 {
			t.Fatalf("generation %d: %d tables for two distinct lists", gen, st.SkipTables)
		}
		if first {
			fresh, err := Preprocess(e2.g, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResumePoints(t, rng, e2, fresh)
		}
		e = e2
	}
	if !overlaid || !rebuilt {
		t.Fatalf("60 generations did not reach both paths (overlay %v, rebuild %v)", overlaid, rebuilt)
	}
	fresh, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResumePoints(t, rng, e0, fresh) // the base under the overlays still answers for its own version
}

// sameResumePoints compares NextGeq of two engines over one graph from
// random tuples, which runs the skip pointers of every component.
func sameResumePoints(t *testing.T, rng *rand.Rand, a, b *Engine) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		from := make([]graph.V, a.k)
		for j := range from {
			from[j] = rng.Intn(a.g.N())
		}
		sa, oka := a.NextGeq(from)
		sb, okb := b.NextGeq(from)
		if oka != okb || !slices.Equal(sa, sb) {
			t.Fatalf("NextGeq(%v) = %v %v and %v %v", from, sa, oka, sb, okb)
		}
	}
}

// TestRestoreSharesTables: a far3 index restores to two tables, not five;
// a file whose sections for one list differ (here: a row for a vertex
// outside the list, as files written before the build stopped making them
// have) keeps them apart; both answer like the engine they came from.
func TestRestoreSharesTables(t *testing.T) {
	g := gen.Generate(gen.Grid, 100, gen.Options{Seed: 3, Colors: 2})
	q := compileT(t, far3, "x", "y", "z")
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := enumerateAll(e)
	parts := e.SnapshotParts()
	r, err := RestoreEngine(g, q, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSharing(t, r)
	if st := r.Stats(); st.SkipTables != 2 || st.SkipPointers != e.Stats().SkipPointers {
		t.Fatalf("restored to %d tables with %d pointers, built %d with %d",
			st.SkipTables, st.SkipPointers, e.Stats().SkipTables, e.Stats().SkipPointers)
	}
	if !reflect.DeepEqual(enumerateAll(r), want) {
		t.Fatal("restored engine answers differently")
	}

	z := e.clauses[1].comps[1]
	b := slices.Index(z.inStart, false)
	sk := *parts.Clauses[1][1].Skip
	at := int(sk.TableOff[b]) * (sk.K + 1)
	sk.TableRow = slices.Insert(slices.Clone(sk.TableRow), at, 0, -1, -1)
	sk.TableOff = slices.Clone(sk.TableOff)
	for i := b + 1; i < len(sk.TableOff); i++ {
		sk.TableOff[i]++
	}
	parts.Clauses[1][1].Skip = &sk
	r, err = RestoreEngine(g, q, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SkipTables != 3 {
		t.Fatalf("sections that differ restored to %d tables, want 3", st.SkipTables)
	}
	if !reflect.DeepEqual(enumerateAll(r), want) {
		t.Fatal("engine restored from differing sections answers differently")
	}
}

// TestSnapshotOfPatchedEngine: the parts of an engine whose skip pointers
// are overlays hold this version's tables, so restoring them answers like
// the patched engine (the overlay's base alone would answer for another
// list and another cover).
func TestSnapshotOfPatchedEngine(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 3, Colors: 1})
	q := compileT(t, "dist(x,y) > 2 & C0(y)", "x", "y")
	e, err := Preprocess(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var edits []graph.Edit
	for v := 0; v < 898; v += 29 {
		edits = append(edits, graph.Edit{Op: graph.AddColor, U: v}, graph.Edit{Op: graph.RemoveColor, U: v + 1})
	}
	edits = append(edits, graph.Edit{Op: graph.RemoveEdge, U: 0, V: 1})
	e2, err := e.ApplyEdits(context.Background(), edits)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().MutRebuilds != 0 || e2.clauses[0].comps[1].skip.DeltaLen() == 0 {
		t.Fatal("the batch was not patched through an overlay; the test exercises nothing")
	}
	r, err := RestoreEngine(e2.g, q, e2.SnapshotParts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enumerateAll(r), enumerateAll(e2)) {
		t.Fatal("engine restored from a patched engine's parts answers differently")
	}
}

// TestSnapshotOfPatchedBallEngine is the same lesson for the ball locality,
// where it can be pinned exactly: a patched engine holds two plain arrays
// and no overlay, so its parts are those of a fresh build on the edited
// graph, word for word (three positions, so the completion rows are arrays
// of their own), and restoring them answers alike.
func TestSnapshotOfPatchedBallEngine(t *testing.T) {
	g := gen.Generate(gen.BoundedDegree, 300, gen.Options{Seed: 3, Colors: 2})
	q := compileT(t, "dist(x,y) <= 1 & dist(y,z) > 1 & dist(x,z) > 1 & C0(x) & C1(z)", "x", "y", "z")
	e, err := PreprocessBalls(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := 17
	edits := []graph.Edit{
		{Op: graph.RemoveEdge, U: u, V: int(g.Neighbors(u)[0])},
		{Op: graph.AddEdge, U: 5, V: 250},
		{Op: graph.AddColor, U: 40},
	}
	e2, err := e.ApplyEdits(context.Background(), edits)
	if err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.MutRebuilds != 0 || st.CompEntries == st.BallEntries {
		t.Fatalf("the batch was not patched, or the two radii coincide; the test exercises nothing: %+v", st)
	}
	fresh, err := PreprocessBalls(e2.g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := e2.SnapshotParts()
	if !reflect.DeepEqual(parts, fresh.SnapshotParts()) {
		t.Fatal("parts of a patched ball engine differ from those of a build on the edited graph")
	}
	if fs, ps := fresh.Stats(), e2.Stats(); fs.BallEntries != ps.BallEntries || fs.CompEntries != ps.CompEntries || fs.MaxDegree != ps.MaxDegree {
		t.Fatalf("patched stats %+v, built stats %+v", ps, fs)
	}
	r, err := RestoreEngine(e2.g, q, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Locality() != LocBalls || !reflect.DeepEqual(enumerateAll(r), enumerateAll(e2)) {
		t.Fatal("engine restored from a patched ball engine's parts answers differently")
	}
}
