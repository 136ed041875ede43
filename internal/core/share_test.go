package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/skip"
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
// answer through the same pointers; far2 has two components over two lists,
// of which the one that stands first has no table.
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
	if !sharesAllBlocks(&x.byKernel, &xy.byKernel) || !sharesAll(&z.inStart, &z2.inStart) {
		t.Fatal("the per-kernel lists and the starter bitmap are not shared with the table")
	}
	if x.skip.K() != 1 || z.skip.K() != 2 {
		t.Fatalf("tables of set size %d and %d, want 1 (y is asked with one value) and 2 (z with two)", x.skip.K(), z.skip.K())
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
	if st := e2.Stats(); st.SkipTables != 1 {
		t.Fatalf("far2: %d tables, want 1", st.SkipTables)
	}
}

// planOf renders what every component holds: its positions and the set size
// of its table, k0 for none; clauses are separated by "|".
func planOf(e *Engine) string {
	var sb strings.Builder
	for i, cl := range e.clauses {
		if i > 0 {
			sb.WriteString(" |")
		}
		for _, c := range cl.comps {
			k := 0
			if c.skip != nil {
				k = c.skip.K()
			}
			fmt.Fprintf(&sb, " %vk%d", c.positions, k)
		}
	}
	return strings.TrimSpace(sb.String())
}

// checkPlan asserts what starterLists promises of a built or restored engine:
// a list whose components all stand first has neither pointers nor per-kernel
// lists under any of them; any other has one table, at exactly the largest
// first position among its components, and the lists.
func checkPlan(t *testing.T, name string, e *Engine) {
	t.Helper()
	for _, l := range e.starterLists() {
		for _, c := range l.comps {
			switch {
			case l.need == 0 && (c.skip != nil || c.byKernel.N() != 0):
				t.Fatalf("%s: component %v of a list nobody asks with a prefix holds pointers or per-kernel lists", name, c.positions)
			case l.need > 0 && (c.skip != l.comps[0].skip || c.skip.K() != l.need || c.byKernel.N() == 0):
				t.Fatalf("%s: component %v of a list asked with %d values: table %p (the list's is %p) of set size %d, per-kernel lists: %v",
					name, c.positions, l.need, c.skip, l.comps[0].skip, c.skip.K(), c.byKernel.N() != 0)
			}
		}
	}
}

// TestSkipSetSizeByPosition pins the plan: a table is built for a list with
// k = the largest first position of its components — what search can put
// before one of them — and not at all for a list that only opens clauses.
func TestSkipSetSizeByPosition(t *testing.T) {
	g := gen.Generate(gen.Grid, 144, gen.Options{Seed: 3, Colors: 2})
	far4 := "dist(x,y) > 2 & dist(x,z) > 2 & dist(x,w) > 2 & dist(y,w) > 2 & dist(z,w) > 2 & dist(y,z) <= 2 & C0(x) & C0(w) & C1(y)"
	for _, tc := range []struct {
		name, src string
		vars      []fo.Var
		plan      string
		tables    int
	}{
		{"unary", "C0(x)", []fo.Var{"x"}, "[0]k0", 0},
		{"far2", "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}, "[0]k0 [1]k1", 1},
		{"far3", far3, []fo.Var{"x", "y", "z"}, "[0]k1 [1]k1 [2]k2 | [0 1]k1 [2]k2", 2},
		{"first-coloured", "C0(x) & dist(x,y) > 2", []fo.Var{"x", "y"}, "[0]k0 [1]k1", 1},
		// C0 opens the clause (x) and closes it (w): one list, one table, at
		// the three values that can stand before w.
		{"far4", far4, []fo.Var{"x", "y", "z", "w"}, "[0]k3 [1 2]k1 [3]k3", 2},
	} {
		q := compileT(t, tc.src, tc.vars...)
		built, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreEngine(g, q, built.SnapshotParts(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for state, e := range map[string]*Engine{"built": built, "restored": restored} {
			name := tc.name + "/" + state
			if got := planOf(e); got != tc.plan || e.Stats().SkipTables != tc.tables {
				t.Fatalf("%s: components hold %q in %d tables, want %q in %d", name, got, e.Stats().SkipTables, tc.plan, tc.tables)
			}
			checkPlan(t, name, e)
		}
		if tc.name == "far4" {
			x, w := built.clauses[0].comps[0], built.clauses[0].comps[2]
			if x.skip != w.skip || !slices.Equal(x.starter, w.starter) {
				t.Fatal("far4: x and w do not answer through one table")
			}
			sameResumePoints(t, rand.New(rand.NewSource(7)), built, restored)
		}
		// In a file, a table lies under the components of a list that is
		// asked, at the list's k, and under no other.
		for i, cl := range built.SnapshotParts().Clauses {
			for j, cp := range cl {
				if c := built.clauses[i].comps[j]; (cp.Skip != nil) != (c.skip != nil) || (cp.Skip != nil && cp.Skip.K != c.skip.K()) {
					t.Fatalf("%s: the parts of component %v do not carry the table it holds", tc.name, c.positions)
				}
			}
		}
	}
}

// TestRestoreTablesBySetSize: a saved table is adopted iff it answers the bag
// sets its list can be asked. Parts as the formats before 4 hold them — a
// table at k = arity − 1 under every component — restore with the tables of
// the lists that are asked adopted at that k and the others unread; without
// the mark of an old file a table nobody can ask is refused, and so is, in
// any file, one below its list's need.
func TestRestoreTablesBySetSize(t *testing.T) {
	g := gen.Generate(gen.Grid, 100, gen.Options{Seed: 3, Colors: 2})
	for _, tc := range []struct {
		src    string
		vars   []fo.Var
		plan   string // restored from old parts
		strict bool   // the old parts restore as new ones too: every list is asked
	}{
		{"dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}, "[0]k0 [1]k1", false},
		{far3, []fo.Var{"x", "y", "z"}, "[0]k2 [1]k2 [2]k2 | [0 1]k2 [2]k2", true},
	} {
		q := compileT(t, tc.src, tc.vars...)
		e, err := Preprocess(g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := enumerateAll(e)
		cov := e.loc.(*coverLoc).cov
		old := e.SnapshotParts()
		for i, cl := range old.Clauses {
			for j := range cl {
				sp := skip.New(g, cov, q.K-1, e.clauses[i].comps[j].starter).Parts()
				cl[j].Skip = &sp
			}
		}
		old.SkipEverywhere = true
		r, err := RestoreEngine(g, q, old, Options{})
		if err != nil {
			t.Fatalf("%s: parts of an old file: %v", tc.src, err)
		}
		if got := planOf(r); got != tc.plan || !reflect.DeepEqual(enumerateAll(r), want) {
			t.Fatalf("%s: parts of an old file restored to %q, want %q, with the built engine's answers", tc.src, got, tc.plan)
		}
		// What the restored engine writes is the plan's again.
		if !reflect.DeepEqual(r.SnapshotParts(), e.SnapshotParts()) {
			t.Fatalf("%s: the engine restored from an old file's parts writes other parts than the built one", tc.src)
		}
		old.SkipEverywhere = false
		if _, err := RestoreEngine(g, q, old, Options{}); (err == nil) != tc.strict {
			t.Fatalf("%s: the same parts as a current file: %v", tc.src, err)
		}

		low := e.SnapshotParts()
		last := len(low.Clauses[0]) - 1
		if low.Clauses[0][last].Skip.K != q.K-1 {
			t.Fatalf("%s: the last component is not asked with %d values", tc.src, q.K-1)
		}
		low.Clauses[0][last].Skip = nil
		if _, err := RestoreEngine(g, q, low, Options{}); err == nil {
			t.Fatalf("%s: a component that is asked restored without a table", tc.src)
		}
		if q.K > 2 {
			sp := skip.New(g, cov, q.K-2, e.clauses[0].comps[last].starter).Parts()
			low.Clauses[0][last].Skip = &sp
			for _, everywhere := range []bool{false, true} {
				low.SkipEverywhere = everywhere
				if _, err := RestoreEngine(g, q, low, Options{}); err == nil || !strings.Contains(err.Error(), "set size") {
					t.Fatalf("%s: a table of set size %d under a component asked with %d values: %v", tc.src, q.K-2, q.K-1, err)
				}
			}
		}
	}
}

// TestKernelListsAreCoverRows: a component every vertex starts that opens
// behind a prefix (the second of three pairwise far positions; the first
// shares its list and is never asked) reads the cover's kernel rows as its
// per-kernel lists — built or restored, not a cell is copied — and a
// component with a proper starter list (C0(z)) has lists of its own. After
// a write the former reads the new cover's kernel rows, which are new for
// exactly the bags the write redoes — those whose kernel changed and those
// the patch made — and shares with the parent every block of lists without
// such a bag; the parent's rows and lists stay bit for bit.
func TestKernelListsAreCoverRows(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 3, Colors: 2})
	q := compileT(t, "dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z")
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
		if len(e.clauses) != 1 || len(e.clauses[0].comps) != 3 {
			t.Fatalf("%s: three pairwise far positions are no longer one clause of three components: %s", name, e.Explain())
		}
		x, y := e.clauses[0].comps[1], e.clauses[0].comps[2]
		if len(x.starter) != g.N() || len(y.starter) == g.N() {
			t.Fatalf("%s: the query no longer has a component every vertex starts and one not: %s", name, e.Explain())
		}
		shared, own := 0, 0
		for b := 0; b < cov.NumBags(); b++ {
			if rowAt(x.byKernel.Row(b)) != rowAt(cov.Kernel(b)) {
				t.Fatalf("%s: x's list for bag %d is not the cover's kernel row", name, b)
			}
			if len(y.byKernel.Row(b)) > 0 {
				if rowAt(y.byKernel.Row(b)) == rowAt(cov.Kernel(b)) {
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
		x, x2 := e.clauses[0].comps[1], e2.clauses[0].comps[1]
		dirty := map[int]bool{}
		for b := 0; b < cov2.NumBags(); b++ {
			if !slices.Equal(x2.byKernel.Row(b), cov2.Kernel(b)) || rowAt(x2.byKernel.Row(b)) != rowAt(cov2.Kernel(b)) {
				t.Fatalf("%v: x's list for bag %d is not the new cover's kernel row", edits, b)
			}
			redone := b >= cov.NumBags() || !slices.Equal(cov.Kernel(b), cov2.Kernel(b))
			if redone {
				dirty[x.byKernel.BlockOf(b)] = true
				changedSeen, newSeen = changedSeen || b < cov.NumBags(), newSeen || b >= cov.NumBags()
			}
		}
		for bi := range x.byKernel.Blocks() {
			if x2.byKernel.SharesBlock(&x.byKernel, bi) == dirty[bi] {
				t.Fatalf("%v: block %d of x's lists shared: %v, holds a redone bag: %v", edits, bi, !dirty[bi], dirty[bi])
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

// TestWritesSharePages: a version shares with the one it was derived from
// every page of its per-vertex and per-bag arrays that the write did not
// dirty, and none that it did. After a colour-only write the two graphs
// share every page of colour words but the recoloured vertex's. After an
// edge write the successor's starter bitmap shares every page without a
// vertex that changed side, and its per-kernel lists every page without a
// redone bag: one whose kernel changed, one the write made, or one whose
// kernel holds a vertex that changed side.
func TestWritesSharePages(t *testing.T) {
	ctx := context.Background()
	g := gen.Generate(gen.Grid, 40000, gen.Options{Seed: 3, Colors: 1, ColorProb: 0.05})
	e, err := Preprocess(g, compileT(t, "dist(x,y) > 2 & exists z (E(y,z) & C0(z))", "x", "y"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.clauses) != 1 || len(e.clauses[0].comps) != 2 {
		t.Fatalf("the query is no longer one clause of two components: %s", e.Explain())
	}
	if y := e.clauses[0].comps[1]; y.inStart.Pages() < 2 || y.byKernel.Blocks() < 2 {
		t.Fatalf("y's bitmap has %d pages and its per-kernel lists %d blocks; the test needs several", y.inStart.Pages(), y.byKernel.Blocks())
	}

	v := 20000
	op := graph.AddColor
	if g.HasColor(v, 0) {
		op = graph.RemoveColor
	}
	recoloured, err := e.ApplyEdits(ctx, []graph.Edit{{Op: op, U: v}})
	if err != nil {
		t.Fatal(err)
	}
	if pages, shared := recoloured.Graph().ColorPages(g); shared != pages-1 {
		t.Fatalf("a colour edit left %d of %d colour pages shared, want all but one", shared, pages)
	}

	// Cutting a coloured vertex off its neighbours moves y's starters around
	// it and grows kernels; a chord across the grid breaks containment.
	c := -1
	for u := 200*50 + 50; c < 0; u++ {
		if g.HasColor(u, 0) {
			c = u
		}
	}
	var cut []graph.Edit
	for _, w := range g.Neighbors(c) {
		cut = append(cut, graph.Edit{Op: graph.RemoveEdge, U: c, V: int(w)})
	}
	flipSeen, newSeen := false, false
	for _, edits := range [][]graph.Edit{cut, {{Op: graph.AddEdge, U: 200*20 + 20, V: 200*150 + 150}}} {
		e2, err := e.ApplyEdits(ctx, edits)
		if err != nil {
			t.Fatal(err)
		}
		if e2.Stats().MutRebuilds != e.Stats().MutRebuilds {
			t.Fatalf("%v was rebuilt, not patched; the test exercises nothing", edits)
		}
		y, y2 := e.clauses[0].comps[1], e2.clauses[0].comps[1]
		cov, cov2 := e.loc.(*coverLoc).cov, e2.loc.(*coverLoc).cov
		dirtyV, dirtyB := map[int]bool{}, map[int]bool{}
		for v := range g.N() {
			if y.inStart.Has(v) != y2.inStart.Has(v) {
				dirtyV[y.inStart.PageOf(v)] = true
				for _, b := range cov2.KernelsOf(v) {
					dirtyB[y.byKernel.BlockOf(int(b))] = true
				}
			}
		}
		for b := range cov2.NumBags() {
			if b >= cov.NumBags() || !slices.Equal(cov.Kernel(b), cov2.Kernel(b)) {
				dirtyB[y.byKernel.BlockOf(b)] = true
				newSeen = newSeen || b >= cov.NumBags()
			}
		}
		flipSeen = flipSeen || len(dirtyV) > 0
		for pi := range y.inStart.Pages() {
			if y2.inStart.SharesPage(&y.inStart, pi) == dirtyV[pi] {
				t.Fatalf("%v: page %d of y's bitmap shared: %v, dirtied: %v", edits, pi, !dirtyV[pi], dirtyV[pi])
			}
		}
		for bi := range y.byKernel.Blocks() {
			if y2.byKernel.SharesBlock(&y.byKernel, bi) == dirtyB[bi] {
				t.Fatalf("%v: block %d of y's per-kernel lists shared: %v, dirtied: %v", edits, bi, !dirtyB[bi], dirtyB[bi])
			}
		}
		e = e2
	}
	if !flipSeen || !newSeen {
		t.Fatalf("the writes moved a starter: %v, made a bag: %v; the test needs both", flipSeen, newSeen)
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
		// Overlaid or rebuilt, a table keeps the k it was planned with, and
		// the components that stand first hold none after a write.
		if y := e2.clauses[0].comps[1]; y.skip.K() != 1 || z.skip.K() != 2 || z2.skip.K() != 2 {
			t.Fatalf("generation %d: set sizes %d, %d, %d, want 1, 2, 2", gen, y.skip.K(), z.skip.K(), z2.skip.K())
		}
		if x, xy := e2.clauses[0].comps[0], e2.clauses[1].comps[0]; x.skip != nil || x.byKernel.N() != 0 || xy.skip != nil || xy.byKernel.N() != 0 {
			t.Fatalf("generation %d: a component that stands first holds pointers or per-kernel lists after a write", gen)
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
	b := 0
	for z.inStart.Has(b) {
		b++
	}
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
// list and another cover) — under the components and at the set sizes a
// build on the edited graph writes them, each the table skip.New makes of the
// patched cover, so that the file of a patched engine is that of a build but
// for the cover itself.
func TestSnapshotOfPatchedEngine(t *testing.T) {
	g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 3, Colors: 1})
	for _, q := range []*LocalQuery{
		compileT(t, "dist(x,y) > 2 & C0(y)", "x", "y"),
		compileT(t, far3, "x", "y", "z"),
	} {
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
		if e2.Stats().MutRebuilds != 0 || e2.MaxSkipDelta() == 0 {
			t.Fatal("the batch was not patched through an overlay; the test exercises nothing")
		}
		parts := e2.SnapshotParts()
		r, err := RestoreEngine(e2.g, q, parts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Preprocess(e2.g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		sameResumePoints(t, rng, r, e2)
		sameResumePoints(t, rng, r, fresh)
		cov2 := e2.loc.(*coverLoc).cov
		for i, cl := range fresh.SnapshotParts().Clauses {
			for j, fp := range cl {
				pp := parts.Clauses[i][j]
				if (pp.Skip == nil) != (fp.Skip == nil) || !slices.Equal(pp.Starter, fp.Starter) {
					t.Fatalf("clause %d component %d: a table in the patched engine's parts: %v, in a build's: %v", i, j, pp.Skip != nil, fp.Skip != nil)
				}
				if pp.Skip != nil && !reflect.DeepEqual(*pp.Skip, skip.New(e2.g, cov2, fp.Skip.K, e2.clauses[i].comps[j].starter).Parts()) {
					t.Fatalf("clause %d component %d: the patched engine's parts do not hold the table of set size %d over its cover", i, j, fp.Skip.K)
				}
			}
		}
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
