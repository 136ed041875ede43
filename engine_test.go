package repro

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/conform"
)

// bothKinds builds the same (graph, query) index once per engine kind.
func bothKinds(t *testing.T, g *Graph, q *Query) map[EngineKind]*Index {
	t.Helper()
	out := map[EngineKind]*Index{}
	for _, kind := range []EngineKind{EngineCore, EngineLowDeg} {
		ix, err := Build(context.Background(), g, q, WithParallelism(1), WithEngine(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ix.Engine() != kind {
			t.Fatalf("forced %s, index reports %s", kind, ix.Engine())
		}
		out[kind] = ix
	}
	return out
}

// TestEngineContractConformance runs the shared conformance battery
// through the engine value an Index holds, for both kinds: what the facade
// built must meet the full contract (enumeration,
// NextGeq, Test, counts, cursor paging, NextLast), not only the concrete
// engines the internal/conform tests build directly.
func TestEngineContractConformance(t *testing.T) {
	for _, c := range conform.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			g := c.Graph()
			q := MustParseQuery(c.Query, c.Vars...)
			lq, err := q.compile()
			if err != nil {
				t.Fatal(err)
			}
			want := conform.NewNaive(g, lq).Solutions()
			for kind, ix := range bothKinds(t, g, q) {
				eng := ix.eng
				sys := conform.System{
					Name: c.Name + "/facade-" + string(kind), Engine: eng, K: lq.K, N: g.N(),
					NewCursor: func(a []int) conform.Cursor { return eng.IteratorFrom(a) },
				}
				if err := conform.CheckAll(sys, want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestFacadeHotPathsZeroAllocs pins, in tier 1, that routing through the
// facade, the shared iterator and the locality costs no allocation: for
// either kind, Index.Test, Index.NextLast and Cursor.Next are 0 allocs/op in
// steady state — and stay so on an index reached through ApplyEdits (patched
// layouts and the skip-delta overlay of the cover locality, spliced ball rows
// of the other, patched partner rows) or restored from a snapshot, which read
// the same arrays a built one does. Three queries: far2, whose components are
// singletons; near2, one close pair answered from its partner rows; and
// bench's far3, whose second clause is a close pair beside a far position.
// (Allocation counts are deterministic, so this needs no env gate.)
func TestFacadeHotPathsZeroAllocs(t *testing.T) {
	g := Generate("grid", 900, GenOptions{Colors: 2, Seed: 16})
	n := g.N()
	for _, q := range []*Query{
		MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y"),
		MustParseQuery("dist(x,y) <= 2 & C0(x) & C1(y)", "x", "y"),
		MustParseQuery("dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z"),
	} {
		indexes := map[string]*Index{}
		for kind, ix := range bothKinds(t, g, q) {
			indexes[string(kind)] = ix
			patched, err := ix.ApplyEdits(context.Background(), []Edit{RemoveEdge(0, 1), AddColor(500, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if st := patched.Stats(); st.Mutations != 1 || st.MutRebuilds != 0 {
				t.Fatalf("premise: the %s edit is patched, got %+v", kind, st)
			}
			indexes[string(kind)+", patched"] = patched
			var buf bytes.Buffer
			if err := patched.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadIndexSnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if restored.Engine() != kind {
				t.Fatalf("a %s snapshot restored as %s", kind, restored.Engine())
			}
			indexes[string(kind)+", restored"] = restored
		}
		for kind, ix := range indexes {
			k := ix.Arity()
			tuple := make([]int, k)
			zero := make([]int, k)
			it := ix.IteratorFrom(zero)
			it.Seek(zero) // warm-up: every buffer exists from here on
			if !it.HasNext() {
				t.Fatalf("%s, %s: no solutions", q.Canonical(), kind)
			}
			v := 0
			// The probe tuple: a moving vertex and a scattered one, and every
			// other time the vertex next to the first in the second place, so
			// that Test and NextLast get past the distance pattern of a close
			// pair and into its partner rows.
			probe := func() {
				tuple[0], tuple[k-1] = v%n, (v*31)%n
				if v%2 == 0 {
					tuple[1] = (v + 1) % n
				}
			}
			ops := []struct {
				name string
				op   func()
			}{
				{"Index.Test", func() { probe(); ix.Test(tuple) }},
				{"Index.NextLast", func() { probe(); ix.NextLast(tuple[:k-1], 0) }},
				{"Cursor.Next", func() {
					if _, ok := it.Next(); !ok {
						it.Seek(zero)
					}
				}},
			}
			for _, o := range ops {
				allocs := testing.AllocsPerRun(500, func() { o.op(); v += 17 })
				if allocs != 0 {
					t.Errorf("%s, %s: %s = %.2f allocs/op, want 0", q.Canonical(), kind, o.name, allocs)
				}
			}
		}
	}
}

// TestCursorAllocCounts pins what opening a cursor and one NextGeq allocate,
// for k = 2 and for k = 3 with two clauses — all singletons, or one of them
// a close pair — on both kinds: IteratorFrom is
// four objects whatever the query (the iterator, its clause cursors, one
// array of tuples, one of frames — before the clause cursor it was 6 + one
// per clause), and Index.Next is the result tuple alone. The lib workloads
// of bench/ allocate a cursor a page, so a fifth object here is a regression
// of their allocs_per_op.
func TestCursorAllocCounts(t *testing.T) {
	g := Generate("grid", 900, GenOptions{Colors: 2, Seed: 16})
	for _, q := range []*Query{
		MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y"),
		// Two clauses, every component a singleton.
		MustParseQuery("dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) > 2 & (C0(z) | C1(x))", "x", "y", "z"),
		// bench's far3: the second clause has a close pair, sought in its
		// partner rows.
		MustParseQuery("dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", "x", "y", "z"),
	} {
		for kind, ix := range bothKinds(t, g, q) {
			from := make([]int, ix.Arity())
			from[0] = g.N() / 2
			if a := testing.AllocsPerRun(200, func() { ix.IteratorFrom(from) }); a > 4 {
				t.Errorf("%s, k=%d: IteratorFrom = %.0f allocs, want ≤ 4", kind, ix.Arity(), a)
			}
			if a := testing.AllocsPerRun(200, func() { ix.Next(from) }); a != 1 {
				t.Errorf("%s, k=%d: Index.Next = %.0f allocs, want 1 (the result tuple)", kind, ix.Arity(), a)
			}
		}
	}
}

// TestBuildAllocs pins what a build allocates and what the index keeps —
// objects and bytes of one Build at Parallelism 1 (Mallocs and TotalAlloc
// deltas, scratch pools warm) and the live heap it leaves, far2 at n =
// 32 000 — on a degree-4 graph under the ball locality and on a grid under
// the cover locality. Every sorted ball is written once into the arena of
// its table and a quantifier-free singleton component reads the colours of
// its vertex, so the ball build is a few dozen objects (74, and 5.1 MB,
// where a row and an evaluation scratch per vertex cost 96 000 and 14 MB).
// The cover is one arena of int32 rows with its kernels filtered out of a
// depth column the build then drops, it keeps no inverted lists of its bags
// (the first write derives them), and x's per-kernel lists are its kernel
// rows, so the grid build is 169 objects and 17 MB for 6.3 MB kept (21 700,
// 26 MB and 13.5 MB with a slice a bag, a BFS a kernel and a copy a list;
// 183, 17 MB and 7.9 MB with the bags' inverted lists and the column kept).
// The kept bytes are what bench reports as index_heap_mb.
func TestBuildAllocs(t *testing.T) {
	if testing.Short() {
		// As TestApplyEditsAllocBytes: under the race detector the
		// evaluator pool drops evaluators, each with n-sized scratch.
		t.Skip("allocation counts rely on warm scratch pools")
	}
	ctx := context.Background()
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	for _, tc := range []struct {
		class     string
		kind      EngineKind
		maxAllocs uint64
		maxBytes  uint64
		maxKept   uint64
	}{
		{"bdeg", EngineLowDeg, 500, 9 << 20, 3 << 20},
		{"grid", EngineCore, 500, 24 << 20, 11<<20 + 1<<19},
	} {
		g := Generate(tc.class, 32000, GenOptions{Colors: 2, Seed: 1})
		build := func() *Index {
			ix, err := Build(ctx, g, q, WithEngine(tc.kind), WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		// Two collections empty the scratch pools, victim caches included, so
		// the live heap on either side of the build differs by the index.
		collect := func(m *runtime.MemStats) {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(m)
		}
		var empty, before, after, kept runtime.MemStats
		collect(&empty)
		build() // fills the scratch pools
		runtime.ReadMemStats(&before)
		ix := build()
		runtime.ReadMemStats(&after)
		collect(&kept)
		runtime.KeepAlive(ix)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		heap := kept.HeapAlloc - empty.HeapAlloc
		t.Logf("%s-32k on %s: %d allocs, %.1f MB allocated for %.1f MB of index (%.2f×)",
			tc.class, ix.Engine(), allocs, float64(bytes)/(1<<20), float64(heap)/(1<<20), float64(bytes)/float64(heap))
		if allocs > tc.maxAllocs || bytes > tc.maxBytes || heap > tc.maxKept {
			t.Errorf("%s-32k: a build allocates %d objects and %d bytes and keeps %d, limits %d, %d and %d",
				tc.class, allocs, bytes, heap, tc.maxAllocs, tc.maxBytes, tc.maxKept)
		}
	}
}

// TestSnapshotWriteAllocs gates the bytes one WriteSnapshot allocates against
// the size of the file it writes, on the two far2 indexes of TestBuildAllocs,
// into a buffer that already has the file's size. A stream is sized before
// it is filled and a typed section is the stream's own bytes, so a write
// allocates the file once (measured 1.04× on the grid, 1.11× on bdeg — the
// rest is SnapshotParts and Graph.Parts flattening their rows) where
// doubling streams, a copy a section and a second encoding of the graph for
// the fingerprint cost 3.5× (26.1 MB for 7.4 MB). Gates: measured plus a
// tenth of the file.
func TestSnapshotWriteAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts rely on warm scratch pools") // as TestBuildAllocs
	}
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	for _, tc := range []struct {
		class    string
		kind     EngineKind
		maxRatio float64
	}{
		{"bdeg", EngineLowDeg, 1.21},
		{"grid", EngineCore, 1.14},
	} {
		ix, err := Build(context.Background(), Generate(tc.class, 32000, GenOptions{Colors: 2, Seed: 1}), q, WithEngine(tc.kind))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := ix.WriteSnapshot(&out); err != nil {
			t.Fatal(err)
		}
		size := out.Len()
		var before, after runtime.MemStats
		out.Reset()
		runtime.ReadMemStats(&before)
		err = ix.WriteSnapshot(&out)
		runtime.ReadMemStats(&after)
		if err != nil || out.Len() != size {
			t.Fatalf("second write: %d bytes, %v; the first had %d", out.Len(), err, size)
		}
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
		t.Logf("%s-32k on %s: a write allocates %.2f MB for a file of %.2f MB (%.2f×)",
			tc.class, ix.Engine(), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), float64(size)/(1<<20), ratio)
		if ratio > tc.maxRatio {
			t.Errorf("%s-32k: a write allocates %.2f× the file it writes, limit %.2f×", tc.class, ratio, tc.maxRatio)
		}
	}
}

// TestLowdegMutationStats: a lowdeg index patches its balls, so effective
// batches are mutations that are not rebuilds, each reports the region it
// re-tested, and the ball statistics follow the graph.
func TestLowdegMutationStats(t *testing.T) {
	ctx := context.Background()
	g := Generate("grid", 400, GenOptions{Colors: 1, Seed: 3})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	ix, err := Build(ctx, g, q, WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	built := ix.Stats()
	for i, batch := range [][]Edit{
		{RemoveEdge(0, 1)},
		{AddEdge(0, 1), AddColor(7, 0)},
		{RemoveColor(7, 0), AddEdge(0, 399)},
	} {
		next, err := ix.ApplyEdits(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		if next == ix || next.Version() != i+1 {
			t.Fatalf("batch %d: effective edit did not produce version %d", i, i+1)
		}
		if a := next.Stats().MutAffected; a == 0 || a > g.N()/4 {
			t.Fatalf("batch %d: MutAffected = %d, want a small nonzero region of n=%d", i, a, g.N())
		}
		ix = next
	}
	same, err := ix.ApplyEdits(ctx, []Edit{AddEdge(5, 9), RemoveEdge(5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if same != ix {
		t.Fatal("identity batch did not return the receiver")
	}
	st := ix.Stats()
	if st.Mutations != 3 || st.MutRebuilds != 0 {
		t.Fatalf("Stats after 3 effective + 1 identity batch: Mutations=%d MutRebuilds=%d, want 3 and 0", st.Mutations, st.MutRebuilds)
	}
	// The one edge the batches leave behind joins two corners of the grid.
	if st.BallEntries <= built.BallEntries || st.CoverBags != 0 {
		t.Fatalf("patched index does not carry the balls of its graph: built %d entries, now %+v", built.BallEntries, st)
	}
	fresh, err := Build(ctx, ix.Graph(), q, WithEngine(EngineLowDeg))
	if err != nil {
		t.Fatal(err)
	}
	if fs := fresh.Stats(); fs.BallEntries != st.BallEntries || fs.MaxDegree != st.MaxDegree {
		t.Fatalf("patched index reports %d entries, degree %d; a build on its graph %d, %d", st.BallEntries, st.MaxDegree, fs.BallEntries, fs.MaxDegree)
	}
}

// TestAutoSelectionFollowsTheGraph: an index built under EngineAuto makes
// its selection again on every edited graph. A path starts on lowdeg; edges
// added to one hub push its degree past AutoMaxDegree, and the version that
// crosses the limit is built on the core engine — one counted rebuild — with
// the estimates of its own graph. Every version answers like the naive
// oracle, and the older ones keep answering as they did.
func TestAutoSelectionFollowsTheGraph(t *testing.T) {
	ctx := context.Background()
	g := Generate("path", 60, GenOptions{Colors: 2, Seed: 4})
	q := MustParseQuery("dist(x,y) > 2 & C0(y)", "x", "y")
	lq, err := q.compile()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(ctx, g, q, WithEngine(EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Engine() != EngineLowDeg {
		t.Fatalf("auto on a path built %s", ix.Engine())
	}
	answers := func(ix *Index) [][]int {
		var out [][]int
		ix.Enumerate(func(s []int) bool { out = append(out, append([]int(nil), s...)); return true })
		return out
	}
	versions := []*Index{ix}
	wants := [][][]int{conform.NewNaive(g, lq).Solutions()}
	const hub = 30
	for i := 0; versions[len(versions)-1].Graph().Degree(hub) <= AutoMaxDegree; i++ {
		prev := versions[len(versions)-1]
		next, err := prev.ApplyEdits(ctx, []Edit{AddEdge(hub, 3+5*i)})
		if err != nil {
			t.Fatal(err)
		}
		sel, deg := next.Selection(), next.Graph().MaxDegree()
		if sel.Requested != EngineAuto || sel.MaxDegree != deg {
			t.Fatalf("version %d: selection %+v, graph has maximum degree %d", next.Version(), sel, deg)
		}
		wantKind, wantRebuilds := EngineLowDeg, 0
		if deg > AutoMaxDegree {
			wantKind, wantRebuilds = EngineCore, 1
		}
		if st := next.Stats(); next.Engine() != wantKind || st.MutRebuilds != wantRebuilds || st.Mutations != next.Version() {
			t.Fatalf("version %d (degree %d): engine %s, %+v", next.Version(), deg, next.Engine(), st)
		}
		versions = append(versions, next)
		wants = append(wants, conform.NewNaive(next.Graph(), lq).Solutions())
	}
	head := versions[len(versions)-1]
	if head.Engine() != EngineCore || head.Stats().CoverBags == 0 || head.Stats().BallEntries != 0 {
		t.Fatalf("the hub outgrew the limit but the head is %s: %+v", head.Engine(), head.Stats())
	}
	// And back: with the hub's extra edges gone the next version returns to lowdeg.
	var undo []Edit
	for _, w := range head.Graph().Neighbors(hub) {
		if int(w) != hub-1 && int(w) != hub+1 {
			undo = append(undo, RemoveEdge(hub, int(w)))
		}
	}
	back, err := head.ApplyEdits(ctx, undo)
	if err != nil {
		t.Fatal(err)
	}
	if st := back.Stats(); back.Engine() != EngineLowDeg || st.MutRebuilds != 2 || back.Selection().MaxDegree != 2 {
		t.Fatalf("back on a path: engine %s, selection %+v, %+v", back.Engine(), back.Selection(), st)
	}
	versions, wants = append(versions, back), append(wants, wants[0])
	for i, v := range versions {
		if got := answers(v); len(got) != len(wants[i]) || (len(got) > 0 && !reflect.DeepEqual(got, wants[i])) {
			t.Fatalf("version %d (%s) answers %d tuples, the oracle %d", i, v.Engine(), len(got), len(wants[i]))
		}
	}
}
