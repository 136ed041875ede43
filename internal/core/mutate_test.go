// Differential and fuzz tests of the mutation path: an engine evolved via
// ApplyEdits must enumerate byte-identically to an engine preprocessed
// from scratch on the edited graph, and both must match the naive oracle —
// over the cover locality and over the ball locality alike.
package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/naive"
)

// randomEditBatch draws a mixed batch of edge/color edits, biased so that
// about half the edge edits hit existing edges (removals that do
// something) and color flips toggle real colors.
func randomEditBatch(rng *rand.Rand, g *graph.Graph, count int) []graph.Edit {
	edits := make([]graph.Edit, 0, count)
	for len(edits) < count {
		switch rng.Intn(4) {
		case 0, 1: // edge add/remove
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v {
				continue
			}
			op := graph.AddEdge
			if g.HasEdge(u, v) || rng.Intn(2) == 0 {
				op = graph.RemoveEdge
			}
			edits = append(edits, graph.Edit{Op: op, U: u, V: v})
		default: // color flip
			if g.NumColors() == 0 {
				continue
			}
			v, c := rng.Intn(g.N()), rng.Intn(g.NumColors())
			op := graph.AddColor
			if g.HasColor(v, c) {
				op = graph.RemoveColor
			}
			edits = append(edits, graph.Edit{Op: op, U: v, Color: c})
		}
	}
	return edits
}

// bothLocalities are the two builds every mutation test runs over.
var bothLocalities = []struct {
	name       string
	preprocess preprocessFunc
}{
	{"cover", core.Preprocess},
	{"balls", core.PreprocessBalls},
}

type mutateCase struct {
	class gen.Class
	n     int
	query string
	vars  []fo.Var
}

func mutateCases() []mutateCase {
	xy := []fo.Var{"x", "y"}
	return []mutateCase{
		// Large enough that single edits are genuinely local (the patched
		// path is taken, see TestMutatePatchedPathTaken).
		{gen.Grid, 400, "dist(x,y) > 2 & C0(y)", xy},
		{gen.Path, 300, "dist(x,y) > 1 & C0(x) & C1(y)", xy},
		{gen.RandomTree, 250, "E(x,y) & C0(x)", xy},
		{gen.BoundedDegree, 200, "dist(x,y) > 2 & C0(x)", xy},
		// Components of two positions: the starter test walks the R(k−1)
		// ball, so ball rows and starter bits move together.
		{gen.Cycle, 120, "dist(x,y) <= 2 & C0(x) & C1(y)", xy},
		{gen.BoundedDegree, 50, "E(x,y) & E(y,z) & C1(z)", []fo.Var{"x", "y", "z"}},
		// Small graphs stress the fallback and repair paths.
		{gen.Caterpillar, 50, "dist(x,y) > 2 & (exists z (E(x,z) & C0(z)))", xy},
		{gen.Star, 40, "C0(x) & C1(y) & dist(x,y) > 1", xy},
	}
}

// TestMutateDifferential chains several edit generations and, after each,
// compares the mutated engine of each locality against a from-scratch
// build and the naive oracle — full enumeration, membership probes, and
// counts.
func TestMutateDifferential(t *testing.T) {
	for _, tc := range mutateCases() {
		t.Run(fmt.Sprintf("%s/%s", tc.class, tc.query), func(t *testing.T) {
			g := gen.Generate(tc.class, tc.n, gen.Options{Seed: 5, Colors: 2})
			lq, err := core.Compile(fo.MustParse(tc.query), tc.vars, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			engs := make([]*core.Engine, len(bothLocalities))
			for li, loc := range bothLocalities {
				if engs[li], err = loc.preprocess(g, lq, core.Options{Parallelism: 2}); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(tc.n)))
			for generation := 0; generation < 5; generation++ {
				edits := randomEditBatch(rng, g, 1+rng.Intn(5))
				gNew, err := graph.Patch(g, edits)
				if err != nil {
					t.Fatal(err)
				}
				oracle := naive.SolutionsLocal(gNew, lq)
				if len(oracle) == 0 {
					oracle = nil
				}
				for li, loc := range bothLocalities {
					mutated, err := engs[li].ApplyEdits(nil, edits)
					if err != nil {
						t.Fatalf("%s generation %d: ApplyEdits: %v", loc.name, generation, err)
					}
					rebuiltEng, err := loc.preprocess(gNew, lq, core.Options{Parallelism: 2})
					if err != nil {
						t.Fatalf("%s generation %d: rebuild: %v", loc.name, generation, err)
					}
					got := materialize(mutated)
					want := materialize(rebuiltEng)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s generation %d: mutated enumeration diverged from rebuild (%d vs %d tuples)",
							loc.name, generation, len(got), len(want))
					}
					if !reflect.DeepEqual(got, oracle) {
						t.Fatalf("%s generation %d: mutated enumeration diverged from naive oracle (%d vs %d tuples)",
							loc.name, generation, len(got), len(oracle))
					}
					// Membership probes on random tuples.
					a := make([]graph.V, lq.K)
					for q := 0; q < 200; q++ {
						for i := range a {
							a[i] = rng.Intn(gNew.N())
						}
						if mutated.Test(a) != rebuiltEng.Test(a) {
							t.Fatalf("%s generation %d: Test(%v) disagrees with rebuild", loc.name, generation, a)
						}
					}
					engs[li] = mutated
				}
				g = gNew
			}
		})
	}
}

// TestMutateSnapshotIsolation: every engine keeps answering with its own
// results after (and while) mutations derive the next versions — readers on
// the first version and on a window of the four newest, one writer chaining
// new ones, over either locality. The versions of the window share most
// blocks of their row stores (graph, distance table or ball rows, inverted
// lists) with each other and with the first, and under the cover locality
// kernel rows and per-kernel starter lists, which are the same rows where
// every vertex starts: none of those is written or moved by a later write
// (KernelRows). verify.sh tier 2 runs it under -race.
func TestMutateSnapshotIsolation(t *testing.T) {
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 8, Colors: 2})
			lq, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := loc.preprocess(g, lq, core.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			before := materialize(eng)
			rng := rand.New(rand.NewSource(3))

			var window [4]atomic.Pointer[core.Engine]
			var answers [len(window)][][]graph.V // of the window's engines, as first read
			var rows [len(window)][]core.KernelRow
			firstRows := eng.KernelRows()
			for i := range window {
				window[i].Store(eng)
				answers[i], rows[i] = before, firstRows
			}
			// Readers hammer the first engine and the window while the writer
			// chains mutations off the head.
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						a := []graph.V{r.Intn(g.N()), r.Intn(g.N())}
						eng.Test(a)
						eng.NextGeq(a)
						old := window[r.Intn(len(window))].Load()
						old.Test(a)
						old.NextGeq(a)
					}
				}(int64(w))
			}
			cur := eng
			for i := 0; i < 2*len(window); i++ {
				edits := randomEditBatch(rng, cur.Graph(), 3)
				next, err := cur.ApplyEdits(nil, edits)
				if err != nil {
					t.Fatal(err)
				}
				cur = next
				answers[i%len(window)], rows[i%len(window)] = materialize(cur), cur.KernelRows()
				window[i%len(window)].Store(cur)
			}
			close(stop)
			wg.Wait()
			if !reflect.DeepEqual(before, materialize(eng)) || !core.SameKernelRows(firstRows, eng.KernelRows()) {
				t.Fatal("old engine's enumeration or kernel rows changed after mutations")
			}
			for i := range window {
				old := window[i].Load()
				if !reflect.DeepEqual(answers[i], materialize(old)) || !core.SameKernelRows(rows[i], old.KernelRows()) {
					t.Fatalf("a retained version's enumeration or kernel rows changed under later mutations (slot %d)", i)
				}
			}
		})
	}
}

// localWrite draws a write that recolours one vertex and toggles one edge of
// base, the graph as generated, in head: rows grow and shrink, and the graph
// stays one a cover patches however long the chain.
func localWrite(rng *rand.Rand, base, head *graph.Graph) []graph.Edit {
	v, u := rng.Intn(base.N()), rng.Intn(base.N())
	w := int(base.Neighbors(u)[rng.Intn(base.Degree(u))])
	edits := []graph.Edit{{Op: graph.AddColor, U: v}, {Op: graph.AddEdge, U: u, V: w}}
	if head.HasColor(v, 0) {
		edits[0].Op = graph.RemoveColor
	}
	if head.HasEdge(u, w) {
		edits[1].Op = graph.RemoveEdge
	}
	return edits
}

// TestMutateReceiverAfter200Successors is the MVCC contract of DESIGN.md
// §3.3 over a long chain: the first engine, whose row stores view the flat
// arrays of its build, and the hundredth, all patched blocks, enumerate
// byte-identically once 200 successors have been derived — every one of
// which shares blocks with them.
func TestMutateReceiverAfter200Successors(t *testing.T) {
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			g := gen.Generate(gen.Grid, 225, gen.Options{Seed: 4, Colors: 2})
			lq, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			first, err := loc.preprocess(g, lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			firstAnswers := materialize(first)
			var mid *core.Engine
			var midAnswers [][]graph.V
			rng := rand.New(rand.NewSource(7))
			cur := first
			for i := 0; i < 200; i++ {
				if cur, err = cur.ApplyEdits(nil, localWrite(rng, g, cur.Graph())); err != nil {
					t.Fatal(err)
				}
				if i == 99 {
					mid, midAnswers = cur, materialize(cur)
				}
			}
			if !reflect.DeepEqual(materialize(first), firstAnswers) {
				t.Error("the first engine answers differently after 200 successors")
			}
			if !reflect.DeepEqual(materialize(mid), midAnswers) {
				t.Error("version 100 answers differently after 100 successors")
			}
			rebuilt, err := loc.preprocess(cur.Graph(), lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(materialize(cur), materialize(rebuilt)) {
				t.Error("version 200 answers differently from a rebuild")
			}
		})
	}
}

// TestMutateCarriedCounts: the counts Stats and Explain report off the row
// stores — edges and maximum degree of the graph, ball and completion
// entries, cells and work of the distance table — are carried from version
// to version by the patches, never recounted. After 50 chained writes they
// are what a fresh build reports on the same graph rebuilt from its parts.
func TestMutateCarriedCounts(t *testing.T) {
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 5, Colors: 2})
			lq, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cur, err := loc.preprocess(g, lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			for i := 0; i < 50; i++ {
				if cur, err = cur.ApplyEdits(nil, localWrite(rng, g, cur.Graph())); err != nil {
					t.Fatal(err)
				}
			}
			if r := cur.Stats().MutRebuilds; r != 0 {
				t.Fatalf("%d of 50 writes were rebuilds: the chain must be patches", r)
			}
			rebuilt, err := graph.FromParts(cur.Graph().Parts())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := loc.preprocess(rebuilt, lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, want := cur.Stats(), fresh.Stats()
			if got.MaxDegree != want.MaxDegree || got.BallEntries != want.BallEntries || got.CompEntries != want.CompEntries ||
				!reflect.DeepEqual(got.StarterSizes, want.StarterSizes) {
				t.Errorf("patched chain reports %+v, a fresh build %+v", got, want)
			}
			// The graph line and the locality's table line of Explain; the
			// cover line is left out, a patched cover being valid without
			// being the one a build would choose.
			counted := func(e *core.Engine) (lines []string) {
				for _, line := range strings.Split(e.Explain(), "\n") {
					for _, prefix := range []string{"index over", "  balls:", "  distance index:"} {
						if strings.HasPrefix(line, prefix) {
							lines = append(lines, line)
						}
					}
				}
				return lines
			}
			if got, want := counted(cur), counted(fresh); len(got) != 2 || !reflect.DeepEqual(got, want) {
				t.Errorf("patched chain explains itself as %q, a fresh build as %q", got, want)
			}
			if cur.Graph().MaxDegree() != rebuilt.MaxDegree() {
				t.Errorf("carried maximum degree %d, counted %d", cur.Graph().MaxDegree(), rebuilt.MaxDegree())
			}
		})
	}
}

// TestMutateRetestsWhatTheFormulaReads: under far2 both components are
// quantifier-free singletons, which read the colours of their vertex. A
// colour edit flips that vertex's starter slot and is the only slot
// re-tested; an edge edit next to it re-tests nothing and hands the lists
// on as they are; and a vertex that is recoloured and loses an edge in one
// batch is still re-tested. A quantified component beside them keeps its
// region. Every version is held to a fresh build.
func TestMutateRetestsWhatTheFormulaReads(t *testing.T) {
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 8, Colors: 1})
			v := 210 // an inner vertex
			for g.HasColor(v, 0) {
				v++
			}
			w := int(g.Neighbors(v)[0])
			sameAsFresh := func(what string, e *core.Engine, lq *core.LocalQuery) {
				t.Helper()
				fresh, err := loc.preprocess(e.Graph(), lq, core.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := e.Starters(), fresh.Starters(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: patched starters differ from a fresh build's", what)
				}
			}

			far2, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e0, err := loc.preprocess(g, far2, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			comps := len(e0.Starters())

			coloured, err := e0.ApplyEdits(nil, []graph.Edit{{Op: graph.AddColor, U: v}})
			if err != nil {
				t.Fatal(err)
			}
			if st := coloured.Stats(); st.LocalEvals != comps || st.MutAffected != 1 || st.MutRebuilds != 0 {
				t.Fatalf("colour edit: %d evaluations over a region of %d (%d rebuilds), want %d over 1", st.LocalEvals, st.MutAffected, st.MutRebuilds, comps)
			}
			flipped := false
			for i, sl := range coloured.Starters() {
				flipped = flipped || sl.InStart[v] != e0.Starters()[i].InStart[v]
			}
			if !flipped {
				t.Fatalf("colour edit at %d flipped no starter slot", v)
			}
			sameAsFresh("colour edit", coloured, far2)

			cut, err := coloured.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: v, V: w}})
			if err != nil {
				t.Fatal(err)
			}
			if st := cut.Stats(); st.LocalEvals != 0 || st.MutRebuilds != 0 {
				t.Fatalf("edge edit: %d evaluations (%d rebuilds), want none", st.LocalEvals, st.MutRebuilds)
			}
			for i, sl := range cut.Starters() {
				if before := coloured.Starters()[i]; !cut.SharesStarterBitmap(coloured, i) || !slices.Equal(sl.Starter, before.Starter) {
					t.Fatalf("edge edit next to %d: component %d did not take its starters over", v, i)
				}
			}
			sameAsFresh("edge edit", cut, far2)

			both, err := cut.ApplyEdits(nil, []graph.Edit{{Op: graph.AddEdge, U: v, V: w}, {Op: graph.RemoveColor, U: v}})
			if err != nil {
				t.Fatal(err)
			}
			if st := both.Stats(); st.LocalEvals != comps {
				t.Fatalf("edge and colour edit at one vertex: %d evaluations, want %d", st.LocalEvals, comps)
			}
			sameAsFresh("edge and colour edit at one vertex", both, far2)

			witness, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y) & (exists z (E(x,z) & C0(z)))"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			q0, err := loc.preprocess(g, witness, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			q1, err := q0.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: v, V: w}})
			if err != nil {
				t.Fatal(err)
			}
			if st := q1.Stats(); st.LocalEvals == 0 || st.MutAffected <= 2 || st.MutRebuilds != 0 {
				t.Fatalf("edge edit under a quantified component: %d evaluations over a region of %d (%d rebuilds)", st.LocalEvals, st.MutAffected, st.MutRebuilds)
			}
			sameAsFresh("edge edit under a quantified component", q1, witness)
		})
	}
}

// TestMutatePatchedPathTaken guards against the patch silently degrading
// into rebuild-always: on a large grid with a single-edge edit, the
// incremental path (not the Preprocess fallback) must serve the mutation,
// whichever locality the engine runs on.
func TestMutatePatchedPathTaken(t *testing.T) {
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			g := gen.Generate(gen.Grid, 900, gen.Options{Seed: 2, Colors: 1})
			lq, err := core.Compile(fo.MustParse("dist(x,y) > 2 & C0(y)"), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := loc.preprocess(g, lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := eng.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}})
			if err != nil {
				t.Fatal(err)
			}
			st := mutated.Stats()
			if st.Mutations != 1 {
				t.Fatalf("Mutations = %d, want 1", st.Mutations)
			}
			if st.MutRebuilds != 0 {
				t.Fatalf("single-edge edit fell back to a full rebuild (MutRebuilds = %d)", st.MutRebuilds)
			}
			if st.MutAffected == 0 || st.MutAffected > g.N()/2 {
				t.Fatalf("MutAffected = %d, want a small nonzero region of n=%d", st.MutAffected, g.N())
			}
			if mutated.Locality() != eng.Locality() {
				t.Fatalf("patched engine runs on %q, its predecessor on %q", mutated.Locality(), eng.Locality())
			}
			// A no-op batch returns the engine itself.
			same, err := mutated.ApplyEdits(nil, []graph.Edit{{Op: graph.AddEdge, U: 0, V: 500}, {Op: graph.RemoveEdge, U: 0, V: 500}})
			if err != nil {
				t.Fatal(err)
			}
			if same != mutated {
				t.Fatal("identity edit batch should return the receiver engine")
			}
		})
	}
}

// TestMutateGuardFlip: a clause guard (the sentence conjunct, true while
// some edge joins two C1 vertices) is evaluated per version. Removing the
// only witness empties the answer set through a counted rebuild, restoring
// it brings the answers back, and the edit in between that leaves the guard
// alone is patched.
func TestMutateGuardFlip(t *testing.T) {
	b := graph.NewBuilder(40, 2)
	for v := 0; v+1 < 40; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < 40; v += 3 {
		b.SetColor(v, 0)
	}
	b.SetColor(10, 1)
	b.SetColor(11, 1)
	g := b.Build()
	lq, err := core.Compile(fo.MustParse("C0(x) & exists z w (E(z,w) & C1(z) & C1(w))"), []fo.Var{"x"}, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range bothLocalities {
		t.Run(loc.name, func(t *testing.T) {
			eng, err := loc.preprocess(g, lq, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(materialize(eng)) == 0 {
				t.Fatal("premise: the guard holds on the base graph")
			}
			cur := g
			for i, step := range []struct {
				edit     graph.Edit
				rebuilds int
			}{
				{graph.Edit{Op: graph.RemoveColor, U: 11, Color: 1}, 1}, // guard turns false
				{graph.Edit{Op: graph.AddColor, U: 30, Color: 0}, 1},    // stays false: patched
				{graph.Edit{Op: graph.AddColor, U: 9, Color: 1}, 2},     // true again
			} {
				if eng, err = eng.ApplyEdits(nil, []graph.Edit{step.edit}); err != nil {
					t.Fatal(err)
				}
				if cur, err = graph.Patch(cur, []graph.Edit{step.edit}); err != nil {
					t.Fatal(err)
				}
				if got := eng.Stats().MutRebuilds; got != step.rebuilds {
					t.Fatalf("step %d: MutRebuilds = %d, want %d", i, got, step.rebuilds)
				}
				want := naive.SolutionsLocal(cur, lq)
				if len(want) == 0 {
					want = nil
				}
				if got := materialize(eng); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %d answers, oracle has %d", i, len(got), len(want))
				}
			}
		})
	}
}

// fuzzMutateShapes are the graphs and queries FuzzMutateVsRebuild draws
// from: sparse and bounded-degree classes and a hub, far and close
// components, a quantified component and a guard, the close pairs of
// closeShapes (a pair around a far position, a quantifier inside a pair, two
// clauses of one close type), and a pair that opens behind a far singleton.
var fuzzMutateShapes = struct {
	classes []gen.Class
	queries []struct {
		src  string
		vars []fo.Var
	}
}{
	classes: []gen.Class{gen.SparseRandom, gen.BoundedDegree, gen.Path, gen.Cycle, gen.Star},
	queries: []struct {
		src  string
		vars []fo.Var
	}{
		{"dist(x,y) > 1 & C0(x)", []fo.Var{"x", "y"}},
		{"dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}},
		{"dist(x,y) <= 2 & C0(x) & C1(y)", []fo.Var{"x", "y"}},
		{"E(x,y) & C0(x)", []fo.Var{"x", "y"}},
		{"C0(x) & dist(x,y) > 1 & exists z (E(y,z) & C1(z))", []fo.Var{"x", "y"}},
		{"C0(x) & exists z w (E(z,w) & C1(z) & C1(w))", []fo.Var{"x"}},
		{closeShapes[1].src, closeShapes[1].vars},
		{closeShapes[2].src, closeShapes[2].vars},
		{closeShapes[3].src, closeShapes[3].vars},
		// A pair that opens behind a singleton: its anchors are a Case I list.
		{"dist(x,y) > 2 & dist(x,z) > 2 & dist(y,z) <= 2 & C0(x)", []fo.Var{"x", "y", "z"}},
	},
}

// exactKernels checks, by one BFS per cell, that every kernel of c is
// K_p(X) = {a ∈ X : N_p(a) ⊆ X} of its bag in g, the graph c is over: the
// property the skip pointers' soundness rests on, which a patched cover
// keeps however far it strays from the greedy cover of its graph.
func exactKernels(g *graph.Graph, c *cover.Cover) error {
	bfs := graph.NewBFS(g)
	for i := 0; i < c.NumBags(); i++ {
		var want []int32
		for _, a := range c.Bag(i) {
			inside := true
			for _, w := range bfs.Ball(int(a), c.KernelP()) {
				if _, in := slices.BinarySearch(c.Bag(i), w); !in {
					inside = false
					break
				}
			}
			if inside {
				want = append(want, a)
			}
		}
		if !slices.Equal(c.Kernel(i), want) {
			return fmt.Errorf("kernel of bag %d is %v, K_%d of the bag is %v", i, c.Kernel(i), c.KernelP(), want)
		}
	}
	return nil
}

// FuzzMutateVsRebuild drives random interleavings of edits and
// enumerations from fuzz-provided bytes, over both localities: every
// prefix of the edit stream must enumerate byte-identically on the mutated
// engine, a from-scratch rebuild, and the naive oracle; the partner rows of
// the mutated engine must be the rebuild's word for word over either
// locality, over the ball locality it must also serialize to the very
// parts the rebuild does, and over the cover locality every kernel must be
// the exact kernel of its bag. shape picks the graph class (low three bits) and
// the query.
func FuzzMutateVsRebuild(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x01, 0x40, 0x80, 0x13})
	f.Add(int64(7), uint8(0), []byte{0xff, 0x00, 0x31, 0x62, 0x05, 0x99})
	f.Add(int64(42), uint8(0), []byte{0x10, 0x20, 0x30})
	// sparserandom, two cuts the cover patches: the first derives the
	// cover's memberOf and re-kernels the bags it lists, the second reads
	// the memberOf the first carried.
	f.Add(int64(1), uint8(0), []byte{0x07, 0x00, 0x00, 0x07, 0x01, 0x01})
	// bdeg, far2: an edge that joins two balls, then its removal.
	f.Add(int64(3), uint8(1|1<<3), []byte{0x00, 0x02, 0x20, 0x01, 0x02, 0x20})
	// path, close2: cut the path (op 7 removes a real edge), rejoin it elsewhere.
	f.Add(int64(5), uint8(2|2<<3), []byte{0x07, 0x0a, 0x00, 0x00, 0x0a, 0x1e, 0x07, 0x14, 0x01})
	// cycle, E(x,y): colour-only batch (op 6), identity batch (op 5), a cut.
	f.Add(int64(9), uint8(3|3<<3), []byte{0x06, 0x03, 0x04, 0x05, 0x08, 0x11, 0x07, 0x00, 0x00})
	// bdeg, quantified component: recolour a witness, remove its edge.
	f.Add(int64(11), uint8(1|4<<3), []byte{0x03, 0x05, 0x01, 0x07, 0x05, 0x00, 0x02, 0x06, 0x01})
	// path, guard: strip colour 1 around a vertex (flipping the guard if it
	// held there), then put it back.
	f.Add(int64(13), uint8(2|5<<3), []byte{0x03, 0x04, 0x01, 0x03, 0x05, 0x01, 0x02, 0x04, 0x01, 0x02, 0x05, 0x01})
	// bdeg, a pair around a far position: join two balls next to the far
	// vertex's, recolour it, cut a real edge.
	f.Add(int64(15), uint8(1|6<<3), []byte{0x00, 0x03, 0x21, 0x02, 0x03, 0x00, 0x07, 0x03, 0x00, 0x03, 0x21, 0x00})
	// cycle, a quantifier inside the pair: take the witness's colour away,
	// cut the edge to it, give the colour back.
	f.Add(int64(17), uint8(3|7<<3), []byte{0x03, 0x06, 0x01, 0x07, 0x05, 0x00, 0x02, 0x06, 0x01, 0x00, 0x05, 0x05})
	// path, two clauses of one close type: an edit that moves a pair from one
	// clause's rows to the other's (recolour x, then y), then a shortcut.
	f.Add(int64(19), uint8(2|8<<3), []byte{0x03, 0x08, 0x00, 0x02, 0x09, 0x01, 0x00, 0x08, 0x0a, 0x07, 0x09, 0x00})
	// star and sparserandom, near2: rows as long as the graph; a leaf joins a
	// leaf, the hub loses a colour, a leaf leaves the hub.
	f.Add(int64(21), uint8(4|2<<3), []byte{0x00, 0x05, 0x08, 0x03, 0x00, 0x00, 0x07, 0x00, 0x03, 0x02, 0x00, 0x00})
	f.Add(int64(23), uint8(0|2<<3), []byte{0x00, 0x05, 0x08, 0x03, 0x07, 0x00, 0x07, 0x09, 0x01, 0x02, 0x07, 0x00})
	// path and bdeg, a pair behind a far singleton: recolour the singleton
	// (its list is the one nobody asks), cut inside a pair, shortcut two balls.
	f.Add(int64(25), uint8(2|9<<3), []byte{0x02, 0x04, 0x00, 0x07, 0x0a, 0x00, 0x00, 0x03, 0x14, 0x03, 0x04, 0x00})
	f.Add(int64(27), uint8(1|9<<3), []byte{0x03, 0x06, 0x00, 0x00, 0x02, 0x10, 0x07, 0x05, 0x00, 0x02, 0x06, 0x00})
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, program []byte) {
		if len(program) == 0 || len(program) > 64 {
			t.Skip()
		}
		class := fuzzMutateShapes.classes[int(shape&7)%len(fuzzMutateShapes.classes)]
		qc := fuzzMutateShapes.queries[int(shape>>3)%len(fuzzMutateShapes.queries)]
		lq, err := core.Compile(fo.MustParse(qc.src), qc.vars, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		size := 60
		if lq.K > 2 {
			size = 30 // the oracle tries every tuple
		}
		g := gen.Generate(class, size, gen.Options{Seed: seed, Colors: 2})
		engs := make([]*core.Engine, len(bothLocalities))
		for li, loc := range bothLocalities {
			if engs[li], err = loc.preprocess(g, lq, core.Options{Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		}
		n := g.N()
		for i := 0; i+2 < len(program); i += 3 {
			u := int(program[i+1]) % n
			v := int(program[i+2]) % n
			w := (v + 1) % n
			var batch []graph.Edit
			switch program[i] % 8 {
			case 0:
				batch = []graph.Edit{{Op: graph.AddEdge, U: u, V: w}}
			case 1:
				batch = []graph.Edit{{Op: graph.RemoveEdge, U: u, V: w}}
			case 2:
				batch = []graph.Edit{{Op: graph.AddColor, U: u, Color: v % 2}}
			case 3:
				batch = []graph.Edit{{Op: graph.RemoveColor, U: u, Color: v % 2}}
			case 4:
				// Enumerate checkpoint without editing.
				batch = []graph.Edit{{Op: graph.AddEdge, U: u, V: u}}
			case 5:
				// A batch that nets out to the identity.
				batch = []graph.Edit{{Op: graph.AddEdge, U: u, V: w}, {Op: graph.RemoveEdge, U: u, V: w}}
				if g.HasEdge(u, w) {
					batch[0], batch[1] = batch[1], batch[0]
				}
			case 6:
				// Colours only: no locality has anything to patch.
				batch = []graph.Edit{{Op: graph.AddColor, U: u, Color: 0}, {Op: graph.RemoveColor, U: w, Color: 1}}
			case 7:
				// Remove an edge that exists: splits balls.
				if g.Degree(u) == 0 {
					continue
				}
				nb := g.Neighbors(u)
				batch = []graph.Edit{{Op: graph.RemoveEdge, U: u, V: int(nb[v%len(nb)])}}
			}
			if batch[0].Op <= graph.RemoveEdge && batch[0].U == batch[0].V && program[i]%8 != 4 {
				continue
			}
			gNew, err := graph.Patch(g, batch)
			if err != nil {
				t.Fatal(err)
			}
			oracle := naive.SolutionsLocal(gNew, lq)
			if len(oracle) == 0 {
				oracle = nil
			}
			for li, loc := range bothLocalities {
				mutated, err := engs[li].ApplyEdits(nil, batch)
				if err != nil {
					t.Fatal(err)
				}
				rebuiltEng, err := loc.preprocess(gNew, lq, core.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				got := materialize(mutated)
				want := materialize(rebuiltEng)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s step %d (%v): mutated %d tuples, rebuild %d tuples", loc.name, i/3, batch, len(got), len(want))
				}
				if !reflect.DeepEqual(got, oracle) {
					t.Fatalf("%s step %d (%v): mutated diverged from naive oracle", loc.name, i/3, batch)
				}
				if !reflect.DeepEqual(mutated.PartnerRows(), rebuiltEng.PartnerRows()) {
					t.Fatalf("%s step %d (%v): partner rows of the mutated engine differ from the rebuild's", loc.name, i/3, batch)
				}
				if mutated.Locality() == core.LocBalls && !reflect.DeepEqual(mutated.SnapshotParts(), rebuiltEng.SnapshotParts()) {
					t.Fatalf("%s step %d (%v): parts of the mutated engine differ from the rebuild's", loc.name, i/3, batch)
				}
				if covers := mutated.Covers(); len(covers) > 0 {
					if err := exactKernels(gNew, covers[0]); err != nil {
						t.Fatalf("%s step %d (%v): %v", loc.name, i/3, batch, err)
					}
				}
				engs[li] = mutated
			}
			g = gNew
		}
	})
}
