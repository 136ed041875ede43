// Tests of the partner rows: a component of two positions is answered from
// rows built in the preprocessing, patched by a write, stored in a snapshot —
// and from nothing else.
package core_test

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// closeShapes are the queries with a close pair every test here runs: near2,
// a pair around a far position, a quantifier inside the pair's formula, two
// clauses of one close type.
var closeShapes = []struct {
	name, src string
	vars      []fo.Var
}{
	{"near2", "dist(x,y) <= 2 & C0(x) & C1(y)", []fo.Var{"x", "y"}},
	{"mixed3", "dist(x,y) <= 2 & dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "z", "y"}},
	{"witness", "dist(x,y) <= 2 & C0(x) & exists z (E(y,z) & C1(z))", []fo.Var{"x", "y"}},
	{"disjunction", "(E(x,y) & C0(x)) | (dist(x,y) <= 2 & C1(y))", []fo.Var{"x", "y"}},
}

func compileShape(t testing.TB, src string, vars []fo.Var) *core.LocalQuery {
	t.Helper()
	lq, err := core.Compile(fo.MustParse(src), vars, core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return lq
}

// TestPartnersAnswerWithoutEvaluating is the point of the rows: once the
// build is over, no answering call of a query whose components have one or
// two positions evaluates a formula or probes a memo — a full enumeration,
// 10 000 random Tests, 10 000 random NextGeqs and a NextLast per vertex
// leave LocalEvals where the build left it and LocalEvalHits at 0, on an
// engine built, patched or restored, over both localities.
func TestPartnersAnswerWithoutEvaluating(t *testing.T) {
	g := gen.Generate(gen.Grid, 400, gen.Options{Seed: 5, Colors: 2})
	for _, qc := range closeShapes {
		lq := compileShape(t, qc.src, qc.vars)
		for _, loc := range bothLocalities {
			built, err := loc.preprocess(g, lq, core.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if built.Stats().PartnerCells == 0 {
				t.Fatalf("%s/%s: no partner cells; the case exercises nothing", qc.name, loc.name)
			}
			patched, err := built.ApplyEdits(nil, []graph.Edit{{Op: graph.RemoveEdge, U: 0, V: 1}, {Op: graph.AddColor, U: 7, Color: 0}})
			if err != nil {
				t.Fatal(err)
			}
			restored, err := core.RestoreEngine(patched.Graph(), lq, patched.SnapshotParts(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for name, e := range map[string]*core.Engine{"built": built, "patched": patched, "restored": restored} {
				before := e.Stats()
				answers := e.Count()
				rng := rand.New(rand.NewSource(1))
				a := make([]graph.V, lq.K)
				for i := 0; i < 10000; i++ {
					for p := range a {
						a[p] = rng.Intn(g.N())
					}
					e.Test(a)
					e.NextGeq(a)
				}
				for v := 0; v < g.N(); v++ {
					for p := range a {
						a[p] = (v + 3*p) % g.N()
					}
					e.NextLast(a[:lq.K-1], 0)
				}
				after := e.Stats()
				if answers == 0 || after.LocalEvals != before.LocalEvals || after.LocalEvalHits != 0 {
					t.Errorf("%s/%s/%s: %d answers; LocalEvals %d → %d, LocalEvalHits %d — answering evaluated a formula",
						qc.name, loc.name, name, answers, before.LocalEvals, after.LocalEvals, after.LocalEvalHits)
				}
			}
		}
	}
}

// TestPartnersPatchedEqualRebuilt: a single edge or colour edit on a query
// with a close pair is patched, never rebuilt, over both localities; the
// patched rows are the rebuild's word for word; the rows of an anchor far
// from the edit stay where they were (its block is shared); the two engines
// enumerate alike; and an engine restored from parts without the rows — a
// file older than format 3 — builds the same ones.
func TestPartnersPatchedEqualRebuilt(t *testing.T) {
	g0 := gen.Generate(gen.Grid, 400, gen.Options{Seed: 5, Colors: 2})
	const far = 399 // the corner opposite the edits, 38 steps away
	for _, qc := range closeShapes {
		lq := compileShape(t, qc.src, qc.vars)
		for _, loc := range bothLocalities {
			g := g0
			e, err := loc.preprocess(g, lq, core.Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			for step, edit := range []graph.Edit{
				{Op: graph.RemoveEdge, U: 0, V: 1},
				{Op: graph.AddEdge, U: 0, V: 21},
				{Op: graph.AddColor, U: 22, Color: 1},
				{Op: graph.RemoveColor, U: 22, Color: 1},
				{Op: graph.AddColor, U: 2, Color: 0},
			} {
				next, err := e.ApplyEdits(nil, []graph.Edit{edit})
				if err != nil {
					t.Fatal(err)
				}
				if st := next.Stats(); st.Mutations != step+1 || st.MutRebuilds != 0 {
					t.Fatalf("%s/%s step %d (%v): rebuilt, not patched: %+v", qc.name, loc.name, step, edit, st)
				}
				if !reflect.DeepEqual(next.PartnerRowAt(far), e.PartnerRowAt(far)) {
					t.Errorf("%s/%s step %d (%v): the row of vertex %d moved", qc.name, loc.name, step, edit, far)
				}
				if g, err = graph.Patch(g, []graph.Edit{edit}); err != nil {
					t.Fatal(err)
				}
				rebuilt, err := loc.preprocess(g, lq, core.Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := next.PartnerRows(), rebuilt.PartnerRows(); len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s step %d (%v): patched partner rows differ from the rebuild's", qc.name, loc.name, step, edit)
				}
				if got, want := next.Stats().PartnerCells, rebuilt.Stats().PartnerCells; got != want {
					t.Fatalf("%s/%s step %d: PartnerCells %d, the rebuild %d", qc.name, loc.name, step, got, want)
				}
				a, b := next.Iterator(), rebuilt.Iterator()
				for n := 0; ; n++ {
					x, okx := a.Next()
					y, oky := b.Next()
					if okx != oky || !slices.Equal(x, y) {
						t.Fatalf("%s/%s step %d (%v): answer %d is %v patched, %v rebuilt", qc.name, loc.name, step, edit, n, x, y)
					}
					if !okx {
						break
					}
				}
				e = next
			}
			parts := e.SnapshotParts()
			for _, comps := range parts.Clauses {
				for i := range comps {
					comps[i].Partners = nil
				}
			}
			old, err := core.RestoreEngine(g, lq, parts, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: restoring without partner rows: %v", qc.name, loc.name, err)
			}
			if !reflect.DeepEqual(old.PartnerRows(), e.PartnerRows()) {
				t.Fatalf("%s/%s: the rows built at restore differ from the patched ones", qc.name, loc.name)
			}
		}
	}
}

// TestPartnersOfConstantPsi: far3's close pair has ψ ≡ ⊤, so its partner
// row of v is N_R(v) — checked against a BFS — copied, with no formula
// evaluated, yet counted as evaluated. On a partial k-tree, where the distance index recurses and the
// cover locality reads N_R(v) off a BFS rather than a table, the rows are the
// ball locality's, the same restored with and without them, and patched
// equal to a rebuild's.
func TestPartnersOfConstantPsi(t *testing.T) {
	g := gen.Generate(gen.PartialKTree, 2000, gen.Options{Seed: 1, Colors: 2})
	lq := compileShape(t, "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "y", "z"})
	built, err := core.Preprocess(g, lq, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Covers()) < 2 {
		t.Fatal("the distance index did not recurse: the rows come off its table, not a BFS")
	}
	rows := built.PartnerRows()
	if len(rows) != 1 || built.Stats().PartnerCells == 0 {
		t.Fatalf("far3 has %d components of two positions, want 1 with cells", len(rows))
	}
	bfs := graph.NewBFS(g)
	for v := range g.N() {
		row := rows[0].Adj[rows[0].Off[v]:rows[0].Off[v+1]]
		if ball := bfs.AppendSortedBall(nil, v, lq.R); !slices.Equal(row, ball) {
			t.Fatalf("the partner row of %d has %d cells, N_%d(%d) %d", v, len(row), lq.R, v, len(ball))
		}
	}
	if st := built.Stats(); st.LocalEvals < st.PartnerCells {
		t.Fatalf("%d local evaluations for %d partner cells: a copied row must count as evaluated", st.LocalEvals, st.PartnerCells)
	}
	balls, err := core.PreprocessBalls(g, lq, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(balls.PartnerRows(), rows) {
		t.Fatal("the cover locality's partner rows differ from the ball locality's")
	}
	parts := built.SnapshotParts()
	restored, err := core.RestoreEngine(g, lq, parts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, comps := range parts.Clauses {
		for i := range comps {
			comps[i].Partners = nil
		}
	}
	rebuiltAtRestore, err := core.RestoreEngine(g, lq, parts, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.PartnerRows(), rows) || !reflect.DeepEqual(rebuiltAtRestore.PartnerRows(), rows) {
		t.Fatal("restored partner rows differ from the built ones")
	}
	// An edge write on a partial k-tree reaches the whole graph at cover
	// scale and rebuilds; a colour write is patched. (closeShapes' mixed3
	// has ψ ≡ ⊤ too, and TestPartnersPatchedEqualRebuilt patches its edges
	// on a grid.)
	edits := []graph.Edit{{Op: graph.AddColor, U: 7, Color: 0}, {Op: graph.RemoveColor, U: 8, Color: 0}}
	patched, err := built.ApplyEdits(nil, edits)
	if err != nil {
		t.Fatal(err)
	}
	if st := patched.Stats(); st.MutRebuilds != 0 {
		t.Fatalf("the write rebuilt the index: %+v", st)
	}
	g2, err := graph.Patch(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := core.Preprocess(g2, lq, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(patched.PartnerRows(), rebuilt.PartnerRows()) {
		t.Fatal("patched partner rows differ from the rebuild's")
	}
}

// TestFastCountLeavesNothing: FastCount runs once an index, and what its
// close-pair scans read — every N_R(v) of a far2 starter — must not stay
// behind. The live heap it leaves on a cover index does not grow from
// grid-2k to grid-8k (a ball a vertex kept was 32 000 slices on grid-32k).
func TestFastCountLeavesNothing(t *testing.T) {
	lq := compileShape(t, "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"})
	left := map[int]int64{}
	for _, n := range []int{2000, 8000} {
		e, err := core.Preprocess(gen.Generate(gen.Grid, n, gen.Options{Seed: 1, Colors: 2}), lq, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		live := func() int64 {
			var m runtime.MemStats
			runtime.GC()
			runtime.GC() // the second empties the scratch pools' victim caches
			runtime.ReadMemStats(&m)
			return int64(m.HeapAlloc)
		}
		before := live()
		if _, ok := e.FastCount(); !ok {
			t.Fatal("FastCount refused arity 2")
		}
		left[n] = live() - before
		runtime.KeepAlive(e)
	}
	t.Logf("live heap FastCount left: %d B on grid-2k, %d B on grid-8k", left[2000], left[8000])
	const slack = 64 << 10 // a ball a vertex is 0.8 MB on grid-8k
	if left[8000] > slack || left[8000]-left[2000] > slack {
		t.Errorf("FastCount left %d B live on grid-2k and %d B on grid-8k: it keeps something per vertex", left[2000], left[8000])
	}
}

// TestCloseDelayGuard bounds every delay of a close query, not their mean
// (Corollary 2.5; bench's delay_drift watches the mean): a full scan of
// near2 on grid-2k and on grid-8k, one clock read an answer, each answer's
// delay taken as its minimum over five scans so that a preemption does not
// count as the engine's; the maximum must stay within 50× the median at
// either size. A timing ratio, so tier 3 (GUARD=1).
func TestCloseDelayGuard(t *testing.T) {
	if os.Getenv("GUARD") == "" {
		t.Skip("set GUARD=1 to run the timing guards (scripts/verify.sh 3)")
	}
	lq := compileShape(t, "dist(x,y) <= 2 & C0(x) & C1(y)", []fo.Var{"x", "y"})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{2000, 8000} {
		e, err := core.Preprocess(gen.Generate(gen.Grid, n, gen.Options{Seed: 16, Colors: 2}), lq, core.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		delays := make([]time.Duration, e.Count())
		zero := make([]graph.V, 2)
		it := e.IteratorFrom(zero)
		for pass := 0; pass < 5; pass++ {
			it.Seek(zero)
			last := time.Now()
			for i := range delays {
				if _, ok := it.Next(); !ok {
					t.Fatalf("grid-%d: the scan ended after %d of %d answers", n, i, len(delays))
				}
				now := time.Now()
				if d := now.Sub(last); pass == 0 || d < delays[i] {
					delays[i] = d
				}
				last = now
			}
		}
		worst := slices.Max(delays)
		slices.Sort(delays)
		median := delays[len(delays)/2]
		t.Logf("near2 on grid-%d: %d answers, single Next median %v, maximum %v (%.1f×)",
			n, len(delays), median, worst, float64(worst)/float64(median))
		if worst > 50*median {
			t.Errorf("near2 on grid-%d: the slowest Next took %v, more than 50× the median %v", n, worst, median)
		}
	}
}
