// Benchmarks: the testing.B targets of the experiments in EXPERIMENTS.md,
// which names the row behind each number it records and reads it against
// the paper's claims. With the paper-claim tests they are the one harness:
// go test -run XXX -bench . reproduces every table.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/naive"
	"repro/internal/skip"
	"repro/internal/splitter"
	"repro/internal/store"
)

const (
	benchQuerySrc = "dist(x,y) > 2 & C0(y)"                 // the paper's Example 2
	far3Src       = "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)" // bench's ternary-lib query
)

func benchGraph(class gen.Class, n int) *graph.Graph {
	return gen.Generate(class, n, gen.Options{Seed: 7, Colors: 1, ColorProb: 0.05})
}

// --- E1: Storing Theorem ---------------------------------------------------

func BenchmarkStoringTheoremInsert(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := store.New(n, 2, 0.25)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Set([]int{rng.Intn(n), rng.Intn(n)}, int64(i))
			}
		})
	}
}

func BenchmarkStoringTheoremLookup(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := store.New(n, 2, 0.25)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				s.Set([]int{rng.Intn(n), rng.Intn(n)}, int64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Get([]int{i % n, (i * 7) % n})
			}
		})
	}
}

func BenchmarkStoringTheoremSuccessor(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := store.New(n, 2, 0.25)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				s.Set([]int{rng.Intn(n), rng.Intn(n)}, int64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextGeq([]int{i % n, (i * 7) % n})
			}
		})
	}
}

func BenchmarkStoringTheoremBaselineGoMap(b *testing.B) {
	n := 1 << 16
	m := map[[2]int]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		m[[2]int{rng.Intn(n), rng.Intn(n)}] = int64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[[2]int{i % n, (i * 7) % n}] // note: no successor operation exists
	}
}

// --- E2: neighborhood covers -----------------------------------------------

// BenchmarkCoverConstruction times cover.Compute and reports the cover's
// size: cells (Σ|X|) and degree δ(𝒳). The r=2 rows are the distance
// index's radius without kernels; the r=4/p=2 rows are the engine cover of a
// far2 query, on the classes where the choice of centers shows.
func BenchmarkCoverConstruction(b *testing.B) {
	run := func(class gen.Class, n, r, p int) {
		b.Run(fmt.Sprintf("%s/n=%d/r=%d", class, n, r), func(b *testing.B) {
			g := benchGraph(class, n)
			var c *cover.Cover
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c = cover.Compute(g, r, p)
			}
			b.ReportMetric(float64(c.SumBagSizes()), "cells")
			b.ReportMetric(float64(c.Degree()), "degree")
		})
	}
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.BoundedDegree} {
		for _, n := range []int{4000, 16000} {
			run(class, n, 2, -1)
		}
	}
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.Outerplanar, gen.PartialKTree, gen.SparseRandom} {
		run(class, 32000, 4, 2)
	}
}

// --- E3: distance index ----------------------------------------------------

func BenchmarkDistIndexBuild(b *testing.B) {
	for _, n := range []int{4000, 16000, 64000} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			g := benchGraph(gen.Grid, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist.New(g, 2, dist.Options{})
			}
		})
	}
}

func BenchmarkDistIndexQuery(b *testing.B) {
	for _, n := range []int{4000, 64000} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			g := benchGraph(gen.Grid, n)
			ix := dist.New(g, 2, dist.Options{})
			rng := rand.New(rand.NewSource(2))
			pairs := make([][2]int, 4096)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ix.Within(p[0], p[1], 2)
			}
		})
	}
}

func BenchmarkDistBFSBaseline(b *testing.B) {
	for _, n := range []int{4000, 64000} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			g := benchGraph(gen.Grid, n)
			bfs := graph.NewBFS(g)
			rng := rand.New(rand.NewSource(2))
			pairs := make([][2]int, 4096)
			for i := range pairs {
				pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				bfs.Distance(p[0], p[1], 2)
			}
		})
	}
}

// --- E4: splitter game -----------------------------------------------------

func BenchmarkSplitterGame(b *testing.B) {
	for _, class := range []gen.Class{gen.Grid, gen.RandomTree, gen.Star} {
		b.Run(string(class), func(b *testing.B) {
			g := benchGraph(class, 4000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				splitter.Play(g, 2, splitter.BallCenter{}, splitter.MaxDegreeConnector{}, 40)
			}
		})
	}
}

// --- E5: engine preprocessing and next-solution -----------------------------

// gated generates what bench/run.go does at --seed 1.
func gated(class gen.Class, n int) *graph.Graph {
	return gen.Generate(class, n, gen.Options{Seed: 1, Colors: 2, Degree: 4})
}

func BenchmarkEnginePreprocess(b *testing.B) {
	// With the grid/n=32000 row, the last two rows are the three builds the
	// gated workloads time.
	for _, row := range []struct {
		name  string
		src   string
		vars  []fo.Var
		g     func() *graph.Graph
		build func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error)
	}{
		{"grid/n=2000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return benchGraph(gen.Grid, 2000) }, core.Preprocess},
		{"grid/n=8000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return benchGraph(gen.Grid, 8000) }, core.Preprocess},
		{"grid/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return benchGraph(gen.Grid, 32000) }, core.Preprocess},
		{"balls/bdeg/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return gated(gen.BoundedDegree, 32000) }, core.PreprocessBalls},
		{"far3/grid/n=4000", far3Src, []fo.Var{"x", "y", "z"}, func() *graph.Graph { return gated(gen.Grid, 4000) }, core.Preprocess},
		// ROADMAP item 4(a): dist recurses on the hub of a partial k-tree.
		{"ktree/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return gated(gen.PartialKTree, 32000) },
			func(g *graph.Graph, lq *core.LocalQuery, o core.Options) (*core.Engine, error) {
				o.Parallelism = 1
				return core.Preprocess(g, lq, o)
			}},
	} {
		b.Run(row.name, func(b *testing.B) {
			g := row.g()
			lq, err := core.Compile(fo.MustParse(row.src), row.vars, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := row.build(g, lq, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate is graph generation — the edge list and Builder.Build —
// for the two graphs of each gated workload.
func BenchmarkGenerate(b *testing.B) {
	for _, row := range []struct {
		class gen.Class
		n     int
	}{
		{gen.Grid, 32000}, {gen.Grid, 8000},
		{gen.BoundedDegree, 32000}, {gen.BoundedDegree, 8000},
		{gen.Grid, 4000}, {gen.Grid, 1000},
	} {
		b.Run(fmt.Sprintf("%s/n=%d", row.class, row.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gated(row.class, row.n)
			}
		})
	}
}

// --- E21: the snapshot tier, in process --------------------------------------

// snapshotRows are the three indexes the gated workloads restore
// (first_answer_restore_ms of scan-served and mutate-mix, ternary-lib,
// lowdeg-lib), built on the graphs bench generates at seed 1, each with its
// snapshot.
func snapshotRows(b *testing.B, run func(b *testing.B, ix *repro.Index, file []byte)) {
	for _, row := range []struct {
		name  string
		class gen.Class
		n     int
		src   string
		vars  []string
		kind  repro.EngineKind
	}{
		{"far2/grid/n=32000", gen.Grid, 32000, benchQuerySrc, []string{"x", "y"}, repro.EngineCore},
		{"far3/grid/n=4000", gen.Grid, 4000, far3Src, []string{"x", "y", "z"}, repro.EngineCore},
		{"balls/bdeg/n=32000", gen.BoundedDegree, 32000, benchQuerySrc, []string{"x", "y"}, repro.EngineLowDeg},
	} {
		b.Run(row.name, func(b *testing.B) {
			ix, err := repro.Build(context.Background(), gated(row.class, row.n),
				repro.MustParseQuery(row.src, row.vars...), repro.WithEngine(row.kind))
			if err != nil {
				b.Fatal(err)
			}
			var file bytes.Buffer
			if err := ix.WriteSnapshot(&file); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(file.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			run(b, ix, file.Bytes())
		})
	}
}

// BenchmarkSnapshotRestore is one ReadIndexSnapshot of the file: checksum,
// decode, revalidation and the derivations the format does not store.
func BenchmarkSnapshotRestore(b *testing.B) {
	snapshotRows(b, func(b *testing.B, _ *repro.Index, file []byte) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.ReadIndexSnapshot(file); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotWrite is one WriteSnapshot into a buffer that is already
// as large as the file.
func BenchmarkSnapshotWrite(b *testing.B) {
	snapshotRows(b, func(b *testing.B, ix *repro.Index, file []byte) {
		out := bytes.NewBuffer(make([]byte, 0, len(file)))
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := ix.WriteSnapshot(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyEdits is one write of bench's edit mix — a colour toggle
// and an edge toggle at random vertices — patched into far2's index:
// graph.Patch and ApplyEditsTo, each write on the version the last one made.
// B/op is what a version costs that the one before it does not share.
func BenchmarkApplyEdits(b *testing.B) {
	for _, row := range []struct {
		name  string
		class gen.Class
		build func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error)
	}{
		{"cover/grid", gen.Grid, core.Preprocess},
		{"balls/bdeg", gen.BoundedDegree, core.PreprocessBalls},
	} {
		for _, n := range []int{32000, 128000} {
			b.Run(fmt.Sprintf("%s/n=%d", row.name, n), func(b *testing.B) {
				g := benchGraph(row.class, n)
				lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				e, err := row.build(g, lq, core.Options{Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(9))
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, u := rng.Intn(g.N()), rng.Intn(g.N())
					for g.Degree(u) == 0 {
						u = rng.Intn(g.N())
					}
					w := int(g.Neighbors(u)[0])
					cur := e.Graph()
					colour := graph.Edit{Op: graph.AddColor, U: v}
					if cur.HasColor(v, 0) {
						colour.Op = graph.RemoveColor
					}
					edge := graph.Edit{Op: graph.AddEdge, U: u, V: w}
					if cur.HasEdge(u, w) {
						edge.Op = graph.RemoveEdge
					}
					if e, err = e.ApplyEdits(ctx, []graph.Edit{colour, edge}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNextSolution is Theorem 2.3's NextGeq at random tuples: the
// grid rows on the paper's far2, and the two gated in-process seeks —
// far2 on bdeg under the ball locality (lowdeg-lib) and far3 on grid-4k
// (ternary-lib) — whose first step finds the first starter ≥ a value.
// The star rows are far2 on the cover locality where Theorem 2.3 does not
// hold yet: a probe costs time that grows faster than n (ROADMAP items 2
// and 4).
func BenchmarkNextSolution(b *testing.B) {
	for _, row := range []struct {
		name  string
		src   string
		vars  []fo.Var
		g     func() *graph.Graph
		build func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error)
	}{
		{"grid/n=2000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return benchGraph(gen.Grid, 2000) }, core.Preprocess},
		{"grid/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return benchGraph(gen.Grid, 32000) }, core.Preprocess},
		{"balls/bdeg/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return gated(gen.BoundedDegree, 32000) }, core.PreprocessBalls},
		{"far3/grid/n=4000", far3Src, []fo.Var{"x", "y", "z"}, func() *graph.Graph { return gated(gen.Grid, 4000) }, core.Preprocess},
		{"star/n=2000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return gated(gen.Star, 2000) }, core.Preprocess},
		{"star/n=8000", benchQuerySrc, []fo.Var{"x", "y"}, func() *graph.Graph { return gated(gen.Star, 8000) }, core.Preprocess},
	} {
		b.Run(row.name, func(b *testing.B) {
			g := row.g()
			lq, err := core.Compile(fo.MustParse(row.src), row.vars, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			e, err := row.build(g, lq, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			tuples := make([][]int, 4096)
			for i := range tuples {
				tuples[i] = make([]int, len(row.vars))
				for j := range tuples[i] {
					tuples[i][j] = rng.Intn(g.N())
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.NextGeq(tuples[i%len(tuples)])
			}
		})
	}
}

// --- E6: enumeration delay ---------------------------------------------------

func BenchmarkEnumerationDelay(b *testing.B) {
	for _, row := range []struct {
		name  string
		src   string
		vars  []fo.Var
		class gen.Class
		n     int
		build func(*graph.Graph, *core.LocalQuery, core.Options) (*core.Engine, error)
	}{
		{"grid/n=2000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Grid, 2000, core.Preprocess},
		{"grid/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Grid, 32000, core.Preprocess},
		{"far3/grid/n=4000", far3Src, []fo.Var{"x", "y", "z"}, gen.Grid, 4000, core.Preprocess},
		{"balls/bdeg/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.BoundedDegree, 32000, core.PreprocessBalls},
		// Off the grid: far2 on sparse classes of unbounded degree (cover)
		// and on bounded-degree ones (balls).
		{"rtree/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.RandomTree, 32000, core.Preprocess},
		{"sparserandom/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.SparseRandom, 32000, core.Preprocess},
		{"outerplanar/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Outerplanar, 32000, core.Preprocess},
		{"ktree/n=8000", benchQuerySrc, []fo.Var{"x", "y"}, gen.PartialKTree, 8000, core.Preprocess},
		{"balls/grid/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Grid, 32000, core.PreprocessBalls},
		{"balls/path/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Path, 32000, core.PreprocessBalls},
		{"balls/btree/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.BalancedTree, 32000, core.PreprocessBalls},
		{"balls/kinggrid/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.KingGrid, 32000, core.PreprocessBalls},
		{"balls/caterpillar/n=32000", benchQuerySrc, []fo.Var{"x", "y"}, gen.Caterpillar, 32000, core.PreprocessBalls},
	} {
		b.Run(row.name, func(b *testing.B) {
			lq, err := core.Compile(fo.MustParse(row.src), row.vars, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			e, err := row.build(benchGraph(row.class, row.n), lq, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			before := e.Stats().Candidates
			b.ResetTimer()
			produced := 0
			for produced < b.N {
				start := produced
				e.Enumerate(func([]int) bool {
					produced++
					return produced < b.N
				})
				if produced == start {
					break // result set exhausted; restart
				}
			}
			b.StopTimer()
			// ns/op is ns per answer; the engine's own count of the values it
			// tried per answer is the constant behind it.
			b.ReportMetric(float64(e.Stats().Candidates-before)/float64(produced), "candidates/answer")
		})
	}
}

func BenchmarkNaiveEnumerationDelay(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			g := benchGraph(gen.Grid, n)
			lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ne := naive.NewEnumerator(g, lq)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ne.Next(); !ok {
					b.StopTimer()
					ne = naive.NewEnumerator(g, lq)
					b.StartTimer()
				}
			}
		})
	}
}

// --- E7: testing --------------------------------------------------------------

// testingRows runs one E7 benchmark on two grids and two queries: the
// paper's far2, whose direct evaluation is one truncated BFS, and one with
// a guarded quantifier, whose direct evaluation loops z over the domain
// (on the two-colour gated graphs, as it reads C1).
func testingRows(b *testing.B, run func(b *testing.B, g *graph.Graph, phi fo.Formula, tuples [][]int)) {
	for _, row := range []struct {
		name, src string
		graph     func(gen.Class, int) *graph.Graph
	}{
		{"grid", benchQuerySrc, benchGraph},
		{"quantified/grid", "dist(x,y) > 2 & C0(y) & ~(exists z (dist(y,z) <= 2 & C1(z)))", gated},
	} {
		for _, n := range []int{2000, 32000} {
			b.Run(fmt.Sprintf("%s/n=%d", row.name, n), func(b *testing.B) {
				g := row.graph(gen.Grid, n)
				rng := rand.New(rand.NewSource(9))
				tuples := make([][]int, 4096)
				for i := range tuples {
					tuples[i] = []int{rng.Intn(g.N()), rng.Intn(g.N())}
				}
				run(b, g, fo.MustParse(row.src), tuples)
			})
		}
	}
}

func BenchmarkTesting(b *testing.B) {
	testingRows(b, func(b *testing.B, g *graph.Graph, phi fo.Formula, tuples [][]int) {
		lq, err := core.Compile(phi, []fo.Var{"x", "y"}, core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Preprocess(g, lq, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Test(tuples[i%len(tuples)])
		}
	})
}

func BenchmarkTestingNaiveBaseline(b *testing.B) {
	testingRows(b, func(b *testing.B, g *graph.Graph, phi fo.Formula, tuples [][]int) {
		ev := fo.NewEvaluator(g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.EvalTuple(phi, []fo.Var{"x", "y"}, tuples[i%len(tuples)])
		}
	})
}

// --- E8: first-K crossover ----------------------------------------------------

func BenchmarkFirstK(b *testing.B) {
	for _, K := range []int{1, 100, 10000} {
		b.Run(fmt.Sprintf("index/K=%d", K), func(b *testing.B) {
			g := benchGraph(gen.Grid, 8000)
			lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := core.Preprocess(g, lq, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				e.Enumerate(func([]int) bool { got++; return got < K })
			}
		})
		b.Run(fmt.Sprintf("naive/K=%d", K), func(b *testing.B) {
			g := benchGraph(gen.Grid, 8000)
			lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ne := naive.NewEnumerator(g, lq)
				for got := 0; got < K; got++ {
					if _, ok := ne.Next(); !ok {
						break
					}
				}
			}
		})
	}
}

// --- E10: adjacency-graph encoding ---------------------------------------------

func BenchmarkAdjacencyEncoding(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := repro.NewDatabase(n)
			db.AddRelation("Cites", 2)
			db.AddRelation("Old", 1)
			rng := rand.New(rand.NewSource(11))
			for p := 1; p < n; p++ {
				db.Insert("Cites", p, rng.Intn(p))
			}
			for p := 0; p < n/10; p++ {
				db.Insert("Old", p)
			}
			q := repro.MustParseQuery("Cites(x,y) & Old(y)", "x", "y")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := repro.BuildDatabaseIndex(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14: parallel preprocessing -------------------------------------------------
//
// The workers=1 and workers=4 sub-runs build identical structures (see the
// differential tests); the ratio of their wall times is the pipeline
// speedup. The cover has no parallel path (EXPERIMENTS.md E14).

func BenchmarkDistIndexBuildParallel(b *testing.B) {
	for _, n := range []int{16000, 64000} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("grid/n=%d/workers=%d", n, workers), func(b *testing.B) {
				g := benchGraph(gen.Grid, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dist.New(g, 2, dist.Options{Workers: workers})
				}
			})
		}
	}
}

func BenchmarkEnginePreprocessParallel(b *testing.B) {
	for _, n := range []int{8000, 32000} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("grid/n=%d/workers=%d", n, workers), func(b *testing.B) {
				g := benchGraph(gen.Grid, n)
				lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Preprocess(g, lq, core.Options{Parallelism: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E11: skip pointers ----------------------------------------------------------

// The k = 2 rows keep the names they have always had; the k = 1 row beside
// each is the same list at the set size a second position asks (far2's y,
// far3's "every vertex"), so that what a unit of k costs is on record. The
// grid rows build over a radius-2 cover; the rtree and sparserandom rows
// take the engine's parameters — the gated workloads' graph, cover radius 4
// with 2-kernels, L = C0 — off the grid, where the cover degree δ, and with
// it the family size δ^k of Claim 5.10, is larger.
func BenchmarkSkipPointersBuild(b *testing.B) {
	for _, row := range []struct {
		class gen.Class
		n, r  int
		graph func(gen.Class, int) *graph.Graph
	}{{gen.Grid, 4000, 2, benchGraph}, {gen.Grid, 16000, 2, benchGraph}, {gen.RandomTree, 8000, 4, gated}, {gen.SparseRandom, 4000, 4, gated}} {
		for _, k := range []int{2, 1} {
			name := fmt.Sprintf("%s/n=%d", row.class, row.n)
			if k != 2 {
				name += fmt.Sprintf("/k=%d", k)
			}
			b.Run(name, func(b *testing.B) {
				g := row.graph(row.class, row.n)
				cov := cover.Compute(g, row.r, 2)
				var L []graph.V
				for v := 0; v < g.N(); v++ {
					if g.HasColor(v, 0) {
						L = append(L, v)
					}
				}
				b.ResetTimer()
				var p *skip.Pointers
				for i := 0; i < b.N; i++ {
					p = skip.New(g, cov, k, L)
				}
				b.ReportMetric(float64(p.Size()), "pointers")
				b.ReportMetric(float64(p.Largest()), "largest")
			})
		}
	}
}

// BenchmarkSkipPointersQuery is Lemma 5.8's SKIP at random (b, S). On the
// star one bag's kernel is the whole graph, the case the lemma exists for.
func BenchmarkSkipPointersQuery(b *testing.B) {
	for _, row := range []struct {
		class gen.Class
		n     int
	}{{gen.Grid, 4000}, {gen.Grid, 64000}, {gen.Star, 1000}, {gen.Star, 64000}} {
		b.Run(fmt.Sprintf("%s/n=%d", row.class, row.n), func(b *testing.B) {
			g := benchGraph(row.class, row.n)
			cov := cover.Compute(g, 2, 2)
			var L []graph.V
			for v := 0; v < g.N(); v++ {
				if g.HasColor(v, 0) {
					L = append(L, v)
				}
			}
			sp := skip.New(g, cov, 2, L)
			rng := rand.New(rand.NewSource(5))
			type probe struct {
				b int
				S []int
			}
			probes := make([]probe, 4096)
			for i := range probes {
				probes[i] = probe{b: rng.Intn(g.N()),
					S: []int{cov.Assign(rng.Intn(g.N())), cov.Assign(rng.Intn(g.N()))}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probes[i%len(probes)]
				sp.Query(p.b, p.S)
			}
		})
	}
}
