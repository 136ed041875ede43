// Ablation benchmarks for the design choices documented in DESIGN.md §3:
// the Storing-Theorem trie parameter ε, the distance index's bounded-ball
// fast path vs the pure splitter recursion, and FastCount vs enumeration.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/splitter"
	"repro/internal/store"
)

// BenchmarkAblationStoreEpsilon sweeps the trie parameter ε of Theorem 3.1:
// larger ε means wider, shallower tries (faster lookups, more space).
func BenchmarkAblationStoreEpsilon(b *testing.B) {
	n := 1 << 16
	for _, eps := range []float64{0.125, 0.25, 0.5} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			s := store.New(n, 2, eps)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				s.Set([]int{rng.Intn(n), rng.Intn(n)}, int64(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextGeq([]int{i % n, (i * 7) % n})
			}
			// After the loop: ResetTimer drops the metrics reported so far.
			b.ReportMetric(float64(s.Registers())/float64(s.Len()), "regs/entry")
		})
	}
}

// BenchmarkAblationDistBallTable compares the distance index with and
// without the bounded-ball fast path on a grid (where the fast path
// replaces the whole recursion with one table).
func BenchmarkAblationDistBallTable(b *testing.B) {
	g := benchGraph(gen.Grid, 16000)
	for _, disable := range []bool{false, true} {
		name := "fastpath"
		if disable {
			name = "recursion"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.New(g, 2, dist.Options{DisableBallTable: disable})
			}
		})
	}
}

// BenchmarkAblationDistStrategy compares Splitter strategies on a
// hub-dominated graph, where the recursion is actually exercised.
func BenchmarkAblationDistStrategy(b *testing.B) {
	g := benchGraph(gen.RandomTree, 16000)
	strategies := map[string]splitter.Strategy{
		"ballcenter": splitter.BallCenter{},
		"maxdegree":  splitter.MaxDegree{},
		"forest":     splitter.NewForestDepth(g),
	}
	for name, strat := range strategies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ix := dist.New(g, 2, dist.Options{DisableBallTable: true, Strategy: strat})
				if ix.Stats().MaxDepth == 0 {
					b.Fatal("recursion not exercised")
				}
			}
		})
	}
}

// BenchmarkAblationFastCount compares pseudo-linear counting with counting
// by enumeration on the Example-2 query (whose answer set is Θ(n·|blue|)).
func BenchmarkAblationFastCount(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		g := benchGraph(gen.Grid, n)
		lq, err := core.Compile(fo.MustParse(benchQuerySrc), []fo.Var{"x", "y"}, core.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := core.Preprocess(g, lq, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fast/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := e.FastCount(); !ok {
					b.Fatal("unsupported")
				}
			}
		})
		b.Run(fmt.Sprintf("enumerate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Count()
			}
		})
	}
}
