package core

import (
	"sync"
	"testing"

	"repro/internal/fo"
	"repro/internal/gen"
	"repro/internal/graph"
)

// foldCounts is Stats' answering counters at one fold point.
type foldCounts struct{ Candidates, DeadEnds int }

func foldCountsOf(e *Engine) foldCounts {
	st := e.Stats()
	return foldCounts{st.Candidates, st.DeadEnds}
}

// TestStatsCountsFold pins Candidates and DeadEnds at the points where the
// clause cursors fold what they counted into the engine — exhaustion, Seek,
// the end of a NextGeq — to the numbers the search produced when it bumped
// the engine's counters once per placed value. A fold point that loses or
// repeats a count moves them.
func TestStatsCountsFold(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		vars  []fo.Var
		class gen.Class
		n     int
		build func(*graph.Graph, *LocalQuery, Options) (*Engine, error)
		// Counters after Enumerate to exhaustion; after IteratorFrom, 300
		// Next and a Seek; after 50 NextGeq. Each on a fresh engine.
		exhaust, seek, nextGeq foldCounts
	}{
		{"far2/grid/cover", "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}, gen.Grid, 400, Preprocess,
			foldCounts{42697, 400}, foldCounts{307, 3}, foldCounts{100, 0}},
		{"far2/bdeg/balls", "dist(x,y) > 2 & C0(y)", []fo.Var{"x", "y"}, gen.BoundedDegree, 400, PreprocessBalls,
			foldCounts{46694, 400}, foldCounts{306, 2}, foldCounts{100, 0}},
		{"far3/grid/cover", "dist(x,z) > 2 & dist(y,z) > 2 & C0(z)", []fo.Var{"x", "y", "z"}, gen.Grid, 100, Preprocess,
			foldCounts{208148, 10200}, foldCounts{326, 14}, foldCounts{326, 26}},
		{"merge/kinggrid/balls", "dist(x,y) <= 1 & C1(x) | dist(x,y) > 2 & C0(x) | dist(x,y) > 2 & C1(y)", []fo.Var{"x", "y"}, gen.KingGrid, 100, PreprocessBalls,
			foldCounts{5070, 158}, foldCounts{385, 10}, foldCounts{306, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Compile(fo.MustParse(tc.src), tc.vars, CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			g := gen.Generate(tc.class, tc.n, gen.Options{Seed: 3, Colors: 2, ColorProb: 0.3})
			fresh := func() *Engine {
				e, err := tc.build(g, q, Options{Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if c := foldCountsOf(e); c != (foldCounts{}) {
					t.Fatalf("a fresh engine counts %+v", c)
				}
				return e
			}
			k := len(tc.vars)
			tuple := func(i int) []graph.V {
				a := make([]graph.V, k)
				for j := range a {
					a[j] = (i*37 + j*91 + i*j*13) % g.N()
				}
				return a
			}

			e := fresh()
			e.Enumerate(func([]graph.V) bool { return true })
			if got := foldCountsOf(e); got != tc.exhaust {
				t.Errorf("after exhaustion: %+v, want %+v", got, tc.exhaust)
			}

			e = fresh()
			it := e.IteratorFrom(tuple(1))
			for i := 0; i < 300; i++ {
				it.Next()
			}
			it.Seek(tuple(2))
			if got := foldCountsOf(e); got != tc.seek {
				t.Errorf("after 300 Next and a Seek: %+v, want %+v", got, tc.seek)
			}

			e = fresh()
			for i := 0; i < 50; i++ {
				e.NextGeq(tuple(i))
			}
			if got := foldCountsOf(e); got != tc.nextGeq {
				t.Errorf("after 50 NextGeq: %+v, want %+v", got, tc.nextGeq)
			}

			// Eight iterators over one engine, each to exhaustion: every one
			// folds at its end, so the engine holds eight sequential totals.
			e = fresh()
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for it := e.Iterator(); it.HasNext(); {
						it.Next()
					}
				}()
			}
			wg.Wait()
			want := foldCounts{workers * tc.exhaust.Candidates, workers * tc.exhaust.DeadEnds}
			if got := foldCountsOf(e); got != want {
				t.Errorf("after %d concurrent iterators: %+v, want %+v", workers, got, want)
			}
		})
	}
}
