package graph_test

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// ballFixtures are the three shapes a ball takes: the same everywhere but at
// the border (grid), random (bdeg), and the whole graph from every leaf at
// radius 2 (star).
func ballFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid": gen.Generate(gen.Grid, 400, gen.Options{Seed: 1}),
		"bdeg": gen.Generate(gen.BoundedDegree, 500, gen.Options{Seed: 2, Degree: 4}),
		"star": gen.Generate(gen.Star, 60, gen.Options{Seed: 3}),
	}
}

// sortedBall is the reference: Ball, cloned and sorted, with the distances
// read before the next search.
func sortedBall(bfs *graph.BFS, v graph.V, r int) (ball []int32, d []int8) {
	ball = slices.Clone(bfs.Ball(v, r))
	slices.Sort(ball)
	for _, w := range ball {
		d = append(d, int8(bfs.Dist(int(w))))
	}
	return ball, d
}

// TestAppendSortedBall: the appended tail is Ball sorted — at radius 0, at
// small radii and past the diameter — whatever dst holds and whether or not
// it has room; a dst with room is extended in place, one without is moved
// once; Dist still answers for the ball afterwards.
func TestAppendSortedBall(t *testing.T) {
	for name, g := range ballFixtures() {
		ref, bfs := graph.NewBFS(g), graph.NewBFS(g)
		for _, r := range []int{0, 1, 2, 3, g.N()} {
			for v := 0; v < g.N(); v += 7 {
				want, wantD := sortedBall(ref, v, r)
				prefix := []int32{-7, -8}

				tight := slices.Clip(slices.Clone(prefix))
				got := bfs.AppendSortedBall(tight, v, r)
				if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
					t.Fatalf("%s r=%d v=%d: appended to a full dst %v, want %v after %v", name, r, v, got, want, prefix)
				}
				for i, w := range got[2:] {
					if d := bfs.Dist(int(w)); d != int(wantD[i]) {
						t.Fatalf("%s r=%d v=%d: Dist(%d) = %d after the append, want %d", name, r, v, w, d, wantD[i])
					}
				}
				if !slices.Equal(tight, prefix) {
					t.Fatalf("%s r=%d v=%d: the full dst was written to: %v", name, r, v, tight)
				}

				roomy := make([]int32, 2, 2+len(want)+5)
				copy(roomy, prefix)
				got = bfs.AppendSortedBall(roomy, v, r)
				if !slices.Equal(got[2:], want) || &got[0] != &roomy[0] {
					t.Fatalf("%s r=%d v=%d: a dst with room was not extended in place (%v, want tail %v)", name, r, v, got, want)
				}

				if got = bfs.AppendSortedBall(nil, v, r); !slices.Equal(got, want) || cap(got) != len(want) {
					t.Fatalf("%s r=%d v=%d: from nil got %v (cap %d), want %v at its exact size", name, r, v, got, cap(got), want)
				}
			}
		}
	}
}

// backwards is a three-worker pool that runs its tasks last to first.
type backwards struct{}

func (backwards) Workers() int { return 3 }
func (backwards) ForEach(n int, task func(int)) {
	for i := n - 1; i >= 0; i-- {
		task(i)
	}
}

// TestSortedBalls: the table is the reference rows laid end to end, with
// their distances when asked for, in arrays of exact length, whether built
// inline or in shards handed out in any order; it is given up exactly when
// it has more cells than the cap; and SortedBallsOf returns its rows.
func TestSortedBalls(t *testing.T) {
	fixtures := ballFixtures()
	fixtures["grid-sharded"] = gen.Generate(gen.Grid, 1600, gen.Options{Seed: 4}) // ≥ 1024 vertices: shards
	for name, g := range fixtures {
		bfs := graph.NewBFS(g)
		for _, r := range []int{1, 2, 3} {
			want := graph.BallTable{Off: []int32{0}}
			for v := 0; v < g.N(); v++ {
				ball, d := sortedBall(bfs, v, r)
				want.Ball, want.D = append(want.Ball, ball...), append(want.D, d...)
				want.Off = append(want.Off, int32(len(want.Ball)))
			}
			cells := len(want.Ball)
			pool := par.NewPool(3)
			for how, o := range map[string]graph.BallOptions{
				"inline":    {Dist: true},
				"no dist":   {},
				"capped":    {Dist: true, MaxCells: cells},
				"backwards": {Dist: true, Pool: backwards{}},
				"pool":      {Dist: true, Pool: pool},
			} {
				got, ok := graph.SortedBalls(g, r, o)
				if !ok {
					t.Fatalf("%s r=%d %s: gave up on %d cells", name, r, how, cells)
				}
				wantD := want.D
				if !o.Dist {
					wantD = nil
				}
				if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Ball, want.Ball) || !slices.Equal(got.D, wantD) {
					t.Fatalf("%s r=%d %s: table differs from the rows laid end to end", name, r, how)
				}
				if cap(got.Off) != len(got.Off) || cap(got.Ball) != cells || cap(got.D) != len(got.D) {
					t.Fatalf("%s r=%d %s: arrays of capacity %d, %d, %d for %d rows and %d cells",
						name, r, how, cap(got.Off), cap(got.Ball), cap(got.D), g.N(), cells)
				}
			}
			for how, o := range map[string]graph.BallOptions{
				"inline": {MaxCells: cells - 1},
				"shards": {MaxCells: cells - 1, Pool: backwards{}},
				"early":  {MaxCells: g.N(), Pool: pool},
			} {
				if _, ok := graph.SortedBalls(g, r, o); ok {
					t.Fatalf("%s r=%d %s: built %d cells under a cap of %d", name, r, how, cells, o.MaxCells)
				}
			}

			vs := []graph.V{0, 3, g.N() / 2, g.N() - 1}
			balls, ds := graph.SortedBallsOf(g, r, vs, true)
			for i, v := range vs {
				lo, hi := want.Off[v], want.Off[v+1]
				if !slices.Equal(balls[i], want.Ball[lo:hi]) || !slices.Equal(ds[i], want.D[lo:hi]) {
					t.Fatalf("%s r=%d: SortedBallsOf row of %d is %v %v, the table's %v %v", name, r, v, balls[i], ds[i], want.Ball[lo:hi], want.D[lo:hi])
				}
			}
			if balls, ds = graph.SortedBallsOf(g, r, vs, false); len(balls) != len(vs) || ds != nil {
				t.Fatalf("%s r=%d: SortedBallsOf without distances returned %d rows and %v", name, r, len(balls), ds)
			}
		}
	}
}
