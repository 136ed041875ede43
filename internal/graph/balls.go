package graph

import (
	"math"
	"sync/atomic"
)

// BallTable holds the sorted balls of radius r around every vertex of a
// graph as one CSR pair: row v is Ball[Off[v]:Off[v+1]], N_r(v) ascending.
// D, when asked for, holds dist(v, w) beside every w. The arrays are of
// exact length and fit FromFlat.
type BallTable struct {
	Off  []int32
	Ball []int32
	D    []int8
}

// BallOptions are what the callers of SortedBalls differ in.
type BallOptions struct {
	// Dist asks for the distance column D.
	Dist bool
	// MaxCells, when positive, gives the build up once the table would hold
	// more cells — after O(MaxCells) work a shard. Whether it does is a
	// property of the graph and the radius alone.
	MaxCells int
	// Pool, when it has more than one worker, runs the build in shards of
	// consecutive vertices; nil builds inline. The table is the same for
	// every pool: a row is a function of its vertex, and the shards are
	// joined in vertex order.
	Pool Runner
}

// Runner is what a sharded build asks of a par.Pool.
type Runner interface {
	Workers() int
	ForEach(n int, task func(i int))
}

// SortedBalls builds the table of the r-balls of g, or reports ok = false
// when it exceeds o.MaxCells (or the 2³¹ cells the offsets can address).
// Every row is written once, where it stays: each shard appends its balls
// to one arena (AppendSortedBall), and the arenas are joined into arrays of
// exact length — the garbage of a build is about one copy of the table,
// whatever the number of vertices.
func SortedBalls(g *Graph, r int, o BallOptions) (t BallTable, ok bool) {
	n := g.N()
	if o.MaxCells <= 0 || o.MaxCells > math.MaxInt32 {
		o.MaxCells = math.MaxInt32
	}
	shards := make([]ballArena, 1)
	if o.Pool != nil && o.Pool.Workers() > 1 && n >= 1024 {
		shards = make([]ballArena, min(4*o.Pool.Workers(), n))
	}
	per := (n + len(shards) - 1) / len(shards)
	// A shard over the cap dooms the build; stop lets the others cut their
	// losses, which cannot change the outcome.
	var stop atomic.Bool
	shard := func(i int) {
		lo := min(i*per, n)
		shards[i] = ballArena{r: r, dist: o.Dist}
		if !shards[i].fill(g, lo, min(lo+per, n), o.MaxCells, &stop) {
			stop.Store(true)
		}
	}
	if len(shards) == 1 {
		shard(0)
	} else {
		o.Pool.ForEach(len(shards), shard)
	}
	total := 0
	for i := range shards {
		total += len(shards[i].ball)
	}
	if stop.Load() || total > o.MaxCells {
		return BallTable{}, false
	}
	t = BallTable{Off: make([]int32, 1, n+1), Ball: make([]int32, 0, total)}
	if o.Dist {
		t.D = make([]int8, 0, total)
	}
	for i := range shards {
		a := &shards[i]
		base := int32(len(t.Ball))
		for _, end := range a.ends {
			t.Off = append(t.Off, base+end)
		}
		t.Ball, t.D = append(t.Ball, a.ball...), append(t.D, a.d...)
	}
	return t, true
}

// SortedBallsOf returns the sorted r-ball of every vertex of vs, and with
// dist the distances from the vertex beside it: the rows a write replaces
// in a table SortedBalls built, as subslices of one arena.
func SortedBallsOf(g *Graph, r int, vs []V, dist bool) (balls [][]int32, ds [][]int8) {
	a := ballArena{r: r, dist: dist, bfs: BorrowBFS(g)}
	for _, v := range vs {
		a.add(v)
	}
	a.bfs.Release()
	balls = make([][]int32, len(vs))
	if dist {
		ds = make([][]int8, len(vs))
	}
	from := int32(0)
	for i, end := range a.ends {
		balls[i] = a.ball[from:end]
		if dist {
			ds[i] = a.d[from:end]
		}
		from = end
	}
	return balls, ds
}

// ballArena is a run of sorted balls under construction: row i is
// ball[ends[i−1]:ends[i]], d as long as ball when distances are kept.
type ballArena struct {
	r    int
	dist bool
	bfs  *BFS
	ball []int32
	d    []int8
	ends []int32
}

// add appends the row of v and returns its length.
func (a *ballArena) add(v V) int {
	from := len(a.ball)
	a.ball = a.bfs.AppendSortedBall(a.ball, v, a.r)
	if a.dist {
		for _, w := range a.ball[from:] {
			a.d = append(a.d, int8(a.bfs.Dist(int(w))))
		}
	}
	a.ends = append(a.ends, int32(len(a.ball)))
	return len(a.ball) - from
}

// fill appends the rows of vertices [lo, hi) and reports whether they stay
// within maxCells. The arena starts with room for every vertex and its
// neighbours; when it runs out it is reallocated, once as a rule, at what
// the rows so far predict for the range.
func (a *ballArena) fill(g *Graph, lo, hi, maxCells int, stop *atomic.Bool) bool {
	a.bfs = BorrowBFS(g)
	defer a.bfs.Release()
	m := hi - lo
	a.ends = make([]int32, 0, m)
	a.reserve(m + int(int64(m)*2*int64(g.M())/int64(max(g.N(), 1))))
	widest := 0
	for i := 0; i < m && !stop.Load(); i++ {
		if i > 0 && cap(a.ball)-len(a.ball) < widest {
			// Twice in a row only when the balls grow along the range: the
			// sixteenth on top is many rows, and a quarter more than there
			// was keeps the copying amortized when they do.
			predicted := int(min(int64(len(a.ball))*int64(m)/int64(i), int64(maxCells)))
			a.reserve(max(predicted+predicted/16+widest, cap(a.ball)+cap(a.ball)/4))
		}
		widest = max(widest, a.add(lo+i))
		if len(a.ball) > maxCells {
			return false
		}
	}
	return !stop.Load()
}

// reserve moves the arena into arrays of capacity c.
func (a *ballArena) reserve(c int) {
	a.ball = append(make([]int32, 0, c), a.ball...)
	if a.dist {
		a.d = append(make([]int8, 0, c), a.d...)
	}
}
