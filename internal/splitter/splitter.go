// Package splitter implements the (λ, r)-splitter game of Definition 4.5
// and Theorem 4.6: Connector picks a vertex c, Splitter answers with a
// vertex s ∈ N_r(c), and the game continues on G[N_r(c) \ {s}]; Splitter
// wins when the arena becomes empty. A class of graphs is nowhere dense iff
// Splitter wins in a number of rounds λ(r) independent of the graph.
//
// The paper assumes a per-class strategy oracle (Remark 4.7). We provide a
// provably optimal strategy for forests (remove the shallowest vertex of
// the ball, which strictly decreases the arena's tree height-structure) and
// a generic double-BFS ball-center heuristic that empirically wins in an
// n-independent number of rounds on the nowhere dense generator classes.
// Correctness of the structures built on top never depends on the strategy;
// only the measured recursion depth does (see DESIGN.md §3).
package splitter

import (
	"math/rand"

	"repro/internal/graph"
)

// Strategy is Splitter's move oracle: given the current arena and
// Connector's choice c, it returns a vertex of N_r^arena(c) to delete.
type Strategy interface {
	Answer(arena *graph.Graph, c graph.V, r int) graph.V
}

// Connector is the adversary: it picks the next center in the arena.
type Connector interface {
	Pick(arena *graph.Graph) graph.V
}

// BallCenter is the default Splitter strategy: it induces the ball
// N_r(c), locates an approximate center by a double BFS sweep (farthest
// vertex u from c, farthest vertex w from u, midpoint of a shortest u–w
// path), and returns it, breaking ties toward high degree. Its cost is
// linear in ‖N_r(c)‖ (up to sorting), as Remark 4.7 requires.
type BallCenter struct{}

// Answer implements Strategy.
func (BallCenter) Answer(arena *graph.Graph, c graph.V, r int) graph.V {
	bfs := graph.BorrowBFS(arena)
	ball := bfs.Ball(c, r)
	if len(ball) == 1 {
		bfs.Release()
		return c
	}
	vs := make([]graph.V, len(ball))
	for i, v := range ball {
		vs[i] = int(v)
	}
	bfs.Release()
	sub := graph.Induce(arena, vs)
	sb := graph.BorrowBFS(sub.G)
	defer sb.Release()
	lc := sub.Local(c)
	u, _ := sb.FarthestWithin(lc, 2*r)
	// BFS from u, record parents to walk back to the midpoint of the path
	// to the farthest vertex w.
	parent := make([]int, sub.G.N())
	for i := range parent {
		parent[i] = -1
	}
	order := sb.Ball(u, 2*r)
	for _, v := range order {
		for _, w := range sub.G.Neighbors(int(v)) {
			if parent[w] == -1 && int(w) != u && sb.Dist(int(w)) == sb.Dist(int(v))+1 {
				parent[w] = int(v)
			}
		}
	}
	w := int(order[len(order)-1])
	d := sb.Dist(w)
	mid := w
	for i := 0; i < d/2 && parent[mid] >= 0; i++ {
		mid = parent[mid]
	}
	// Hub short-circuit: if the ball has a dominating high-degree vertex,
	// deleting it collapses the arena faster than deleting the center.
	hub, hubDeg := -1, -1
	for v := 0; v < sub.G.N(); v++ {
		if d := sub.G.Degree(v); d > hubDeg {
			hub, hubDeg = v, d
		}
	}
	if hubDeg >= sub.G.N()/2 {
		return sub.Orig[hub]
	}
	return sub.Orig[mid]
}

// MaxDegree is a simple strategy deleting the highest-degree vertex of the
// ball. It is optimal for stars and other hub-dominated graphs.
type MaxDegree struct{}

// Answer implements Strategy.
func (MaxDegree) Answer(arena *graph.Graph, c graph.V, r int) graph.V {
	bfs := graph.BorrowBFS(arena)
	defer bfs.Release()
	best, bestDeg := c, -1
	for _, v := range bfs.Ball(c, r) {
		if d := arena.Degree(int(v)); d > bestDeg {
			best, bestDeg = int(v), d
		}
	}
	return best
}

// ForestDepth is the provably winning strategy for forests: with respect to
// a fixed rooting of the original forest it deletes the vertex of minimal
// root-depth in the ball. Every vertex of the ball lies below (or at) that
// vertex in its tree, so after deletion the ball splits into subtrees of
// strictly smaller height reachable within r, and the game ends in O(r)
// rounds. The strategy carries the original depths through arena renamings
// via the Depths slice indexed by original vertex.
type ForestDepth struct {
	Depths []int // depth of each original vertex in its rooted tree
	// OrigOf maps the arena's vertices to original vertices. The Game
	// maintains it; standalone users may leave it nil (identity).
	OrigOf []graph.V
}

// NewForestDepth roots every tree of the forest g at its smallest vertex
// and records depths.
func NewForestDepth(g *graph.Graph) *ForestDepth {
	depths := make([]int, g.N())
	bfs := graph.BorrowBFS(g)
	defer bfs.Release()
	seen := make([]bool, g.N())
	for root := 0; root < g.N(); root++ {
		if seen[root] {
			continue
		}
		for _, v := range bfs.Ball(root, g.N()) {
			seen[v] = true
			depths[v] = bfs.Dist(int(v))
		}
	}
	return &ForestDepth{Depths: depths}
}

// Answer implements Strategy.
func (f *ForestDepth) Answer(arena *graph.Graph, c graph.V, r int) graph.V {
	bfs := graph.BorrowBFS(arena)
	defer bfs.Release()
	orig := func(v graph.V) graph.V {
		if f.OrigOf == nil {
			return v
		}
		return f.OrigOf[v]
	}
	best, bestDepth := c, f.Depths[orig(c)]
	for _, v := range bfs.Ball(c, r) {
		if d := f.Depths[orig(int(v))]; d < bestDepth {
			best, bestDepth = int(v), d
		}
	}
	return best
}

// MaxDegreeConnector is the greedy adversary picking the densest center.
type MaxDegreeConnector struct{}

// Pick implements Connector.
func (MaxDegreeConnector) Pick(arena *graph.Graph) graph.V {
	best, bestDeg := 0, -1
	for v := 0; v < arena.N(); v++ {
		if d := arena.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// RandomConnector picks uniformly random centers.
type RandomConnector struct{ Rng *rand.Rand }

// Pick implements Connector.
func (c RandomConnector) Pick(arena *graph.Graph) graph.V {
	return c.Rng.Intn(arena.N())
}

// Result records the outcome of one play of the game.
type Result struct {
	Rounds      int  // rounds actually played
	SplitterWon bool // true if the arena emptied within MaxRounds
}

// Play runs the (maxRounds, r)-splitter game on g. OrigOf bookkeeping for
// ForestDepth strategies is maintained automatically.
func Play(g *graph.Graph, r int, s Strategy, conn Connector, maxRounds int) Result {
	arena := g
	origOf := make([]graph.V, g.N())
	for i := range origOf {
		origOf[i] = i
	}
	if fd, ok := s.(*ForestDepth); ok {
		fd.OrigOf = origOf
	}
	for round := 1; round <= maxRounds; round++ {
		if arena.N() == 0 {
			return Result{Rounds: round - 1, SplitterWon: true}
		}
		c := conn.Pick(arena)
		sv := s.Answer(arena, c, r)
		bfs := graph.BorrowBFS(arena)
		ball := bfs.Ball(c, r)
		next := make([]graph.V, 0, len(ball))
		for _, v := range ball {
			if int(v) != sv {
				next = append(next, int(v))
			}
		}
		bfs.Release()
		if len(next) == 0 {
			return Result{Rounds: round, SplitterWon: true}
		}
		sub := graph.Induce(arena, next)
		newOrig := make([]graph.V, sub.G.N())
		for i, v := range sub.Orig {
			newOrig[i] = origOf[v]
		}
		arena, origOf = sub.G, newOrig
		if fd, ok := s.(*ForestDepth); ok {
			fd.OrigOf = origOf
		}
	}
	return Result{Rounds: maxRounds, SplitterWon: false}
}

// Lambda estimates λ(r) for g: the maximum number of rounds Splitter (with
// strategy s) needs against the max-degree adversary and several random
// adversaries. It returns maxRounds if Splitter failed to win.
func Lambda(g *graph.Graph, r int, s Strategy, maxRounds int) int {
	worst := 0
	adversaries := []Connector{
		MaxDegreeConnector{},
		RandomConnector{Rng: rand.New(rand.NewSource(1))},
		RandomConnector{Rng: rand.New(rand.NewSource(2))},
		RandomConnector{Rng: rand.New(rand.NewSource(3))},
	}
	for _, conn := range adversaries {
		res := Play(g, r, s, conn, maxRounds)
		if !res.SplitterWon {
			return maxRounds
		}
		if res.Rounds > worst {
			worst = res.Rounds
		}
	}
	return worst
}
