// Package cover implements (r,s)-neighborhood covers (Definition 4.3 and
// Theorem 4.4 of the paper) and bag kernels (Definition 5.6, Lemma 5.7).
//
// A cover is a collection of bags X ⊆ V such that every r-ball N_r(a) is
// contained in some bag, and every bag is contained in some s-ball
// N_s(c_X). We compute (r,2r)-covers greedily: scanning vertices in order,
// each still-uncovered vertex a contributes the bag N_{2r}(a) and covers
// every vertex of N_r(a). For every vertex b covered by center a we then
// have N_r(b) ⊆ N_{2r}(a), so the result is a valid (r,2r)-cover; its
// degree is measured rather than proven (Theorem 4.4's constructive bound
// relies on non-constructive class parameters — see DESIGN.md §3).
//
// Bag and kernel membership are served by per-vertex inverted lists
// (memberOf, kernelOf: the sorted ids of the bags / kernels containing the
// vertex), each of length at most the cover degree. The paper answers the
// same question through the Storing Theorem (Theorem 3.1), which
// internal/store reproduces on its own.
//
// # Parallel construction
//
// The expensive per-bag work — the 2r-ball BFS and the Lemma 5.7 boundary
// BFS that identifies the bag's r-interior — depends only on the graph and
// the chosen center, never on earlier bags. Only the *choice* of centers
// (the ascending scan over still-uncovered vertices) is sequential. With
// Options.Workers > 1, ComputeWith therefore speculates: it picks the next
// few plausible centers, computes their balls and interiors concurrently,
// and then commits results in ascending center order, discarding any
// speculation invalidated by an earlier commit. The committed center
// sequence is provably the greedy sequence, so the resulting cover is
// byte-identical to the sequential one (bags, centers, assignment, and
// kernels); the differential tests in this package and internal/core
// enforce that. ComputeKernels parallelizes trivially (one independent
// boundary BFS per bag, ordered fan-in).
package cover

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
)

// Options tunes cover construction.
type Options struct {
	// Workers bounds the construction parallelism. 0 and 1 select the
	// sequential path; the parallel path (≥ 2) produces byte-identical
	// covers.
	Workers int
}

// Stats reports construction facts: parallelism used and speculation
// efficiency.
type Stats struct {
	Workers       int // workers used for Compute/ComputeKernels
	BallsComputed int // ball+interior computations (incl. speculative)
	BallsWasted   int // speculative computations discarded
}

// Cover is an (R, 2R)-neighborhood cover of a colored graph.
type Cover struct {
	g *graph.Graph
	// R is the cover radius r; S = 2R bounds the bag radius.
	R, S int

	bags     [][]graph.V       // sorted vertex lists
	centers  []graph.V         // c_X with X ⊆ N_S(c_X)
	assign   []int32           // 𝒳(a): index of the canonical bag covering N_R(a)
	memberOf graph.Rows[int32] // sorted bag indices containing each vertex
	degree   int               // δ(𝒳): the longest memberOf row

	kernelP  int               // radius of the computed kernels (-1 = none)
	kernels  [][]graph.V       // p-kernel per bag, sorted
	kernelOf graph.Rows[int32] // sorted bag indices whose kernel contains v

	pool  *par.Pool
	stats Stats
}

// Compute builds an (r, 2r)-neighborhood cover of g sequentially. It is
// ComputeWith with Options{Workers: 1}.
func Compute(g *graph.Graph, r int) *Cover {
	return ComputeWith(g, r, Options{Workers: 1})
}

// ComputeWith builds an (r, 2r)-neighborhood cover of g with the given
// options. The result is independent of Workers.
func ComputeWith(g *graph.Graph, r int, opt Options) *Cover {
	if r < 1 {
		panic(fmt.Sprintf("cover: radius %d < 1", r))
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	c := &Cover{g: g, R: r, S: 2 * r, kernelP: -1, pool: par.NewPool(workers)}
	c.stats.Workers = c.pool.Workers()
	c.assign = make([]int32, g.N())
	for i := range c.assign {
		c.assign[i] = -1
	}
	if c.pool.Workers() > 1 && g.N() > 1 {
		c.computeSpeculative()
	} else {
		c.computeSequential()
	}
	c.stats.BallsWasted = c.stats.BallsComputed - len(c.bags)
	c.buildMembership()
	return c
}

// ballScratch is the per-worker state of one ball+interior computation:
// reusable BFS scratch plus epoch-marked membership arrays. mark[v] == ep
// means "in the current ball's interior", mark[v] == -ep "in the ball but
// within r of its boundary" (the excluded set of Lemma 5.7).
type ballScratch struct {
	bfs   *graph.BFS
	mark  []int32
	depth []int32
	queue []graph.V
	ep    int32
}

func newBallScratch(g *graph.Graph) *ballScratch {
	return &ballScratch{
		bfs:   graph.NewBFS(g),
		mark:  make([]int32, g.N()),
		depth: make([]int32, g.N()),
	}
}

// specResult is one speculative bag: the sorted 2r-ball of center and the
// subset of it whose r-ball stays inside (the vertices the bag covers).
type specResult struct {
	center   graph.V
	bag      []graph.V // sorted
	interior []graph.V
}

// ballAndInterior computes N_S(center) and its r-interior, exactly as one
// iteration of the sequential greedy loop does, using only sc-local state.
func (c *Cover) ballAndInterior(sc *ballScratch, center graph.V) specResult {
	sc.ep++
	ep := sc.ep
	ball := sc.bfs.Ball(center, c.S)
	vs := make([]graph.V, len(ball))
	for i, v := range ball {
		vs[i] = int(v)
		sc.mark[v] = ep
	}
	// Boundary: ball vertices with a neighbor outside the ball, at
	// distance 1 from the complement (Lemma 5.7).
	sc.queue = sc.queue[:0]
	for _, v := range vs {
		for _, w := range c.g.Neighbors(v) {
			if sc.mark[w] != ep {
				sc.queue = append(sc.queue, v)
				sc.depth[v] = 1
				break
			}
		}
	}
	for _, v := range sc.queue {
		sc.mark[v] = -ep
	}
	// BFS inside the ball: depth t ⇒ distance t to the complement; the
	// interior is {distance > r}.
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		if int(sc.depth[v]) >= c.R {
			continue
		}
		for _, w := range c.g.Neighbors(v) {
			if sc.mark[w] == ep {
				sc.mark[w] = -ep
				sc.depth[w] = sc.depth[v] + 1
				sc.queue = append(sc.queue, int(w))
			}
		}
	}
	interior := make([]graph.V, 0, len(vs))
	for _, v := range vs {
		if sc.mark[v] == ep {
			interior = append(interior, v)
		}
	}
	sort.Ints(vs)
	return specResult{center: center, bag: vs, interior: interior}
}

// commit appends the bag and assigns its still-unassigned interior
// vertices, mirroring one sequential greedy iteration.
func (c *Cover) commit(res specResult) {
	bag := int32(len(c.bags))
	for _, v := range res.interior {
		if c.assign[v] < 0 {
			c.assign[v] = bag
		}
	}
	if c.assign[res.center] < 0 {
		// Degenerate: the center sits within r of its own bag boundary
		// (possible when the ball is shallow); it is still covered by its
		// own N_r ⊆ N_S(center) = the bag. Keep the direct assignment as
		// a safety net.
		c.assign[res.center] = bag
	}
	c.bags = append(c.bags, res.bag)
	c.centers = append(c.centers, res.center)
}

func (c *Cover) computeSequential() {
	sc := newBallScratch(c.g)
	for a := 0; a < c.g.N(); a++ {
		if c.assign[a] >= 0 {
			continue
		}
		c.stats.BallsComputed++
		c.commit(c.ballAndInterior(sc, a))
	}
}

// computeSpeculative is the parallel greedy cover. Invariant: every vertex
// below frontier is assigned. Each round speculates a batch of candidate
// centers — the current frontier plus further unassigned vertices spaced
// by an adaptive gap estimate — and computes their balls concurrently.
//
// The key to a useful hit rate is that ballAndInterior is a pure function
// of (graph, center): a speculated result is never stale, merely
// premature. Results are therefore kept in a cache keyed by center, and
// the frontier walk commits a cached result the moment its center becomes
// the smallest unassigned vertex — the exact greedy selection rule, which
// is what makes the parallel cover byte-identical to the sequential one.
// A cached result is wasted only if its center gets covered by an earlier
// bag first (it is evicted when the frontier passes it). The frontier
// itself is always speculated, so every round makes progress.
func (c *Cover) computeSpeculative() {
	n := c.g.N()
	scratches := make([]*ballScratch, c.pool.Workers())
	batch := c.pool.Workers()
	cache := make(map[graph.V]specResult, 2*batch)
	frontier := 0
	gap := 1
	prevCenter := -1
	cands := make([]graph.V, 0, batch)
	for {
		// Drain: commit cached results as their centers become greedy
		// centers; evict entries whose center got covered.
		for frontier < n {
			if c.assign[frontier] >= 0 {
				delete(cache, frontier)
				frontier++
				continue
			}
			res, ok := cache[frontier]
			if !ok {
				break
			}
			delete(cache, frontier)
			c.commit(res)
			// Track the observed center spacing so candidate gaps follow
			// the bag-size structure of the graph.
			if prevCenter >= 0 {
				gap = (gap + (frontier - prevCenter) + 1) / 2
			}
			prevCenter = frontier
		}
		if frontier == n {
			return
		}
		// The frontier is an uncached greedy center: speculate it plus
		// gap-spaced unassigned, uncached vertices after it.
		cands = append(cands[:0], frontier)
		pos := frontier
		for len(cands) < batch {
			next := pos + gap
			if next <= pos {
				next = pos + 1
			}
			for next < n {
				_, cached := cache[next]
				if c.assign[next] < 0 && !cached {
					break
				}
				next++
			}
			if next >= n {
				break
			}
			cands = append(cands, next)
			pos = next
		}
		results := make([]specResult, len(cands))
		local := cands
		c.pool.ForEachWorker(len(local), func(wk, i int) {
			if scratches[wk] == nil {
				scratches[wk] = newBallScratch(c.g)
			}
			results[i] = c.ballAndInterior(scratches[wk], local[i])
		})
		c.stats.BallsComputed += len(cands)
		for _, res := range results {
			cache[res.center] = res
		}
	}
}

// buildMembership inverts the bag lists into memberOf and measures the
// cover degree on it.
func (c *Cover) buildMembership() {
	c.memberOf = invertLists(c.bags, c.g.N())
	c.degree = 0
	for v := 0; v < c.g.N(); v++ {
		c.degree = max(c.degree, c.memberOf.Len(v))
	}
}

// Stats returns construction statistics.
func (c *Cover) Stats() Stats { return c.stats }

// NumBags returns |𝒳|.
func (c *Cover) NumBags() int { return len(c.bags) }

// Bag returns the sorted vertex list of bag i (shared; do not modify).
func (c *Cover) Bag(i int) []graph.V { return c.bags[i] }

// Center returns c_X for bag i, a vertex with X ⊆ N_{2R}(c_X).
func (c *Cover) Center(i int) graph.V { return c.centers[i] }

// Assign returns 𝒳(a), the index of the canonical bag containing N_R(a).
//
//fod:hotpath
func (c *Cover) Assign(a graph.V) int { return int(c.assign[a]) }

// Degree returns δ(𝒳) = max_a |{X : a ∈ X}|.
func (c *Cover) Degree() int { return c.degree }

// SumBagSizes returns Σ_X |X| (≤ δ(𝒳)·|V|).
func (c *Cover) SumBagSizes() int {
	s := 0
	for _, bag := range c.bags {
		s += len(bag)
	}
	return s
}

// ComputeKernels computes the p-kernels K_p(X) = {a ∈ X : N_p(a) ⊆ X} of
// every bag (Lemma 5.7: a multi-source BFS from the bag boundary inside
// G[X]) and indexes them for constant-time membership queries. p must be
// ≤ R. With a parallel cover the per-bag BFS runs
// concurrently (each bag's kernel depends only on the bag and the graph);
// the fan-in is ordered, so the kernels are identical to the sequential
// ones.
func (c *Cover) ComputeKernels(p int) {
	if p < 0 || p > c.R {
		panic(fmt.Sprintf("cover: kernel radius %d outside [0, %d]", p, c.R))
	}
	c.kernelP = p
	c.kernels = make([][]graph.V, len(c.bags))

	scratches := make([]*kernelScratch, c.pool.Workers())
	c.pool.ForEachWorker(len(c.bags), func(wk, i int) {
		if scratches[wk] == nil {
			scratches[wk] = borrowKernelScratch(c.g.N())
		}
		c.kernels[i] = bagKernel(c.g, scratches[wk], c.bags[i], p)
	})
	for _, sc := range scratches {
		if sc != nil {
			kernelScratchPool.Put(sc)
		}
	}
	c.kernelOf = invertLists(c.kernels, c.g.N())
}

// kernelScratch is the per-worker state of bagKernel: epoch-marked bag
// membership (mark[v] == ep in bag, -ep excluded) plus the BFS queue.
type kernelScratch struct {
	mark  []int32
	depth []int32
	queue []graph.V
	ep    int32
}

// kernelScratchPool keeps idle kernel scratch, which holds no graph, for
// the next ComputeKernels or Patch: a write allocates none of its own.
var kernelScratchPool sync.Pool

// borrowKernelScratch returns scratch for graphs of up to n vertices; put
// it back into kernelScratchPool.
func borrowKernelScratch(n int) *kernelScratch {
	if sc, ok := kernelScratchPool.Get().(*kernelScratch); ok && len(sc.mark) >= n {
		return sc
	}
	return &kernelScratch{mark: make([]int32, n), depth: make([]int32, n)}
}

// bagKernel runs the Lemma 5.7 boundary BFS inside G[bag] — g is the graph
// of the cover, or of the one a Patch is deriving — and returns the sorted
// p-kernel.
func bagKernel(g *graph.Graph, sc *kernelScratch, bag []graph.V, p int) []graph.V {
	if sc.ep == math.MaxInt32 {
		clear(sc.mark)
		sc.ep = 0
	}
	sc.ep++
	ep := sc.ep
	for _, v := range bag {
		sc.mark[v] = ep
	}
	// Boundary: bag vertices with a neighbor outside the bag; they are at
	// distance 1 from the complement.
	sc.queue = sc.queue[:0]
	for _, v := range bag {
		for _, w := range g.Neighbors(v) {
			if sc.mark[w] != ep && sc.mark[w] != -ep {
				sc.queue = append(sc.queue, v)
				sc.depth[v] = 1
				break
			}
		}
	}
	for _, v := range sc.queue {
		sc.mark[v] = -ep
	}
	// BFS inside G[X]: a vertex at depth t has distance t to the
	// complement; the kernel is {distance > p}.
	for head := 0; head < len(sc.queue); head++ {
		v := sc.queue[head]
		if int(sc.depth[v]) >= p {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if sc.mark[w] == ep {
				sc.mark[w] = -ep
				sc.depth[w] = sc.depth[v] + 1
				sc.queue = append(sc.queue, int(w))
			}
		}
	}
	var kern []graph.V
	for _, v := range bag {
		if sc.mark[v] == ep {
			kern = append(kern, v)
		}
	}
	return kern // bag is sorted, so kern is sorted
}

// KernelP returns the kernel radius handed to ComputeKernels, or -1.
func (c *Cover) KernelP() int { return c.kernelP }

// Kernel returns the sorted p-kernel of bag i.
func (c *Cover) Kernel(i int) []graph.V { return c.kernels[i] }

// InKernel reports whether v ∈ K_p(X_i), in constant time (a scan of the
// ≤ δ(𝒳) sorted kernel ids of v).
//
//fod:hotpath
func (c *Cover) InKernel(i int, v graph.V) bool {
	if c.kernelP < 0 {
		panic("cover: ComputeKernels has not been called")
	}
	for _, x := range c.kernelOf.Row(v) {
		if x >= int32(i) {
			return x == int32(i)
		}
	}
	return false
}

// KernelsOf returns the sorted indices of bags whose kernel contains v.
//
//fod:hotpath
func (c *Cover) KernelsOf(v graph.V) []int32 {
	if c.kernelP < 0 {
		panic("cover: ComputeKernels has not been called")
	}
	return c.kernelOf.Row(v)
}

// Validate checks the cover axioms by brute force (test helper): every
// r-ball is inside the assigned bag, and every bag is inside the 2r-ball of
// its center. It returns the first violated condition.
func (c *Cover) Validate() error {
	bfs := graph.NewBFS(c.g)
	for a := 0; a < c.g.N(); a++ {
		x := c.Assign(a)
		if x < 0 || x >= len(c.bags) {
			return fmt.Errorf("vertex %d has no assigned bag", a)
		}
		for _, v := range bfs.Ball(a, c.R) {
			if !containsSorted(c.bags[x], int(v)) {
				return fmt.Errorf("N_%d(%d) ⊄ bag %d: vertex %d missing", c.R, a, x, v)
			}
		}
	}
	for i, bag := range c.bags {
		ball := bfs.Ball(c.centers[i], c.S)
		inBall := map[graph.V]bool{}
		for _, v := range ball {
			inBall[int(v)] = true
		}
		for _, v := range bag {
			if !inBall[v] {
				return fmt.Errorf("bag %d ⊄ N_%d(center %d)", i, c.S, c.centers[i])
			}
		}
	}
	return nil
}

func containsSorted(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}
