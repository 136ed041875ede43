// Package cover implements (r,s)-neighborhood covers (Definition 4.3 and
// Theorem 4.4 of the paper) and bag kernels (Definition 5.6, Lemma 5.7).
//
// A cover is a collection of bags X ⊆ V such that every r-ball N_r(a) is
// contained in some bag, and every bag is contained in some s-ball
// N_s(c_X). We compute (r,2r)-covers greedily: scanning vertices in order,
// each still-uncovered vertex a picks as center c the uncovered vertex of
// N_r(a) farthest from a (ties to the larger id; a itself when none is
// farther) and contributes the bag N_{2r}(c), which covers every vertex b
// with N_r(b) ⊆ N_{2r}(c) — a among them, since dist(a, c) ≤ r. So the
// result is a valid (r,2r)-cover. Stepping the center away from the covered
// ground behind a (on a grid, the half of N_{2r}(a) toward smaller ids)
// gives fewer, fuller bags; the degree is measured rather than proven
// (Theorem 4.4's constructive bound relies on non-constructive class
// parameters — see DESIGN.md §3).
//
// Kernel membership is served by per-vertex inverted lists (kernelOf: the
// sorted ids of the bags whose kernel contains the vertex), each of length
// at most the cover degree. The paper answers the same question through
// the Storing Theorem (Theorem 3.1), which internal/store reproduces on its
// own. Bag membership (memberOf, the transpose of the bags) is read by
// Patch alone: a built or restored cover does not hold it, the first edge
// patch derives it and every later version carries it.
//
// # Construction
//
// The cover is built in one pass over the greedy centers and kept as the
// arrays a snapshot writes. A center costs one BFS to depth r to find it,
// one to depth 2r around it and one Lemma 5.7 boundary BFS to depth r,
// seeded from the last BFS layer (a vertex nearer the center has every
// neighbor inside the ball). That
// second search yields, for every cell of the bag, its distance to the
// bag's complement capped at r+1: one byte a cell, the depth column. Cells
// of depth > r are the vertices the bag covers, and K_p(X) for any p ≤ r
// is the cells of depth > p — Compute filters the kernels it is asked for
// off the column and drops it, no search. Bags are laid out in BFS order
// in one int32 arena and sorted by transposing twice: counting into
// per-vertex rows gives rows ascending in bag id, counting back gives
// every bag ascending in vertex with its depths aligned; the transpose is
// scratch.
//
// Bags and kernels are graph.Rows stores, views of one CSR pair after a
// build or a restore (Parts hands the pair out, FromParts adopts it); the
// centers and the assignment are graph.Paged arrays. A Patch replaces or
// appends rows and never writes one in place, so the versions of an index
// share every block of rows a write did not redo. ComputeKernels
// after the build runs the boundary BFS bag by bag (bagKernel), as Patch
// does for the bags it redoes.
package cover

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Options is kept for callers that still pass it; the construction is one
// sequential pass and reads nothing from it.
type Options struct {
	// Workers is ignored. A speculative parallel construction it used to
	// select was 3–4× slower than the sequential one at one and at two
	// CPUs (EXPERIMENTS.md E14) and is gone.
	Workers int
}

// Cover is an (R, 2R)-neighborhood cover of a colored graph. It holds what
// its readers read: bags, centers and the assignment (the distance index,
// Sub.Local, Validate), kernels and kernelOf (the answer path: byKernel
// aliases kernel rows, the skip pointers read kernelOf), and memberOf only
// once a Patch has derived it for the next one.
type Cover struct {
	g *graph.Graph
	// R is the cover radius r; S = 2R bounds the bag radius.
	R, S int

	bags    graph.Rows[int32]  // sorted vertex lists
	centers graph.Paged[int32] // c_X with X ⊆ N_S(c_X)
	assign  graph.Paged[int32] // 𝒳(a): index of the canonical bag covering N_R(a)
	degree  int                // δ(𝒳): the most bags a vertex is in
	// memberOf row v is the sorted ids of the bags containing v. Only Patch
	// reads it: empty (the zero store) on a built or restored cover, derived
	// by the first edge patch and carried, toggled, by the ones after it.
	memberOf graph.Rows[int32]

	kernelP  int               // radius of the computed kernels (-1 = none)
	kernels  graph.Rows[int32] // p-kernel per bag, sorted
	kernelOf graph.Rows[int32] // sorted bag indices whose kernel contains v
}

// Compute builds an (r, 2r)-neighborhood cover of g and, for 0 ≤ p ≤ r,
// its p-kernels, as ComputeKernels(p) would; p < 0 computes none.
func Compute(g *graph.Graph, r, p int) *Cover {
	if r < 1 {
		panic(fmt.Sprintf("cover: radius %d < 1", r))
	}
	if p > r {
		panic(fmt.Sprintf("cover: kernel radius %d outside [0, %d]", p, r))
	}
	n := g.N()
	c := &Cover{g: g, R: r, S: 2 * r, kernelP: -1}
	assign := graph.PageAligned[int32](n)
	for i := range assign {
		assign[i] = -1
	}
	var centers []int32
	bfs := graph.BorrowBFS(g)
	defer bfs.Release()
	sc := borrowKernelScratch(n)
	defer sc.release()

	// One pass over the greedy centers: the smallest vertex a no bag covers
	// yet contributes the bag N_2r(ctr), laid out in BFS order, where ctr
	// is the uncovered vertex of N_r(a) farthest from a (ties: the larger
	// id), so the bag reaches into ground no earlier bag covers.
	var cells []int32 // the bags, concatenated
	off := []int32{0}
	// Per cell, the distance to the bag's complement capped at r+1, kept
	// for the kernel filter while the cap fits a byte.
	var depth []uint8
	keepDepth := p >= 0 && r < math.MaxUint8
	covered := 0
	for a := 0; a < n; a++ {
		if assign[a] >= 0 {
			continue
		}
		bag := int32(len(centers))
		ctr, far := a, 0
		for _, v := range bfs.Ball(a, r) {
			if d := bfs.Dist(int(v)); assign[v] < 0 && (d > far || d == far && int(v) > ctr) {
				ctr, far = int(v), d
			}
		}
		ball := bfs.Ball(ctr, c.S)
		if need := len(cells) + len(ball); need > cap(cells) {
			// Grow to where the cells a covered vertex has cost so far put
			// the end, not by doubling: the arena is the largest array of
			// the build, and on a homogeneous graph this is its last move.
			est := 0
			if covered > 0 {
				est = int(float64(len(cells)) / float64(covered) * float64(n) * 1.05)
			}
			grown := max(need, 2*cap(cells), min(est, 8*need))
			cells = append(make([]int32, 0, grown), cells...)
			if keepDepth {
				depth = append(make([]uint8, 0, grown), depth...)
			}
		}
		ep := sc.ballDepths(g, bfs, ball, c.S, r)
		// The bag covers its r-interior: N_r(v) ⊆ X exactly for the cells
		// of depth > r. The center is one of them, 2r+1 from the complement,
		// and so is a: N_r(a) ⊆ N_2r(ctr) since dist(a, ctr) ≤ r.
		base := len(cells)
		cells = append(cells, ball...)
		if keepDepth {
			depth = depth[:len(cells)]
		}
		for i, v := range ball {
			d := r + 1
			if sc.mark[v] == ep {
				d = int(sc.depth[v])
			}
			if d > r && assign[v] < 0 {
				assign[v] = bag
				covered++
			}
			if keepDepth {
				depth[base+i] = uint8(d)
			}
		}
		if len(cells) > math.MaxInt32 {
			panic(fmt.Sprintf("cover: the radius-%d bags of %v do not fit 2³¹ cells", c.S, g))
		}
		off = append(off, int32(len(cells)))
		centers = append(centers, int32(ctr))
	}
	c.assign, c.centers = graph.PagedOf(assign), graph.PagedOf(centers)
	depth = c.sortBags(off, cells, depth)
	if p >= 0 {
		c.computeKernels(p, depth)
	}
	return c
}

// ComputeWith is Compute without kernels; see Options.
func ComputeWith(g *graph.Graph, r int, _ Options) *Cover { return Compute(g, r, -1) }

// sortBags turns the bags cells[off[i]:off[i+1]], in any order, with the
// aligned depth column (or nil), into c's sorted bags and degree, by
// transposing twice, and returns the column aligned with the sorted cells.
// Counting the cells into per-vertex rows bag by bag makes the transpose,
// its rows ascending in bag id; counting those back vertex by vertex makes
// every bag ascending in vertex. The transpose is scratch, not memberOf.
func (c *Cover) sortBags(off, cells []int32, depth []uint8) []uint8 {
	n, nb := c.g.N(), len(off)-1
	memOff := make([]int32, n+1)
	for _, v := range cells {
		memOff[v+1]++
	}
	for v := 0; v < n; v++ {
		memOff[v+1] += memOff[v]
		c.degree = max(c.degree, int(memOff[v+1]-memOff[v]))
	}
	memFlat := make([]int32, len(cells))
	var memDepth []uint8
	if depth != nil {
		memDepth = make([]uint8, len(cells))
	}
	pos := append([]int32(nil), memOff[:n]...)
	for i := 0; i < nb; i++ {
		for j := off[i]; j < off[i+1]; j++ {
			v := cells[j]
			memFlat[pos[v]] = int32(i)
			if depth != nil {
				memDepth[pos[v]] = depth[j]
			}
			pos[v]++
		}
	}

	// The arrays that stay are made at their exact size; cells and depth
	// grew with room to spare and are dropped.
	off = append(make([]int32, 0, nb+1), off...)
	data := make([]int32, len(cells))
	var sorted []uint8
	if depth != nil {
		sorted = make([]uint8, len(cells))
	}
	pos = append(pos[:0], off[:nb]...)
	for v := 0; v < n; v++ {
		for j := memOff[v]; j < memOff[v+1]; j++ {
			i := memFlat[j]
			data[pos[i]] = int32(v)
			if depth != nil {
				sorted[pos[i]] = memDepth[j]
			}
			pos[i]++
		}
	}
	c.bags = graph.FromFlat(off, data)
	return sorted
}

// NumBags returns |𝒳|.
func (c *Cover) NumBags() int { return c.bags.N() }

// Bag returns the sorted vertex list of bag i (shared; do not modify).
func (c *Cover) Bag(i int) []int32 { return c.bags.Row(i) }

// Center returns c_X for bag i, a vertex with X ⊆ N_{2R}(c_X).
func (c *Cover) Center(i int) graph.V { return int(c.centers.At(i)) }

// Assign returns 𝒳(a), the index of the canonical bag containing N_R(a).
//
//fod:hotpath
func (c *Cover) Assign(a graph.V) int { return int(c.assign.At(a)) }

// Degree returns δ(𝒳) = max_a |{X : a ∈ X}|.
func (c *Cover) Degree() int { return c.degree }

// SumBagSizes returns Σ_X |X| (≤ δ(𝒳)·|V|).
func (c *Cover) SumBagSizes() int { return c.bags.Cells() }

// Structure is the bytes one structure of a cover holds.
type Structure struct {
	Name  string
	Bytes int
}

// Resident returns the bytes c holds, by structure: bags (with their
// centers), kernels and kernelOf once computed, assign, and memberOf once a
// Patch has derived it. A row or block shared with another version of the
// cover counts in full.
func (c *Cover) Resident() []Structure {
	out := []Structure{{"bags", c.bags.Bytes() + c.centers.Bytes()}}
	if c.kernelP >= 0 {
		out = append(out, Structure{"kernels", c.kernels.Bytes()}, Structure{"kernelOf", c.kernelOf.Bytes()})
	}
	out = append(out, Structure{"assign", c.assign.Bytes()})
	if b := c.memberOf.Bytes(); b > 0 {
		out = append(out, Structure{"memberOf", b})
	}
	return out
}

// ComputeKernels computes the p-kernels K_p(X) = {a ∈ X : N_p(a) ⊆ X} of
// every bag and indexes them for constant-time membership queries. p must
// be ≤ R, and the call may be repeated with another p. It runs the Lemma
// 5.7 boundary BFS inside every bag; Compute reads the kernels it is asked
// for off its depth column instead.
func (c *Cover) ComputeKernels(p int) {
	if p < 0 || p > c.R {
		panic(fmt.Sprintf("cover: kernel radius %d outside [0, %d]", p, c.R))
	}
	c.computeKernels(p, nil)
}

// computeKernels sets c's p-kernels: the cells of depth > p, depth aligned
// with the cells of the bags, or with depth nil a boundary BFS per bag.
func (c *Cover) computeKernels(p int, depth []uint8) {
	c.kernelP = p
	nb := c.NumBags()
	off := make([]int32, nb+1)
	var data []int32
	if depth != nil {
		bagOff, bagData := c.bags.Flat()
		for i := 0; i < nb; i++ {
			m := int32(0)
			for _, d := range depth[bagOff[i]:bagOff[i+1]] {
				if int(d) > p {
					m++
				}
			}
			off[i+1] = off[i] + m
		}
		data = make([]int32, 0, off[nb])
		for j, d := range depth {
			if int(d) > p {
				data = append(data, bagData[j])
			}
		}
	} else {
		sc := borrowKernelScratch(c.g.N())
		for i := range nb {
			data = bagKernel(data, c.g, sc, c.Bag(i), p)
			off[i+1] = int32(len(data))
		}
		sc.release()
	}
	c.kernels = graph.FromFlat(off, data)
	c.kernelOf = invertLists(&c.kernels, c.g.N())
}

// kernelScratch is the state of one boundary BFS: epoch-marked vertices
// (what mark[v] == ep means is the caller's) with a depth each, and the
// queue.
type kernelScratch struct {
	mark  []int32
	depth []int32
	queue []int32
	ep    int32
}

// kernelScratchFree keeps idle kernel scratch, which holds no graph, for
// the next Compute, ComputeKernels or Patch: a write allocates none of its
// own.
var kernelScratchFree graph.FreeList[*kernelScratch]

// borrowKernelScratch returns scratch for graphs of up to n vertices;
// release it.
func borrowKernelScratch(n int) *kernelScratch {
	if sc, ok := kernelScratchFree.Get(); ok && len(sc.mark) >= n {
		return sc
	}
	return &kernelScratch{mark: make([]int32, n), depth: make([]int32, n)}
}

// release makes borrowed scratch idle again.
func (sc *kernelScratch) release() { kernelScratchFree.Put(sc, len(sc.mark)) }

// next starts a search: it returns an epoch no mark holds, or its negation.
func (sc *kernelScratch) next() int32 {
	if sc.ep == math.MaxInt32 {
		clear(sc.mark)
		sc.ep = 0
	}
	sc.ep++
	return sc.ep
}

// ballDepths runs the Lemma 5.7 boundary BFS inside ball, the N_s(a) that
// bfs has just searched, to depth r: afterwards mark[v] == ep, the epoch it
// returns, means v is within r of the ball's complement, at distance
// depth[v]; a ball vertex without the mark is farther than r.
func (sc *kernelScratch) ballDepths(g *graph.Graph, bfs *graph.BFS, ball []int32, s, r int) (ep int32) {
	ep = sc.next()
	// Boundary: the ball vertices with a neighbor outside the ball, at
	// distance 1 from the complement. Only the last BFS layer can hold one.
	last := len(ball)
	for last > 0 && bfs.Dist(int(ball[last-1])) == s {
		last--
	}
	q := sc.queue[:0]
	for _, v := range ball[last:] {
		for _, w := range g.Neighbors(int(v)) {
			if bfs.Dist(int(w)) < 0 {
				sc.mark[v], sc.depth[v] = ep, 1
				q = append(q, v)
				break
			}
		}
	}
	// BFS inside the ball: depth t ⇒ distance t to the complement.
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := sc.depth[v]
		if int(d) >= r {
			continue
		}
		inner := bfs.Dist(int(v)) < s // no neighbor of v is outside the ball
		for _, w := range g.Neighbors(int(v)) {
			if sc.mark[w] != ep && (inner || bfs.Dist(int(w)) >= 0) {
				sc.mark[w], sc.depth[w] = ep, d+1
				q = append(q, w)
			}
		}
	}
	sc.queue = q
	return ep
}

// bagKernel runs the Lemma 5.7 boundary BFS inside G[bag] — g is the graph
// of the cover, or of the one a Patch is deriving — and appends the sorted
// p-kernel to dst.
func bagKernel(dst []int32, g *graph.Graph, sc *kernelScratch, bag []int32, p int) []int32 {
	if p == 0 {
		return append(dst, bag...) // N_0(a) = {a}
	}
	// mark[v] == ep: in the bag; -ep: in the bag and within p of its
	// complement.
	ep := sc.next()
	for _, v := range bag {
		sc.mark[v] = ep
	}
	// Boundary: bag vertices with a neighbor outside the bag; they are at
	// distance 1 from the complement.
	sc.queue = sc.queue[:0]
	for _, v := range bag {
		for _, w := range g.Neighbors(int(v)) {
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
		for _, w := range g.Neighbors(int(v)) {
			if sc.mark[w] == ep {
				sc.mark[w] = -ep
				sc.depth[w] = sc.depth[v] + 1
				sc.queue = append(sc.queue, w)
			}
		}
	}
	for _, v := range bag {
		if sc.mark[v] == ep {
			dst = append(dst, v) // bag is sorted, so the kernel is
		}
	}
	return dst
}

// KernelP returns the kernel radius handed to ComputeKernels, or -1.
func (c *Cover) KernelP() int { return c.kernelP }

// Kernel returns the sorted p-kernel of bag i (shared; do not modify).
func (c *Cover) Kernel(i int) []int32 { return c.kernels.Row(i) }

// Kernels returns the p-kernels of all bags, Kernels().Row(i) == Kernel(i):
// the store is shared and not to be modified.
func (c *Cover) Kernels() graph.Rows[int32] { return c.kernels }

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

// KernelsOf returns the sorted indices of bags whose kernel contains v;
// before ComputeKernels there are none to read, and it panics.
//
//fod:hotpath
func (c *Cover) KernelsOf(v graph.V) []int32 {
	return c.kernelOf.Row(v)
}

// Validate checks the cover axioms by brute force (test helper): every
// r-ball is inside the assigned bag, and every bag is inside the 2r-ball of
// its center. It returns the first violated condition.
func (c *Cover) Validate() error {
	bfs := graph.NewBFS(c.g)
	for a := 0; a < c.g.N(); a++ {
		x := c.Assign(a)
		if x < 0 || x >= c.NumBags() {
			return fmt.Errorf("vertex %d has no assigned bag", a)
		}
		for _, v := range bfs.Ball(a, c.R) {
			if !containsSorted(c.Bag(x), v) {
				return fmt.Errorf("N_%d(%d) ⊄ bag %d: vertex %d missing", c.R, a, x, v)
			}
		}
	}
	for i := range c.NumBags() {
		bfs.Ball(c.Center(i), c.S)
		for _, v := range c.Bag(i) {
			if bfs.Dist(int(v)) < 0 {
				return fmt.Errorf("bag %d ⊄ N_%d(center %d)", i, c.S, c.Center(i))
			}
		}
	}
	return nil
}

func containsSorted(xs []int32, v int32) bool {
	_, found := slices.BinarySearch(xs, v)
	return found
}
