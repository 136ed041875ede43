// Package dist implements Proposition 4.2 of the paper: after a
// pseudo-linear preprocessing of a colored graph G and a radius r, queries
// dist(a, b) ≤ r′ (for any r′ ≤ r) are answered in constant time.
//
// The construction follows Section 4.2. An (r, 2r)-neighborhood cover 𝒳 is
// computed; testing reduces to the bag 𝒳(a) (if b ∉ 𝒳(a) the answer is
// "no"). Within a bag X the splitter vertex s_X (Splitter's answer when
// Connector plays the bag center c_X) is removed; distances to s_X (the
// sets R_i of Step 4) are precomputed by BFS, and distances avoiding s_X
// are answered by a recursively built index on X′ = G[X \ {s_X}], whose
// splitter-game depth is one smaller. The recursion bottoms out at edgeless
// or small arenas, where truncated distance matrices are stored directly.
//
// If the plugged-in Splitter strategy fails to shrink an arena within
// MaxDepth levels (which does not happen on nowhere dense inputs), the
// index falls back to on-demand truncated BFS; correctness is preserved
// and the event is counted in Stats.
//
// # Parallel construction
//
// Per-bag work (graph.Induce, the splitter answer, the Step-4 BFS, and the
// whole recursive sub-index) depends only on the graph, the cover, and the
// bag — bags are independent, so Options.Workers > 1 builds them
// concurrently with an ordered fan-in. To keep the parallel index
// byte-identical to the sequential one, the work budget is split
// deterministically *before* the fan-out: every bag subtree receives a
// share of the remaining budget proportional to its size, instead of the
// old first-come-first-served draw from a global counter (whose outcome
// would depend on completion order). Sequential construction uses the
// same per-subtree budgeting, so Workers=1 and Workers=N produce the same
// structure decision for decision. The bounded-ball fast path (the whole
// index for grids and bounded-degree graphs) shards its per-vertex ball
// scans across workers in contiguous vertex ranges and stitches the CSR
// arrays back in order.
package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cover"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/splitter"
)

// Options tunes index construction.
type Options struct {
	// Strategy is Splitter's strategy (default BallCenter).
	Strategy splitter.Strategy
	// SmallThreshold is the arena size at which recursion stops and a
	// truncated distance table is stored (default 8·(2r+1), at least 256).
	SmallThreshold int
	// MaxDepth bounds the splitter recursion (default 24).
	MaxDepth int
	// DisableBallTable turns off the bounded-ball fast path, forcing the
	// splitter-game recursion even on arenas whose ball lists are linear.
	// Used by tests and the ablation benchmarks.
	DisableBallTable bool
	// WorkBudget bounds the total vertices+edges processed across all
	// recursion levels (default 256·‖G‖ + 2^20). It is split
	// deterministically across recursion branches; when a branch's share
	// is exhausted — which happens only when the input is not nowhere
	// dense at the requested radius, so the splitter recursion stops
	// shrinking arenas — that branch falls back to on-demand BFS.
	// Correctness is unaffected; Stats.Fallbacks counts the occurrences.
	WorkBudget int
	// Workers bounds the construction parallelism. 0 and 1 select the
	// sequential path; any value produces a byte-identical index.
	Workers int
}

func (o Options) withDefaults(r int, g *graph.Graph) Options {
	if o.Strategy == nil {
		o.Strategy = splitter.BallCenter{}
	}
	if o.SmallThreshold == 0 {
		o.SmallThreshold = 8 * (2*r + 1)
		if o.SmallThreshold < 256 {
			o.SmallThreshold = 256
		}
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 24
	}
	if o.WorkBudget == 0 {
		o.WorkBudget = 256*g.Size() + 1<<20
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// Stats reports structural facts about a built index.
type Stats struct {
	Bags        int // total bags over all recursion levels
	MaxDepth    int // deepest recursion level used
	SmallLeaves int // arenas solved by truncated distance tables
	Fallbacks   int // arenas that exhausted MaxDepth or the work budget
	TableCells  int // total entries of all truncated distance tables
	Work        int // vertices+edges processed across all levels
	Workers     int // construction parallelism used
}

// merge folds a sub-build's counters into s (ordered fan-in: callers merge
// in bag order, so the totals are deterministic).
func (s *Stats) merge(o *Stats) {
	s.Bags += o.Bags
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.SmallLeaves += o.SmallLeaves
	s.Fallbacks += o.Fallbacks
	s.TableCells += o.TableCells
	s.Work += o.Work
}

// Index answers dist(a,b) ≤ r′ queries for all r′ ≤ R in constant time.
// Once built it is safe for concurrent use.
type Index struct {
	g *graph.Graph
	R int

	// Exactly one of the following four layouts is active.
	edgeless bool         // λ=1 base case: dist(a,b) ≤ rr iff a = b
	small    *smallTable  // truncated distance table
	fallback bool         // MaxDepth/budget exhausted: on-demand BFS
	cov      *cover.Cover // recursive layout
	bags     []*bagIndex

	stats *Stats
}

type bagIndex struct {
	sub   *graph.Sub // G[X] with local numbering
	sX    int        // splitter vertex, local to sub
	distS []int32    // dist_{G[X]}(v, s_X) truncated at R+1, local to sub
	prime *graph.Sub // X′ = sub minus sX, local to sub
	inner *Index     // recursive index on prime.G
}

// fallbackScratch keeps idle BFS scratch, bound to no graph, for the
// fallback layout's Within: query-time scratch, in a sync.Pool as the
// engine's evaluators are, for its per-processor caches. Borrowed from
// graph.BorrowBFS, whose one mutex serves the writes, concurrent Within
// calls took 4–5× as long on two cores as on one.
var fallbackScratch sync.Pool

// smallTable stores, per vertex of a small arena, the sorted list of
// (vertex, distance) pairs of its r-ball, so the space is the sum of ball
// sizes rather than n². The two columns are row stores over the same
// offsets, patched in lockstep; the distance is read only on a hit.
type smallTable struct {
	ball graph.Rows[int32] // neighbor ids, sorted per source
	d    graph.Rows[int8]  // distances, aligned with ball
}

// smallOf returns the table of the CSR columns off, ball and d, viewing them.
func smallOf(off, ball []int32, d []int8) *smallTable {
	return &smallTable{ball: graph.FromFlat(off, ball), d: graph.FromFlat(off, d)}
}

func newSmallTable(g *graph.Graph, r int, pool *par.Pool) *smallTable {
	t, _ := newSmallTableCapped(g, r, 0, pool)
	return t
}

// newSmallTableCapped builds the ball-list table (graph.SortedBalls with
// the distance column) but gives up, returning ok=false, once more than
// maxCells cells would be stored: sequentially after O(maxCells) wasted
// work, in parallel after that much a shard. Whether it gives up is a
// property of g and r alone, and the shards are joined in vertex order, so
// the result is independent of the worker count.
func newSmallTableCapped(g *graph.Graph, r, maxCells int, pool *par.Pool) (*smallTable, bool) {
	t, ok := graph.SortedBalls(g, r, graph.BallOptions{Dist: true, MaxCells: maxCells, Pool: pool})
	if !ok {
		return nil, false
	}
	return smallOf(t.Off, t.Ball, t.D), true
}

func (t *smallTable) cells() int { return t.ball.Cells() }

func (t *smallTable) within(a, b graph.V, rr int) bool {
	seg := t.ball.Row(a)
	i := sort.Search(len(seg), func(i int) bool { return seg[i] >= int32(b) })
	return i < len(seg) && seg[i] == int32(b) && int(t.d.Row(a)[i]) <= rr
}

// New builds the distance index for radius r.
func New(g *graph.Graph, r int, opt Options) *Index {
	if r < 1 {
		panic(fmt.Sprintf("dist: radius %d < 1", r))
	}
	opt = opt.withDefaults(r, g)
	pool := par.NewPool(opt.Workers)
	stats := &Stats{Workers: pool.Workers()}
	return build(g, r, opt, 0, stats, opt.WorkBudget, pool)
}

// build constructs the index for one arena with the given work budget.
// The pool is only used at depth 0 (bag fan-out and ball-table sharding);
// recursive calls inside parallel bag tasks run sequentially.
func build(g *graph.Graph, r int, opt Options, depth int, stats *Stats, budget int, pool *par.Pool) *Index {
	if depth > stats.MaxDepth {
		stats.MaxDepth = depth
	}
	ix := &Index{g: g, R: r, stats: stats}
	if graph.IsEdgeless(g) {
		ix.edgeless = true
		stats.SmallLeaves++
		return ix
	}
	stats.Work += g.Size()
	budget -= g.Size()
	if depth >= opt.MaxDepth || budget < 0 {
		ix.fallback = true
		stats.Fallbacks++
		return ix
	}
	if g.N() <= opt.SmallThreshold {
		ix.small = newSmallTable(g, r, pool)
		stats.SmallLeaves++
		stats.TableCells += ix.small.cells()
		stats.Work += ix.small.cells()
		return ix
	}
	// Bounded-ball fast path: when Σ_v |N_r(v)| is linear in ‖G‖ (bounded
	// degree, grids, …), a single ball-list table is the whole index. The
	// attempt aborts after O(‖G‖) wasted work on hub-dominated graphs,
	// which then proceed through the splitter recursion.
	if !opt.DisableBallTable {
		if tbl, ok := newSmallTableCapped(g, r, 24*g.Size(), pool); ok {
			ix.small = tbl
			stats.SmallLeaves++
			stats.TableCells += tbl.cells()
			stats.Work += tbl.cells()
			return ix
		}
		stats.Work += 24 * g.Size() // cost of the aborted attempt
		budget -= 24 * g.Size()
	}
	ix.cov = cover.Compute(g, r, -1) // bags, centers and assignment; no kernels
	stats.Work += ix.cov.SumBagSizes()
	budget -= ix.cov.SumBagSizes()
	if budget < 0 {
		// The cover is too heavy (overlapping near-whole-graph bags): the
		// recursion cannot make progress within budget. Truncated BFS per
		// query costs O(‖N_r(a)‖), which on such arenas is of the same
		// order as the table chain would have been.
		ix.cov = nil
		ix.fallback = true
		stats.Fallbacks++
		return ix
	}
	nb := ix.cov.NumBags()
	stats.Bags += nb
	// Deterministic budget split: each bag subtree receives a share of the
	// remaining budget proportional to its size (every bag has ≥ 1 vertex,
	// and Σ shares ≤ budget).
	shares := make([]int, nb)
	total := ix.cov.SumBagSizes()
	for i := 0; i < nb; i++ {
		shares[i] = int(int64(budget) * int64(len(ix.cov.Bag(i))) / int64(total))
	}
	if pool.Workers() > 1 && nb > 1 && depth == 0 {
		type sub struct {
			b  *bagIndex
			st Stats
		}
		subs := par.Map(pool, nb, func(i int) sub {
			var st Stats
			return sub{buildBag(g, ix.cov, i, r, opt, depth, &st, shares[i], par.Sequential()), st}
		})
		ix.bags = make([]*bagIndex, nb)
		for i := range subs {
			ix.bags[i] = subs[i].b
			stats.merge(&subs[i].st)
		}
		return ix
	}
	ix.bags = make([]*bagIndex, nb)
	for i := 0; i < nb; i++ {
		ix.bags[i] = buildBag(g, ix.cov, i, r, opt, depth, stats, shares[i], pool)
	}
	return ix
}

// induceBag returns G[bag] for a bag of the level cover, whose rows are
// int32.
func induceBag(g *graph.Graph, bag []int32) *graph.Sub {
	vs := make([]graph.V, len(bag))
	for i, v := range bag {
		vs[i] = int(v)
	}
	return graph.Induce(g, vs)
}

func buildBag(g *graph.Graph, cov *cover.Cover, i, r int, opt Options, depth int, stats *Stats, budget int, pool *par.Pool) *bagIndex {
	sub := induceBag(g, cov.Bag(i))
	stats.Work += sub.G.Size()
	budget -= sub.G.Size()
	// Splitter's answer when Connector plays the bag center in the
	// (λ, 2r)-game on G — evaluated inside the bag, which contains
	// N_{2r}(c_X) ∩ X; the strategy only needs a vertex of the ball.
	cLocal := sub.Local(cov.Center(i))
	sLocal := opt.Strategy.Answer(sub.G, cLocal, 2*r)
	b := &bagIndex{sub: sub, sX: sLocal}

	// Step 4: distances to s_X inside G[X], truncated at r.
	b.distS = make([]int32, sub.G.N())
	for v := range b.distS {
		b.distS[v] = int32(r) + 1
	}
	bfs := graph.BorrowBFS(sub.G)
	for _, w := range bfs.Ball(sLocal, r) {
		b.distS[w] = int32(bfs.Dist(int(w)))
	}
	bfs.Release()

	// Step 5: recursive index on X′ = G[X \ {s_X}].
	b.prime = graph.RemoveVertex(sub.G, sLocal)
	b.inner = build(b.prime.G, r, opt, depth+1, stats, budget, pool)
	return b
}

// Stats returns construction statistics.
func (ix *Index) Stats() Stats { return *ix.stats }

// Covers returns the covers of the recursive layout, the outermost first
// and then each bag's, depth first: none unless the index recursed.
func (ix *Index) Covers() []*cover.Cover {
	if ix.cov == nil {
		return nil
	}
	out := []*cover.Cover{ix.cov}
	for _, b := range ix.bags {
		out = append(out, b.inner.Covers()...)
	}
	return out
}

// Radius returns the maximum supported radius R.
func (ix *Index) Radius() int { return ix.R }

// Within reports whether dist_G(a, b) ≤ rr, for any rr ≤ R. It implements
// fo.DistTester and is safe for concurrent use. Every distance-type test
// of the answering phase lands here, so the formatted panic lives in the
// un-annotated badRadius helper.
//
//fod:hotpath
func (ix *Index) Within(a, b graph.V, rr int) bool {
	if rr > ix.R {
		ix.badRadius(rr)
	}
	if rr < 0 {
		return false
	}
	if a == b {
		return true
	}
	switch {
	case ix.edgeless:
		return false // a ≠ b and there are no edges
	case ix.small != nil:
		return ix.small.within(a, b, rr)
	case ix.fallback:
		bfs, _ := fallbackScratch.Get().(*graph.BFS)
		if bfs == nil {
			bfs = graph.NewBFS(ix.g)
		}
		bfs.Rebind(ix.g)
		d := bfs.Distance(a, b, rr)
		fallbackScratch.Put(bfs.Unbind())
		return d >= 0
	}
	x := ix.cov.Assign(a)
	bag := ix.bags[x]
	la, lb := bag.sub.Local(a), bag.sub.Local(b)
	if lb < 0 {
		// b ∉ 𝒳(a) ⊇ N_R(a) ⊇ N_rr(a), hence dist(a,b) > rr.
		return false
	}
	return bag.within(la, lb, rr)
}

// AppendBall appends N_rr(a), ascending, to dst when the index holds it —
// the ball table of the bounded-ball fast path, or no edge at all — and
// reports whether it did; a caller told no searches the graph. rr ≤ R.
func (ix *Index) AppendBall(dst []int32, a graph.V, rr int) ([]int32, bool) {
	switch {
	case ix.edgeless:
		return append(dst, int32(a)), true
	case ix.small != nil:
		d := ix.small.d.Row(a)
		for i, w := range ix.small.ball.Row(a) {
			if int(d[i]) <= rr {
				dst = append(dst, w)
			}
		}
		return dst, true
	}
	return dst, false
}

func (ix *Index) badRadius(rr int) {
	panic(fmt.Sprintf("dist: query radius %d exceeds index radius %d", rr, ix.R))
}

// within answers inside G[X] with local coordinates (Section 4.2.2's case
// analysis).
func (b *bagIndex) within(a, bb graph.V, rr int) bool {
	switch {
	case a == b.sX && bb == b.sX:
		return true
	case a == b.sX:
		return int(b.distS[bb]) <= rr
	case bb == b.sX:
		return int(b.distS[a]) <= rr
	}
	// Path through s_X …
	if int(b.distS[a])+int(b.distS[bb]) <= rr {
		return true
	}
	// … or path avoiding s_X, answered by the recursive index on X′.
	pa, pb := b.prime.Local(a), b.prime.Local(bb)
	return b.inner.Within(pa, pb, rr)
}
