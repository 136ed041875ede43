package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/skip"
)

// locality is where engines differ. The build (guards, starter lists), the
// answering recursion (answer.go) and the counting (count.go) are written
// once against it; what an implementation decides is how "dist ≤ R", the
// next far starter (Case I) and the balls of Case II are answered:
//
//   - coverLoc is the paper's: the distance index of Proposition 4.2, a
//     neighborhood cover with R-kernels, skip pointers over each starter
//     list (Lemma 5.8), balls by BFS on first use. Pseudo-linear to build
//     on any nowhere dense class.
//   - ballLoc is Durand–Schweikardt–Segoufin's bounded-degree case: every
//     N_R(v) and N_{R(k−1)}(v) is small, so both are materialized sorted,
//     a distance test is a binary search and Case I a forward scan.
//
// A third engine is a third implementation plus its locBuilder.
type locality interface {
	// within reports dist(a, b) ≤ R.
	within(a, b graph.V) bool
	// nextOpening is Case I: the smallest v ≥ lower in c.starter at
	// distance > R from every prefix element, or −1.
	nextOpening(c *compRT, prefix []graph.V, lower graph.V) graph.V
	// compBall returns the sorted ball of radius R(k−1) around anchor: the
	// candidates of Case II and of the starter search.
	compBall(anchor graph.V) []int32
	// rBall returns the sorted N_R(a) (FastCount's close-pair scans).
	rBall(a graph.V) []int32

	// indexStarter derives from c's finished starter list whatever
	// nextOpening needs and returns the wall time of the skip sweep.
	indexStarter(c *compRT, pool *par.Pool, trace *obs.Span) time.Duration
	// distTester serves the distance atoms inside component formulas; nil
	// leaves them to the evaluator's own BFS.
	distTester() fo.DistTester
	// explain writes the locality's lines of Engine.Explain.
	explain(sb *strings.Builder)
}

// locBuilder builds e's locality inside Preprocess: its phases are children
// of root, it calls checkpoint between them, and it records its share of
// e.stats.
type locBuilder func(e *Engine, opt Options, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error)

// coverLoc is the locality of the paper. It is immutable once built except
// for the two lazily filled ball caches.
type coverLoc struct {
	g         *graph.Graph
	k         int
	r, compR  int // R and R(k−1)
	dix       *dist.Index
	cov       *cover.Cover
	bfs       *scratchPool // the engine's
	compBalls sync.Map     // graph.V -> []int32, radius compR
	rBalls    sync.Map     // graph.V -> []int32, radius r (unused when compR == r)
}

// compRadius is R(k−1), the reach of a component from its first element
// (R for k = 1, where no component has a second position to look for).
func compRadius(q *LocalQuery) int { return q.R * max(q.K-1, 1) }

// distRadius is the radius the distance index must answer: R for the type
// tests and — on guarded queries — the constants of the distance atoms
// inside the component formulas, which may exceed R.
func distRadius(q *LocalQuery) int {
	r := q.R
	for ci := range q.Clauses {
		for li := range q.Clauses[ci].Locals {
			r = max(r, fo.MaxDistConstant(q.Clauses[ci].Locals[li].Psi))
		}
	}
	return r
}

func buildCoverLoc(e *Engine, opt Options, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error) {
	if e.k > skip.MaxSetSize+1 {
		return nil, fmt.Errorf("core: arity %d exceeds supported maximum %d", e.k, skip.MaxSetSize+1)
	}
	l := e.newCoverLoc()
	distOpt := opt.Dist
	if distOpt.Workers == 0 {
		distOpt.Workers = e.stats.Workers
	}
	if distOpt.Obs == nil {
		distOpt.Obs = opt.Obs
	}
	sp := root.Child("dist")
	l.dix = dist.New(e.g, distRadius(e.q), distOpt)
	e.stats.DistWall = sp.End()
	if err := checkpoint(); err != nil {
		return nil, err
	}
	// The kernels make "outside every kernel ⇒ far from every previous
	// element" sound, which needs bags ⊇ N_{2R}(center of coverage).
	sp = root.Child("cover")
	l.cov = cover.ComputeWith(e.g, 2*e.r, cover.Options{Workers: e.stats.Workers, Obs: opt.Obs})
	e.stats.CoverWall = sp.End()
	if err := checkpoint(); err != nil {
		return nil, err
	}
	sp = root.Child("kernel")
	l.cov.ComputeKernels(e.r)
	e.stats.KernelWall = sp.End()
	e.coverStats(l.cov)
	return l, checkpoint()
}

// newCoverLoc returns e's cover locality with dix and cov still to be set.
func (e *Engine) newCoverLoc() *coverLoc {
	return &coverLoc{g: e.g, k: e.k, r: e.r, compR: compRadius(e.q), bfs: e.gbfs}
}

func (e *Engine) coverStats(cov *cover.Cover) {
	e.stats.CoverRadius, e.stats.CoverBags, e.stats.CoverDegree = cov.R, cov.NumBags(), cov.Degree()
}

//fod:hotpath
func (l *coverLoc) within(a, b graph.V) bool { return l.dix.Within(a, b, l.r) }

func (l *coverLoc) distTester() fo.DistTester { return l.dix }

func (l *coverLoc) compBall(anchor graph.V) []int32 { return l.ball(&l.compBalls, anchor, l.compR) }

func (l *coverLoc) rBall(a graph.V) []int32 {
	if l.compR == l.r {
		return l.compBall(a)
	}
	return l.ball(&l.rBalls, a, l.r)
}

// ball memoizes the sorted ball around a. Concurrent callers may compute
// the same ball twice; both results are identical and the losing store is
// harmless.
func (l *coverLoc) ball(cache *sync.Map, a graph.V, radius int) []int32 {
	if b, ok := cache.Load(a); ok {
		return b.([]int32)
	}
	bfs := l.bfs.get()
	out := slices.Clone(bfs.Ball(a, radius))
	l.bfs.put(bfs)
	slices.Sort(out)
	cache.Store(a, out)
	return out
}

// indexStarter builds the Lemma 5.8 skip pointers over c.starter and the
// per-kernel starter lists.
func (l *coverLoc) indexStarter(c *compRT, pool *par.Pool, trace *obs.Span) (skipWall time.Duration) {
	if l.k >= 2 {
		sp := trace.Child("skip")
		c.skip = skip.New(l.g, l.cov, l.k-1, c.starter)
		skipWall = sp.End()
	}
	l.buildKernelLists(c, pool)
	return skipWall
}

// buildKernelLists fills c.byKernel[bag] = starter ∩ K_R(bag). Bags are
// independent and each task writes only its own list.
func (l *coverLoc) buildKernelLists(c *compRT, pool *par.Pool) {
	// Two counting passes into one flat backing array: per-bag append
	// allocations made this a hotspot on the snapshot-restore path.
	nb := l.cov.NumBags()
	c.byKernel = make([][]graph.V, nb)
	cnt := make([]int32, nb+1)
	pool.ForEach(nb, func(i int) {
		m := int32(0)
		for _, v := range l.cov.Kernel(i) {
			if c.inStart[v] {
				m++
			}
		}
		cnt[i+1] = m
	})
	for i := 0; i < nb; i++ {
		cnt[i+1] += cnt[i]
	}
	flat := make([]graph.V, cnt[nb])
	pool.ForEach(nb, func(i int) {
		row := flat[cnt[i]:cnt[i]:cnt[i+1]]
		for _, v := range l.cov.Kernel(i) {
			if c.inStart[v] {
				row = append(row, v)
			}
		}
		c.byKernel[i] = row
	})
}

func (l *coverLoc) explain(sb *strings.Builder) {
	fmt.Fprintf(sb, "  cover: radius %d, %d bags, degree %d\n", l.cov.R, l.cov.NumBags(), l.cov.Degree())
	fmt.Fprintf(sb, "  distance index: radius %d, %v\n", l.dix.Radius(), l.dix.Stats())
}

// nextOpening is the paper's Case I: the answer is the minimum of the
// skip-pointer candidate (outside every kernel of the prefix's canonical
// bags, hence automatically far) and one scan per canonical bag kernel.
//
//fod:hotpath
func (l *coverLoc) nextOpening(c *compRT, prefix []graph.V, lower graph.V) graph.V {
	if len(prefix) == 0 {
		i := sort.SearchInts(c.starter, lower)
		if i == len(c.starter) {
			return -1
		}
		return c.starter[i]
	}
	// Canonical bags of the prefix elements, deduplicated. The prefix has
	// ≤ k−1 ≤ skip.MaxSetSize elements (buildCoverLoc enforces the arity
	// bound), so a fixed-size stack array holds the set without
	// allocating.
	var bagArr [skip.MaxSetSize]int
	bags := bagArr[:0]
	for _, p := range prefix {
		if x := l.cov.Assign(p); !slices.Contains(bags, x) {
			bags = append(bags, x)
		}
	}
	best := graph.V(-1)
	if c.skip != nil {
		if v := c.skip.Query(lower, bags); v != skip.None {
			best = v
		}
	}
	// Scan starter ∩ K_R(X) for each canonical bag X, rejecting candidates
	// within distance R of some prefix element. Rejections are confined to
	// the R-balls of the ≤ k−1 prefix elements, hence pseudo-constant on
	// nowhere dense inputs.
	for _, x := range bags {
		lst := c.byKernel[x]
		i := sort.SearchInts(lst, lower)
		for ; i < len(lst); i++ {
			v := lst[i]
			if best >= 0 && v >= best {
				break
			}
			if l.farFromAll(v, prefix) {
				best = v
				break
			}
		}
	}
	return best
}

//fod:hotpath
func (l *coverLoc) farFromAll(v graph.V, prefix []graph.V) bool {
	for _, p := range prefix {
		if l.dix.Within(v, p, l.r) {
			return false
		}
	}
	return true
}

// ballLoc is the bounded-degree locality: two CSR arrays of sorted balls.
// Rows are plain vertex ids with no distance attached (dist's small-graph
// table is the same layout plus a byte per cell, which this does not need:
// the only radius ever asked is the one the row was built for).
type ballLoc struct {
	r, compR   int
	rOff, rAdj []int32 // row v lists N_R(v) ascending, v included
	cOff, cAdj []int32 // row v lists N_{R(k−1)}(v); aliases the R rows when the radii coincide
}

func buildBallLoc(e *Engine, _ Options, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error) {
	l := &ballLoc{r: e.r, compR: compRadius(e.q)}
	sp := root.Child("balls")
	l.rOff, l.rAdj = ballCSR(e.g, l.r, pool)
	l.cOff, l.cAdj = l.rOff, l.rAdj
	if l.compR != l.r {
		l.cOff, l.cAdj = ballCSR(e.g, l.compR, pool)
	}
	sp.End()
	e.stats.MaxDegree = e.g.MaxDegree()
	e.stats.BallEntries, e.stats.CompEntries = len(l.rAdj), len(l.cAdj)
	return l, checkpoint()
}

// ballCSR materializes the sorted radius-r ball of every vertex as one
// flat CSR array. Each vertex owns its row, so the per-vertex BFS fans
// out across the pool and the result is worker-count-independent.
func ballCSR(g *graph.Graph, r int, pool *par.Pool) (off, adj []int32) {
	n := g.N()
	rows := make([][]int32, n)
	scratch := make([]*graph.BFS, pool.Workers())
	for w := range scratch {
		scratch[w] = graph.NewBFS(g)
	}
	pool.ForEachWorker(n, func(wk, v int) {
		rows[v] = slices.Clone(scratch[wk].Ball(v, r))
		slices.Sort(rows[v])
	})
	off = make([]int32, n+1)
	for v, row := range rows {
		off[v+1] = off[v] + int32(len(row))
	}
	adj = make([]int32, off[n])
	for v, row := range rows {
		copy(adj[off[v]:], row)
	}
	return off, adj
}

// within is one binary search in the sorted R-ball row of a.
//
//fod:hotpath
func (l *ballLoc) within(a, b graph.V) bool {
	if a == b {
		return true
	}
	row := l.rAdj[l.rOff[a]:l.rOff[a+1]]
	i := searchInt32(row, int32(b))
	return i < len(row) && row[i] == int32(b)
}

// nextOpening needs no skip pointers on a degree-d graph: every rejected
// starter lies in the R-ball of one of the ≤ k−1 prefix elements, so the
// forward scan skips at most (k−1)·d^R entries before succeeding or
// clearing the obstruction — constant delay for constant d.
//
//fod:hotpath
func (l *ballLoc) nextOpening(c *compRT, prefix []graph.V, lower graph.V) graph.V {
scan:
	for i := sort.SearchInts(c.starter, lower); i < len(c.starter); i++ {
		v := c.starter[i]
		for _, p := range prefix {
			if l.within(v, p) {
				continue scan
			}
		}
		return v
	}
	return -1
}

//fod:hotpath
func (l *ballLoc) compBall(anchor graph.V) []int32 { return l.cAdj[l.cOff[anchor]:l.cOff[anchor+1]] }

func (l *ballLoc) rBall(a graph.V) []int32 { return l.rAdj[l.rOff[a]:l.rOff[a+1]] }

func (l *ballLoc) indexStarter(*compRT, *par.Pool, *obs.Span) time.Duration { return 0 }

func (l *ballLoc) distTester() fo.DistTester { return nil }

func (l *ballLoc) explain(sb *strings.Builder) {
	fmt.Fprintf(sb, "  balls: radius %d (%d entries), completion radius %d (%d entries)\n",
		l.r, len(l.rAdj), l.compR, len(l.cAdj))
}

// searchInt32 returns the smallest index i with row[i] >= x (lower-bound
// binary search, written out so the hot path carries no closure).
//
//fod:hotpath
func searchInt32(row []int32, x int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
