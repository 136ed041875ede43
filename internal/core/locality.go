package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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
//     list (Lemma 5.8), balls read off the distance index or searched.
//     Pseudo-linear to build on any nowhere dense class.
//   - ballLoc is Durand–Schweikardt–Segoufin's bounded-degree case: every
//     N_R(v) and N_{R(k−1)}(v) is small, so both are materialized sorted,
//     a distance test is a binary search and Case I a forward scan.
//
// A third engine is a third implementation plus its locKind: the four
// answering methods, indexStarter, patch and parts.
type locality interface {
	// within reports dist(a, b) ≤ R.
	within(a, b graph.V) bool
	// nextOpening is Case I: the smallest v ≥ lower in c.starter at
	// distance > R from every prefix element, or −1. fr, when non-nil, is
	// the caller's frame for this position and prefix: where the last call
	// stood, so that the next one resumes there instead of searching. A
	// caller with nothing to resume passes nil and the implementation works
	// on a zero frame of its own — on its stack, where one made by the
	// caller would escape through this interface.
	nextOpening(c *compRT, prefix []graph.V, lower graph.V, fr *frame) graph.V
	// compBall returns the sorted ball of radius R(k−1) around anchor: the
	// candidates of Case II and of the starter search, for a component of
	// three and more positions.
	compBall(anchor graph.V) []int32
	// near returns N_R(a) ascending, for a scan that reads it and moves on
	// (the partner rows of the build, FastCount's close pairs): the
	// locality's own row or one assembled in sc, valid until sc is used
	// again, and never kept by the locality.
	near(a graph.V, sc *rowScratch) []int32

	// indexStarter derives from c's finished starter list whatever
	// nextOpening needs to answer prefixes of up to need values (starterList),
	// as children of trace. With saved non-nil (RestoreEngine) it adopts the
	// component's snapshot payload instead of searching, and refuses one that
	// does not fit.
	indexStarter(c *compRT, need int, saved *CompParts, pool *par.Pool, trace *obs.Span) error
	// distTester serves the distance atoms inside component formulas; nil
	// leaves them to the evaluator's own BFS.
	distTester() fo.DistTester
	// explain writes the locality's lines of Engine.Explain.
	explain(sb *strings.Builder)

	// patch is the locality's part of ApplyEdits: the receiver belongs to
	// old, and the result is the locality of e2, whose graph differs from
	// old's in edges at edgeSrcs (sorted; colour changes concern no
	// locality). Only structure within reach of edgeSrcs is recomputed, as
	// children of trace; the receiver stays as it is. reindex is then called
	// on every component of e2 once its starter list is re-tested. ok =
	// false means the edit is not local at this locality's scale and
	// ApplyEdits rebuilds.
	patch(old, e2 *Engine, edgeSrcs []graph.V, pool *par.Pool, trace *obs.Span) (loc locality, reindex starterPatch, ok bool)
	// parts adds the locality's serialized form to p, whose Clauses are
	// laid out already: its own sections and, per component, what
	// indexStarter derived. locKind.restore is the inverse.
	parts(e *Engine, p *EngineParts)
}

// starterPatch brings what indexStarter derived for c, a component of the
// engine being patched, over to c2, its successor in clause rt2 whose
// starter list differs from c's exactly at starterDiff (sorted).
type starterPatch func(rt2 *clauseRT, c2, c *compRT, starterDiff []graph.V)

// locKind is one implementation of locality: how Preprocess builds it and
// how RestoreEngine gets it back from the parts it wrote under name.
type locKind struct {
	name string
	// build's phases are children of root; it calls checkpoint between
	// them and records its share of e.stats.
	build func(e *Engine, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error)
	// restore revalidates p's sections against e's graph and query; its
	// phases are children of root.
	restore func(e *Engine, p *EngineParts, root *obs.Span) (locality, error)
}

// The locality names, as EngineParts.Locality and the snapshot metadata
// carry them. The cover's is empty: files written before the ball form
// existed name none.
const (
	LocCover = ""
	LocBalls = "balls"
)

var (
	coverKind = &locKind{name: LocCover, build: buildCoverLoc, restore: restoreCoverLoc}
	ballKind  = &locKind{name: LocBalls, build: buildBallLoc, restore: restoreBallLoc}
	locKinds  = []*locKind{coverKind, ballKind}
)

// coverLoc is the locality of the paper. It is immutable once built except
// for the lazily filled ball cache, which only components of three and more
// positions reach.
type coverLoc struct {
	g         *graph.Graph
	r, compR  int // R and R(k−1)
	dix       *dist.Index
	cov       *cover.Cover
	compBalls sync.Map // graph.V -> []int32, radius compR
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

func buildCoverLoc(e *Engine, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error) {
	if e.k > skip.MaxSetSize+1 {
		return nil, fmt.Errorf("core: arity %d exceeds supported maximum %d", e.k, skip.MaxSetSize+1)
	}
	l := e.newCoverLoc()
	sp := root.Child("dist")
	l.dix = dist.New(e.g, distRadius(e.q), dist.Options{Workers: e.stats.Workers})
	sp.End()
	if err := checkpoint(); err != nil {
		return nil, err
	}
	// The kernels make "outside every kernel ⇒ far from every previous
	// element" sound, which needs bags ⊇ N_{2R}(center of coverage).
	sp = root.Child("cover")
	l.cov = cover.Compute(e.g, 2*e.r, e.r)
	sp.End()
	e.coverStats(l.cov)
	return l, checkpoint()
}

// newCoverLoc returns e's cover locality with dix and cov still to be set.
func (e *Engine) newCoverLoc() *coverLoc {
	return &coverLoc{g: e.g, r: e.r, compR: compRadius(e.q)}
}

func (e *Engine) coverStats(cov *cover.Cover) {
	e.stats.CoverRadius, e.stats.CoverBags, e.stats.CoverDegree = cov.R, cov.NumBags(), cov.Degree()
}

//fod:hotpath
func (l *coverLoc) within(a, b graph.V) bool { return l.dix.Within(a, b, l.r) }

func (l *coverLoc) distTester() fo.DistTester { return l.dix }

// compBall memoizes the sorted ball around anchor. Concurrent callers may
// compute the same ball twice; both results are identical and the losing
// store is harmless.
func (l *coverLoc) compBall(anchor graph.V) []int32 {
	if b, ok := l.compBalls.Load(anchor); ok {
		return b.([]int32)
	}
	bfs := graph.BorrowBFS(l.g)
	out := bfs.AppendSortedBall(nil, anchor, l.compR)
	bfs.Release()
	l.compBalls.Store(anchor, out)
	return out
}

// near reads the ball off the distance index when its top level is the ball
// table (every bounded-ball graph) and searches for it otherwise.
func (l *coverLoc) near(a graph.V, sc *rowScratch) []int32 {
	var ok bool
	if sc.ball, ok = l.dix.AppendBall(sc.ball[:0], a, l.r); !ok {
		sc.ball = sc.search().AppendSortedBall(sc.ball, a, l.r)
	}
	return sc.ball
}

// indexStarter builds the Lemma 5.8 skip pointers over c.starter for bag
// sets of size need — or adopts the saved table, which may answer larger ones
// (files older than format 4 hold k = arity − 1 everywhere) — and the
// per-kernel starter lists; neither for a list nobody asks with a prefix.
func (l *coverLoc) indexStarter(c *compRT, need int, saved *CompParts, pool *par.Pool, trace *obs.Span) (err error) {
	switch {
	case need == 0:
		if saved != nil && saved.Skip != nil {
			return fmt.Errorf("carries a skip table no component can ask")
		}
		return nil
	case saved == nil:
		sp := trace.Child("skip")
		c.skip = skip.New(l.g, l.cov, need, c.starter)
		sp.End()
	case saved.Skip == nil:
		return fmt.Errorf("misses its skip table (set size %d)", need)
	case saved.Skip.K < need:
		return fmt.Errorf("skip table has set size %d, a prefix of %d values needs %d", saved.Skip.K, need, need)
	default:
		if c.skip, err = skip.FromParts(l.cov, c.starter, *saved.Skip); err != nil {
			return err
		}
	}
	l.buildKernelLists(c, pool)
	return nil
}

// buildKernelLists fills c.byKernel[bag] = starter ∩ K_R(bag). A component
// every vertex starts takes the cover's kernel rows as they are; otherwise
// bags are independent and each task writes only its own list.
func (l *coverLoc) buildKernelLists(c *compRT, pool *par.Pool) {
	if len(c.starter) == l.g.N() {
		c.byKernel = l.cov.Kernels()
		return
	}
	// Two counting passes into one CSR pair: per-bag append allocations
	// made this a hotspot on the snapshot-restore path.
	nb := l.cov.NumBags()
	off := make([]int32, nb+1)
	pool.ForEach(nb, func(i int) {
		m := int32(0)
		for _, v := range l.cov.Kernel(i) {
			if c.inStart.Has(int(v)) {
				m++
			}
		}
		off[i+1] = m
	})
	for i := 0; i < nb; i++ {
		off[i+1] += off[i]
	}
	flat := make([]int32, off[nb])
	pool.ForEach(nb, func(i int) {
		row := flat[off[i]:off[i]:off[i+1]]
		for _, v := range l.cov.Kernel(i) {
			if c.inStart.Has(int(v)) {
				row = append(row, v)
			}
		}
	})
	c.byKernel = graph.FromFlat(off, flat)
}

// patch is the paper's §3 layer by layer: ball rows of the distance index
// within its radius of an endpoint (dist.Patch), then containment repairs
// and exact kernels of the bags within reach (cover.Patch). A cover that
// refuses — an edit avalanche — means the edit is not local at cover
// scale.
func (l *coverLoc) patch(old, e2 *Engine, edgeSrcs []graph.V, _ *par.Pool, trace *obs.Span) (locality, starterPatch, bool) {
	l2 := e2.newCoverLoc()
	sp := trace.Child("dist")
	var ok bool
	if l2.dix, ok = dist.Patch(l.dix, old.g, e2.g, edgeSrcs); !ok {
		l2.dix = dist.New(e2.g, distRadius(e2.q), dist.Options{Workers: e2.stats.Workers})
	}
	sp.End()
	sp = trace.Child("cover")
	var info *cover.PatchInfo
	l2.cov, info, ok = l.cov.Patch(old.g, e2.g, edgeSrcs)
	sp.End()
	if !ok {
		return nil, nil, false
	}
	e2.coverStats(l2.cov)
	return l2, func(rt2 *clauseRT, c2, c *compRT, starterDiff []graph.V) {
		l2.patchStarter(e2, rt2, c2, c, starterDiff, info)
	}, true
}

// patchStarter overlays (or rebuilds) c's skip pointers for c2 and
// resplices the per-kernel starter lists.
func (l *coverLoc) patchStarter(e2 *Engine, rt2 *clauseRT, c2, c *compRT, starterDiff []graph.V, info *cover.PatchInfo) {
	if c2.positions[0] == 0 {
		return // never asked with a prefix (starterList): it holds nothing, whatever c shared
	}
	// Skip pointers: overlay while the accumulated delta stays small — the
	// overlay is this component's own, the base under it stays shared and
	// unwritten — and rebuild past the threshold (the overlay's scan cost
	// is O(|delta|)) at the k the table was planned with, once per distinct
	// list as in Preprocess: pointers an earlier component of e2 holds for an
	// equal list and no smaller a k are exact for this one too.
	delta := sortedUnion(starterDiff, info.KernelDelta)
	if k := c.skip.K(); c.skip.DeltaLen()+len(delta) <= skip.RebuildThreshold(l.g.N()) {
		c2.skip = c.skip.WithDelta(l.cov, c2.starter, delta)
	} else if d := e2.tableFor(rt2, c2.starter, k); d != nil {
		c2.skip = d.skip
	} else {
		c2.skip = skip.New(l.g, l.cov, k, c2.starter)
	}

	// A component every vertex starts reads the new cover's kernel rows,
	// which share every block the write did not dirty, as buildKernelLists
	// has it read the built cover's. Otherwise byKernel rows change only for
	// bags whose kernel changed, bags the patch created, and bags whose
	// kernel contains a starter-diff vertex. Those get rows of c2's own, in
	// blocks of c2's own; the others stay c's.
	if len(c2.starter) == l.g.N() {
		c2.byKernel = l.cov.Kernels()
		return
	}
	redo := slices.Clone(info.KernelChanged)
	redo = append(redo, info.NewBags...)
	for _, v := range starterDiff {
		for _, b := range l.cov.KernelsOf(v) {
			redo = append(redo, int(b))
		}
	}
	slices.Sort(redo)
	redo = slices.Compact(redo) // the new bags last, ascending from the old count
	rows := make([][]int32, len(redo))
	for i, b := range redo {
		for _, v := range l.cov.Kernel(b) {
			if c2.inStart.Has(int(v)) {
				rows[i] = append(rows[i], v)
			}
		}
	}
	c2.byKernel = c.byKernel.Patch(redo, rows)
}

// parts serializes everything the build computes by search (distance
// recursion, cover and kernels, SC-tables). What is derived from those is
// not written: the cover's kernelOf and the per-kernel starter lists are
// rebuilt from the kernel rows at restore, and memberOf, if a patch derived
// it, by the first patch after the restore.
func (l *coverLoc) parts(e *Engine, p *EngineParts) {
	p.Cover, p.Dist = l.cov.Parts(), l.dix.Parts()
	at := map[*compRT]*CompParts{}
	for i, rt := range e.clauses {
		for j, c := range rt.comps {
			at[c] = &p.Clauses[i][j]
		}
	}
	// One table a list, at the plan's k, under each of its components: what a
	// build on this graph holds. A component of a patched engine may hold an
	// overlay — the table of an older version plus a correction set the
	// format has no section for — or a table of another k; the file gets this
	// version's table.
	for _, sl := range e.starterLists() {
		if sl.need == 0 {
			continue
		}
		exact := func(c *compRT) bool { return c.skip != nil && c.skip.DeltaLen() == 0 && c.skip.K() == sl.need }
		var sp skip.Parts
		if i := slices.IndexFunc(sl.comps, exact); i >= 0 {
			sp = sl.comps[i].skip.Parts()
		} else {
			sp = skip.New(l.g, l.cov, sl.need, sl.comps[0].starter).Parts()
		}
		for _, c := range sl.comps {
			at[c].Skip = &sp
		}
	}
}

// restoreCoverLoc reruns only the cheap deterministic derivations
// (inverted lists, kernel intersections) over the saved distance recursion
// and cover.
func restoreCoverLoc(e *Engine, p *EngineParts, root *obs.Span) (locality, error) {
	if e.k > skip.MaxSetSize+1 {
		return nil, fmt.Errorf("core: arity %d exceeds supported maximum %d", e.k, skip.MaxSetSize+1)
	}
	l := e.newCoverLoc()
	var err error
	sp := root.Child("dist")
	l.dix, err = dist.FromParts(e.g, p.Dist)
	sp.End()
	if err != nil {
		return nil, err
	}
	if distR := distRadius(e.q); l.dix.R != distR {
		return nil, fmt.Errorf("core: snapshot distance index has radius %d, query needs %d", l.dix.R, distR)
	}
	sp = root.Child("cover")
	l.cov, err = cover.FromParts(e.g, p.Cover)
	sp.End()
	if err != nil {
		return nil, err
	}
	if l.cov.R != 2*e.r {
		return nil, fmt.Errorf("core: snapshot cover has radius %d, query needs %d", l.cov.R, 2*e.r)
	}
	if l.cov.KernelP() != e.r {
		return nil, fmt.Errorf("core: snapshot kernels have radius %d, query needs %d", l.cov.KernelP(), e.r)
	}
	e.coverStats(l.cov)
	return l, nil
}

func (l *coverLoc) explain(sb *strings.Builder) {
	fmt.Fprintf(sb, "  cover: radius %d, %d bags, degree %d, %d cells;", l.cov.R, l.cov.NumBags(), l.cov.Degree(), l.cov.SumBagSizes())
	for i, st := range l.cov.Resident() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(sb, "%s %s %.1f MB", sep, st.Name, float64(st.Bytes)/1e6)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(sb, "  distance index: radius %d, %+v\n", l.dix.Radius(), l.dix.Stats())
}

// nextOpening is the paper's Case I. The first starter v ≥ lower is the
// answer when it is far from the prefix, and it is whenever it lies outside
// K_R(X) for every canonical bag X of a prefix element (X ⊇ N_2R of that
// element): that is read off by walking byKernel[X] beside the starter
// list. Otherwise the answer is the minimum of the skip-pointer candidate
// (outside every such kernel, Lemma 5.8) and one scan per kernel.
//
//fod:hotpath
func (l *coverLoc) nextOpening(c *compRT, prefix []graph.V, lower graph.V, fr *frame) graph.V {
	if fr == nil {
		fr = new(frame)
	}
	i := int(fr.at)
	if !c.startsAt(lower, i) {
		i = c.inStart.Rank(lower)
	}
	fr.at = int32(i + 1)
	if i == len(c.starter) {
		return -1
	}
	v := c.starter[i]
	if len(prefix) == 0 {
		return v
	}
	if fr.nb == 0 {
		// The prefix has ≤ k−1 ≤ skip.MaxSetSize elements (buildCoverLoc
		// enforces the arity bound).
		for _, p := range prefix {
			if x := int32(l.cov.Assign(p)); !slices.Contains(fr.bags[:fr.nb], x) {
				fr.bags[fr.nb], fr.kat[fr.nb] = x, 0
				fr.nb++
			}
		}
	}
	inKernel := false
	for b, x := range fr.bags[:fr.nb] {
		lst := c.byKernel.Row(int(x))
		at := lowerBound32(lst, int32(v), int(fr.kat[b]))
		if at < len(lst) && lst[at] == int32(v) {
			inKernel = true
			at++
		}
		fr.kat[b] = int32(at)
	}
	if !inKernel || l.farFromAll(v, prefix) {
		return v
	}
	// v is the only starter in [lower, v], so the search goes on behind it.
	var bagArr [skip.MaxSetSize]int
	bags := bagArr[:fr.nb]
	for b := range bags {
		bags[b] = int(fr.bags[b])
	}
	best := graph.V(-1)
	if c.skip != nil {
		if w := c.skip.Query(v+1, bags); w != skip.None {
			best = w
		}
	}
	// Scan starter ∩ K_R(X) for each canonical bag X, rejecting candidates
	// within distance R of some prefix element. A rejection lies in the
	// R-ball of a prefix element, but nothing bounds those balls: on a hub
	// (far2 on a star) the scan reads the whole kernel list and rejects it
	// all, so this loop is linear in n there, not constant.
	for b, x := range bags {
		lst := c.byKernel.Row(x)
		for at := int(fr.kat[b]); at < len(lst); at++ {
			w := graph.V(lst[at])
			if best >= 0 && w >= best {
				break
			}
			if l.farFromAll(w, prefix) {
				best = w
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

// ballLoc is the bounded-degree locality: two row stores of sorted balls.
// Rows are plain vertex ids with no distance attached (dist's small-graph
// table is the same layout plus a byte per cell, which this does not need:
// the only radius ever asked is the one the row was built for).
type ballLoc struct {
	r, compR int
	rows     graph.Rows[int32] // row v lists N_R(v) ascending, v included
	comp     graph.Rows[int32] // row v lists N_{R(k−1)}(v); the R rows themselves when the radii coincide
}

func buildBallLoc(e *Engine, pool *par.Pool, root *obs.Span, checkpoint func() error) (locality, error) {
	l := &ballLoc{r: e.r, compR: compRadius(e.q)}
	sp := root.Child("balls")
	err := l.fill(e.g, pool)
	sp.End()
	if err != nil {
		return nil, err
	}
	e.ballStats(l)
	return l, checkpoint()
}

// fill builds the rows in one linear pass a radius: every N_r(v) is
// searched once and written once, sorted, into the CSR pair the store
// views — a built locality is two plain arrays, like a restored one.
func (l *ballLoc) fill(g *graph.Graph, pool *par.Pool) error {
	table := func(radius int) (graph.Rows[int32], error) {
		t, ok := graph.SortedBalls(g, radius, graph.BallOptions{Pool: pool})
		if !ok {
			return graph.Rows[int32]{}, fmt.Errorf("core: the radius-%d balls of %v do not fit 2³¹ entries", radius, g)
		}
		return graph.FromFlat(t.Off, t.Ball), nil
	}
	var err error
	if l.rows, err = table(l.r); err != nil {
		return err
	}
	l.comp = l.rows
	if l.compR != l.r {
		l.comp, err = table(l.compR)
	}
	return err
}

func (e *Engine) ballStats(l *ballLoc) {
	e.stats.BallEntries, e.stats.CompEntries = l.rows.Cells(), l.comp.Cells()
}

// patch recomputes the rows an edge change can alter — those of the
// vertices within the row's radius of an endpoint, in the old or the new
// graph — and patches them into the stores, which share every other block
// with l's. It never refuses.
func (l *ballLoc) patch(old, e2 *Engine, edgeSrcs []graph.V, _ *par.Pool, trace *obs.Span) (locality, starterPatch, bool) {
	l2 := l
	if len(edgeSrcs) > 0 {
		sp := trace.Child("balls")
		repatched := func(rows *graph.Rows[int32], radius int) graph.Rows[int32] {
			vs := graph.ReachEither(old.g, e2.g, edgeSrcs, radius)
			balls, _ := graph.SortedBallsOf(e2.g, radius, vs, false)
			return rows.Patch(vs, balls)
		}
		l2 = &ballLoc{r: l.r, compR: l.compR, rows: repatched(&l.rows, l.r)}
		l2.comp = l2.rows
		if l.compR != l.r {
			l2.comp = repatched(&l.comp, l.compR)
		}
		sp.End()
	}
	e2.ballStats(l2)
	return l2, func(*clauseRT, *compRT, *compRT, []graph.V) {}, true
}

func (l *ballLoc) parts(_ *Engine, p *EngineParts) {
	p.Balls = BallParts{R: l.r, CompR: l.compR}
	p.Balls.ROff, p.Balls.RAdj = l.rows.Flat()
	if l.compR != l.r {
		p.Balls.COff, p.Balls.CAdj = l.comp.Flat()
	}
}

// restoreBallLoc adopts the saved arrays once every row is known to be a
// sorted vertex list around its own vertex: what within, nextOpening and
// the Case II scans rely on to stay inside the arrays.
func restoreBallLoc(e *Engine, p *EngineParts, root *obs.Span) (locality, error) {
	defer root.Child("balls").End()
	b := &p.Balls
	l := &ballLoc{r: e.r, compR: compRadius(e.q)}
	if b.R != l.r || b.CompR != l.compR {
		return nil, fmt.Errorf("core: snapshot balls have radii %d and %d, query needs %d and %d", b.R, b.CompR, l.r, l.compR)
	}
	if err := checkBalls(e.g.N(), b.ROff, b.RAdj); err != nil {
		return nil, fmt.Errorf("core: snapshot radius-%d balls: %w", b.R, err)
	}
	l.rows = graph.FromFlat(b.ROff, b.RAdj)
	l.comp = l.rows
	if l.compR != l.r {
		if err := checkBalls(e.g.N(), b.COff, b.CAdj); err != nil {
			return nil, fmt.Errorf("core: snapshot radius-%d balls: %w", b.CompR, err)
		}
		l.comp = graph.FromFlat(b.COff, b.CAdj)
	} else if len(b.COff)+len(b.CAdj) > 0 {
		return nil, fmt.Errorf("core: snapshot carries completion balls beside equal radius-%d balls", b.R)
	}
	e.ballStats(l)
	return l, nil
}

// checkBalls reports whether (off, adj) can be the ball rows of an n-vertex
// graph: n ascending vertex rows (graph.CheckRows), each holding its own
// vertex.
func checkBalls(n int, off, adj []int32) error {
	if err := graph.CheckRows(off, adj, n, n); err != nil {
		return err
	}
	for v := range n {
		if _, ok := slices.BinarySearch(adj[off[v]:off[v+1]], int32(v)); !ok {
			return fmt.Errorf("row %d misses its own vertex", v)
		}
	}
	return nil
}

// within is one binary search in the sorted R-ball row of a.
//
//fod:hotpath
func (l *ballLoc) within(a, b graph.V) bool {
	if a == b {
		return true
	}
	row := l.rows.Row(a)
	i := searchInt32(row, int32(b))
	return i < len(row) && row[i] == int32(b)
}

// nextOpening needs no skip pointers on a degree-d graph: every rejected
// starter lies in the R-ball of one of the ≤ k−1 prefix elements, so the
// forward scan skips at most (k−1)·d^R entries before succeeding or
// clearing the obstruction — constant delay for constant d. Whether a
// starter lies in such a ball is read off by walking each prefix element's
// sorted R-row beside the starter list, kat[b] recording where the walk in
// the row of prefix[b] stands; prefix elements past the frame's slots (an
// arity above skip.MaxSetSize+1) are tested by within.
//
//fod:hotpath
func (l *ballLoc) nextOpening(c *compRT, prefix []graph.V, lower graph.V, fr *frame) graph.V {
	if fr == nil {
		fr = new(frame)
	}
	walked := prefix[:min(len(prefix), len(fr.kat))]
	rest := prefix[len(walked):]
	i := int(fr.at)
	if !c.startsAt(lower, i) {
		i = c.inStart.Rank(lower)
	}
scan:
	for ; i < len(c.starter); i++ {
		v := int32(c.starter[i])
		for b, p := range walked {
			row := l.rows.Row(p)
			at := lowerBound32(row, v, int(fr.kat[b]))
			if at < len(row) && row[at] == v {
				fr.kat[b] = int32(at + 1)
				continue scan
			}
			fr.kat[b] = int32(at)
		}
		for _, p := range rest {
			if l.within(graph.V(v), p) {
				continue scan
			}
		}
		fr.at = int32(i + 1)
		return graph.V(v)
	}
	fr.at = int32(len(c.starter))
	return -1
}

//fod:hotpath
func (l *ballLoc) compBall(anchor graph.V) []int32 { return l.comp.Row(anchor) }

func (l *ballLoc) near(a graph.V, _ *rowScratch) []int32 { return l.rows.Row(a) }

// indexStarter has nothing to derive: nextOpening scans the list itself.
func (l *ballLoc) indexStarter(_ *compRT, _ int, saved *CompParts, _ *par.Pool, _ *obs.Span) error {
	if saved != nil && saved.Skip != nil {
		return fmt.Errorf("carries a skip table, which the ball locality has no use for")
	}
	return nil
}

func (l *ballLoc) distTester() fo.DistTester { return nil }

func (l *ballLoc) explain(sb *strings.Builder) {
	fmt.Fprintf(sb, "  balls: radius %d (%d entries), completion radius %d (%d entries)\n",
		l.r, l.rows.Cells(), l.compR, l.comp.Cells())
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

// startsAt reports whether at is the index in c.starter of the first
// starter ≥ x: c.starter[at−1] < x ≤ c.starter[at]. at is where a caller
// expects it — the position after the one it last read — and when it is
// not, stale or out of range, the index is c.inStart.Rank(x): three reads
// of the starter set, never an answer changed. The check is a function of
// its own, the rank a call beside it, so that the check inlines into both
// nextOpenings.
//
//fod:hotpath
func (c *compRT) startsAt(x graph.V, at int) bool {
	s := c.starter
	return uint(at) <= uint(len(s)) && (at == 0 || s[at-1] < x) && (at == len(s) || x <= s[at])
}

// lowerBound32 returns the smallest index i with s[i] ≥ x in a sorted
// int32 list — a per-kernel starter list, which is the cover's row or cut
// from it, or a ball row — taking at, the caller's guess, when s[at−1] <
// x ≤ s[at] shows it right and searching otherwise.
//
//fod:hotpath
func lowerBound32(s []int32, x int32, at int) int {
	if uint(at) <= uint(len(s)) && (at == 0 || s[at-1] < x) && (at == len(s) || x <= s[at]) {
		return at
	}
	return searchInt32(s, x)
}
