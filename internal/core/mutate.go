// Engine mutation: ApplyEdits derives the Theorem 2.3 index of an edited
// graph from the existing one, recomputing only what the edits can reach.
//
// The paper's dynamic claim (§3, Storing Theorem, and the n^ε update
// discussion) is that a single edit invalidates only the structure within
// a bounded radius of its endpoints. ApplyEdits realizes that layer by
// layer:
//
//   - graph: CSR rows of the endpoints are respliced (graph.Patch).
//   - distance index: ball rows within distR of an endpoint (dist.Patch).
//   - cover: containment repairs and exact kernel recomputation for bags
//     within reach of an endpoint (cover.Patch), with materialized
//     Storing-Theorem structures cloned and delta-updated via the O(n^ε)
//     Set/Delete of Theorem 3.1.
//   - starters: inStart[v] depends only on structure within
//     R(k−1) + ρ + distR of v (the component completion search spans
//     R(k−1), local evaluation adds ρ, distance atoms add distR), so only
//     vertices within D = Rk + ρ + distR of an edited vertex are re-tested.
//   - skip pointers: served through the delta overlay of internal/skip —
//     the old SC tables stay the base; the eligibility delta is the
//     starter diff ∪ the cover patch's KernelDelta.
//
// Every derived structure is copy-on-write: the receiver engine is never
// modified and keeps answering for its own version with byte-identical
// results — this is the MVCC read side the repro facade builds on.
//
// When an edit is not local — the cover or distance layouts refuse to
// patch, a clause guard flips, the accumulated skip delta outgrows its
// threshold, or the query is a hand-built non-guarded one — ApplyEdits
// falls back to a full Preprocess. Correctness never depends on the patch
// being taken; the differential and fuzz tests in this package compare
// both paths against each other.
package core

import (
	"context"
	"sort"
	"time"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/skip"
)

// ApplyEdits returns a new engine answering the query over the edited
// graph. The receiver is unchanged and remains fully usable (snapshot
// isolation); the two engines share every structure the edits did not
// reach. Enumeration over the result is byte-identical to enumeration
// over Preprocess(Patch(g, edits), q).
func (e *Engine) ApplyEdits(ctx context.Context, edits []graph.Edit) (*Engine, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	gOld := e.g
	gNew, err := graph.Patch(gOld, edits)
	if err != nil {
		return nil, err
	}

	// Effective touch sets: edits that net to no-ops reach nothing.
	edgeSrcs, colorChanged := effectiveTouch(gOld, gNew, edits)
	if len(edgeSrcs) == 0 && len(colorChanged) == 0 {
		// The batch nets out to the identity; the current engine IS the
		// engine of the "new" version.
		return e, nil
	}

	if !e.q.Guarded {
		// Hand-built queries evaluate inside materialized bag subgraphs
		// (bagSubs); patching those buys little over rebuilding. They are
		// also outside the compiler's certification, so take the simple
		// correct path.
		return e.rebuilt(ctx, gNew, start)
	}

	// Clause guards (the ξ^i_τ sentences of Theorem 5.4) are evaluated
	// per version; if the edit flips any guard the clause set changes
	// structurally and a patched engine has no frame to patch into.
	if e.q.Guards != nil {
		var live []int
		for ci := range e.q.Clauses {
			if gd := e.q.Guards[ci]; gd != nil {
				holds := fo.NewEvaluator(gNew).Eval(gd.Sentence, fo.Env{})
				if holds == gd.Negated {
					continue
				}
			}
			live = append(live, ci)
		}
		if !equalInts(live, e.liveIdx) {
			return e.rebuilt(ctx, gNew, start)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Distance index. distR is a function of the query alone, recomputed
	// exactly as Preprocess derives it.
	distR := e.r
	for ci := range e.q.Clauses {
		for li := range e.q.Clauses[ci].Locals {
			if d := fo.MaxDistConstant(e.q.Clauses[ci].Locals[li].Psi); d > distR {
				distR = d
			}
		}
	}
	dixNew, ok := dist.Patch(e.dix, gOld, gNew, edgeSrcs)
	if !ok {
		dixNew = dist.New(gNew, distR, dist.Options{Workers: e.stats.Workers})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cover with exact kernels. A refusal (edit avalanche) means the edit
	// is not local at cover scale; rebuilding everything is then honest.
	covNew, info, ok := e.cov.Patch(gOld, gNew, edgeSrcs)
	if !ok {
		return e.rebuilt(ctx, gNew, start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e2 := &Engine{
		g: gNew, q: e.q, k: e.k, r: e.r, rho: e.rho,
		dix: dixNew, cov: covNew, obsReg: e.obsReg,
	}
	e2.gbfs = newScratchPool(gNew)
	e2.evPool.New = func() any {
		ev := fo.NewEvaluator(gNew)
		ev.UseDistTester(e2.dix)
		return ev
	}
	e2.envPool.New = func() any { return fo.Env{} }
	e2.liveIdx = append([]int(nil), e.liveIdx...)
	e2.stats = Stats{
		CoverRadius: e.stats.CoverRadius,
		CoverBags:   covNew.NumBags(),
		CoverDegree: covNew.Degree(),
		Workers:     e.stats.Workers,
		Mutations:   e.stats.Mutations + 1,
		MutRebuilds: e.stats.MutRebuilds,
	}

	// Starter-affected region: D = Rk + ρ + distR around every effectively
	// edited vertex, in the old and the new graph (R(k−1) + ρ + distR is
	// the exact reach; the extra R is safety margin at negligible cost).
	touched := append(append([]graph.V(nil), edgeSrcs...), colorChanged...)
	sort.Ints(touched)
	D := e.r*e.k + e.rho + distR
	n := gNew.N()
	inAffected := make([]bool, n)
	var affected []graph.V
	for _, g := range []*graph.Graph{gOld, gNew} {
		bfs := graph.NewBFS(g)
		for _, w := range bfs.BallMulti(touched, D) {
			if !inAffected[w] {
				inAffected[w] = true
				affected = append(affected, int(w))
			}
		}
	}
	sort.Ints(affected)
	e2.stats.MutAffected = len(affected)

	pool := par.NewPool(e.stats.Workers)
	for _, rt := range e.clauses {
		rt2 := &clauseRT{clause: rt.clause, compOf: rt.compOf, firstOf: rt.firstOf}
		for _, c := range rt.comps {
			c2, err := e2.patchComp(ctx, rt2, c, covNew, info, affected, pool)
			if err != nil {
				return nil, err
			}
			rt2.comps = append(rt2.comps, c2)
			e2.stats.StarterSizes = append(e2.stats.StarterSizes, len(c2.starter))
		}
		e2.clauses = append(e2.clauses, rt2)
	}
	e2.tallySkip()
	e2.stats.MutWall = time.Since(start)
	e2.exportInstruments(e.obsReg)
	return e2, nil
}

// patchComp derives the runtime of one component of the clause rt2 of the
// mutated engine: re-test starters in the affected region, overlay (or
// rebuild) the skip pointers, and resplice the per-kernel starter lists.
func (e2 *Engine) patchComp(ctx context.Context, rt2 *clauseRT, c *compRT, covNew *cover.Cover, info *cover.PatchInfo, affected []graph.V, pool *par.Pool) (*compRT, error) {
	c2 := &compRT{
		positions: c.positions,
		typ:       c.typ,
		psi:       c.psi,
		vars:      c.vars,
		last:      c.last,
	}
	// Copy-on-write starter bitmap; only the affected slots are re-tested.
	// starterReady stays false during the recompute so localEval cannot
	// short-circuit through the half-updated bitmap.
	c2.inStart = append([]bool(nil), c.inStart...)
	singleton := len(c2.positions) == 1
	pool.ForEach(len(affected), func(i int) {
		v := affected[i]
		if singleton {
			c2.inStart[v] = e2.localEval(c2, []graph.V{v})
		} else {
			c2.inStart[v] = e2.completesComponent(c2, []graph.V{v})
		}
	})
	var starterDiff []graph.V
	for _, v := range affected {
		if c.inStart[v] != c2.inStart[v] {
			starterDiff = append(starterDiff, v)
		}
	}
	c2.starter = make([]graph.V, 0, len(c.starter)+len(starterDiff))
	for v, in := range c2.inStart {
		if in {
			c2.starter = append(c2.starter, v)
		}
	}
	c2.starterReady = singleton
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Skip pointers: overlay while the accumulated delta stays small — the
	// overlay is this component's own, the base under it stays shared and
	// unwritten — and rebuild past the threshold (the overlay's scan cost
	// is O(|delta|)), once per distinct list as in Preprocess: pointers an
	// earlier component of e2 holds for an equal list are exact for this
	// one too.
	if e2.k >= 2 {
		delta := mergeSortedV(starterDiff, info.KernelDelta)
		if c.skip.DeltaLen()+len(delta) <= skip.RebuildThreshold(e2.g.N()) {
			c2.skip = c.skip.WithDelta(covNew, c2.starter, delta)
		} else if d := e2.sameStarter(rt2, c2.starter); d != nil {
			c2.skip = d.skip
		} else {
			c2.skip = skip.New(e2.g, covNew, e2.k-1, c2.starter)
		}
	}

	// byKernel rows change only for bags whose kernel changed, bags the
	// patch created, and bags whose kernel contains a starter-diff vertex.
	nb := covNew.NumBags()
	c2.byKernel = make([][]graph.V, nb)
	copy(c2.byKernel, c.byKernel)
	redo := make(map[int]bool, len(info.KernelChanged)+len(info.NewBags))
	for _, b := range info.KernelChanged {
		redo[b] = true
	}
	for _, b := range info.NewBags {
		redo[b] = true
	}
	for _, v := range starterDiff {
		for _, b := range covNew.KernelsOf(v) {
			redo[int(b)] = true
		}
	}
	redoList := make([]int, 0, len(redo))
	for b := range redo { //fod:sorted — sorted immediately below
		redoList = append(redoList, b)
	}
	sort.Ints(redoList)
	for _, b := range redoList {
		var row []graph.V
		for _, v := range covNew.Kernel(b) {
			if c2.inStart[v] {
				row = append(row, v)
			}
		}
		c2.byKernel[b] = row
	}
	return c2, nil
}

// rebuilt is the full-Preprocess fallback, carrying the mutation counters
// forward so Stats still reports the engine's history.
func (e *Engine) rebuilt(ctx context.Context, gNew *graph.Graph, start time.Time) (*Engine, error) {
	e2, err := Preprocess(gNew, e.q, Options{
		Parallelism: e.stats.Workers,
		Ctx:         ctx,
		Obs:         e.obsReg,
	})
	if err != nil {
		return nil, err
	}
	e2.stats.Mutations = e.stats.Mutations + 1
	e2.stats.MutRebuilds = e.stats.MutRebuilds + 1
	e2.stats.MutWall = time.Since(start)
	return e2, nil
}

// effectiveTouch compares old and new graphs at the edited positions and
// returns the endpoints of edges that actually changed and the vertices
// whose color set actually changed, each sorted and deduplicated.
func effectiveTouch(gOld, gNew *graph.Graph, edits []graph.Edit) (edgeSrcs, colorChanged []graph.V) {
	es := map[graph.V]bool{}
	cs := map[graph.V]bool{}
	for _, ed := range edits {
		switch ed.Op {
		case graph.AddEdge, graph.RemoveEdge:
			if gOld.HasEdge(ed.U, ed.V) != gNew.HasEdge(ed.U, ed.V) {
				es[ed.U] = true
				es[ed.V] = true
			}
		case graph.AddColor, graph.RemoveColor:
			if gOld.HasColor(ed.U, ed.Color) != gNew.HasColor(ed.U, ed.Color) {
				cs[ed.U] = true
			}
		}
	}
	for v := range es { //fod:sorted — sorted immediately below
		edgeSrcs = append(edgeSrcs, v)
	}
	for v := range cs { //fod:sorted — sorted immediately below
		if !es[v] {
			colorChanged = append(colorChanged, v)
		}
	}
	sort.Ints(edgeSrcs)
	sort.Ints(colorChanged)
	return edgeSrcs, colorChanged
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeSortedV unions two sorted vertex lists.
func mergeSortedV(a, b []graph.V) []graph.V {
	out := make([]graph.V, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
