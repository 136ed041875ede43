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
// threshold, the query is a hand-built non-guarded one, or the engine runs
// on the ball locality, which has nothing to patch — ApplyEdits falls back
// to a full Preprocess of the same locality. Correctness never depends on
// the patch being taken; the differential and fuzz tests in this package
// compare both paths against each other.
package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"repro/internal/cover"
	"repro/internal/dist"
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

	// Only the cover locality of a guarded query patches. The ball
	// locality's build is linear with a small constant, so its documented
	// route is a rebuild on the patched graph; hand-built queries are
	// outside the compiler's certification, so they take the simple
	// correct path too.
	old, ok := e.loc.(*coverLoc)
	if !ok || !e.q.Guarded {
		return e.rebuilt(ctx, gNew, start)
	}

	// Clause guards (the ξ^i_τ sentences of Theorem 5.4) are evaluated
	// per version; if the edit flips any guard the clause set changes
	// structurally and a patched engine has no frame to patch into.
	if !slices.Equal(liveClauses(gNew, e.q), e.liveIdx) {
		return e.rebuilt(ctx, gNew, start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e2 := newEngine(gNew, e.q, e.newLoc, e.obsReg)
	loc := e2.newCoverLoc()
	e2.loc = loc

	// Distance index; its radius is a function of the query alone.
	distR := distRadius(e.q)
	if loc.dix, ok = dist.Patch(old.dix, gOld, gNew, edgeSrcs); !ok {
		loc.dix = dist.New(gNew, distR, dist.Options{Workers: e.stats.Workers})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cover with exact kernels. A refusal (edit avalanche) means the edit
	// is not local at cover scale; rebuilding everything is then honest.
	var info *cover.PatchInfo
	if loc.cov, info, ok = old.cov.Patch(gOld, gNew, edgeSrcs); !ok {
		return e.rebuilt(ctx, gNew, start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e2.liveIdx = e.liveIdx
	e2.stats = Stats{
		Workers:     e.stats.Workers,
		Mutations:   e.stats.Mutations + 1,
		MutRebuilds: e.stats.MutRebuilds,
	}
	e2.coverStats(loc.cov)

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
			c2, err := e2.patchComp(ctx, rt2, c, loc.cov, info, affected, pool)
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
	// starterReady stays false until finishStarter, so nothing answers from
	// the half-updated bitmap.
	c2.inStart = slices.Clone(c.inStart)
	pool.ForEach(len(affected), func(i int) { c2.inStart[affected[i]] = e2.opens(c2, affected[i]) })
	var starterDiff []graph.V
	for _, v := range affected {
		if c.inStart[v] != c2.inStart[v] {
			starterDiff = append(starterDiff, v)
		}
	}
	c2.starter = make([]graph.V, 0, len(c.starter)+len(starterDiff))
	c2.finishStarter()
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
	e2, err := preprocess(gNew, e.q, Options{
		Parallelism: e.stats.Workers,
		Ctx:         ctx,
		Obs:         e.obsReg,
	}, e.newLoc)
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
