// Engine mutation: ApplyEdits derives the Theorem 2.3 index of an edited
// graph from the existing one, recomputing only what the edits can reach.
//
// The paper's dynamic claim (§3, Storing Theorem, and the n^ε update
// discussion) is that a single edit invalidates only the structure within
// a bounded radius of its endpoints. ApplyEdits realizes that layer by
// layer, the same way over either locality:
//
//   - graph: adjacency rows of the endpoints are rewritten (graph.Patch).
//   - locality (locality.patch). Cover: ball rows of the distance index
//     within distR of an endpoint (dist.Patch), then containment repairs
//     and exact kernel recomputation for bags within reach of an endpoint
//     (cover.Patch), which shares every untouched slice with the old cover
//     and rewrites the memberOf/kernelOf inverted lists only at the
//     vertices of a new or re-kerneled bag (memberOf is derived from the
//     bags by the first edge patch of a built or restored cover). Balls: the sorted R- and
//     R(k−1)-rows of the vertices within that radius of an endpoint.
//     All of these rows live in graph.Rows stores: a patch rebuilds the
//     64-row blocks holding a rewritten row and shares the others.
//   - starters, component by component: a quantifier-free singleton reads
//     the colours of v and is re-tested where a colour changed (nowhere,
//     for a batch of edges); for any other, inStart[v] depends only on
//     structure within starterReach of v — a quantified formula sees the
//     ρ-ball, distance atoms look a constant further, a multi-position
//     component first searches the R(k−1)-ball for completions — so only
//     vertices that close to an edited vertex are. The partner row of v (a
//     component of two positions) depends on the same region: the rows of
//     those vertices are recomputed and patched into the row store.
//   - what the locality derives from a starter list (starterPatch). Cover:
//     skip pointers served through the delta overlay of internal/skip — the
//     old SC tables stay the base; the eligibility delta is the starter
//     diff ∪ the cover patch's KernelDelta — and the per-kernel lists
//     respliced. Balls: nothing, Case I scans the list itself.
//
// Every derived structure is copy-on-write, and at the grain of what the
// write dirtied: row stores (graph.Rows) copy the 64-row blocks holding a
// replaced row, and the per-vertex and per-bag arrays — colour words,
// the words and counts of the starter sets, the cover's assignment,
// centers and row spines, the per-kernel lists — are graph.Paged, which
// copies the pages holding a written entry. The sorted starter list of a
// component whose starters changed is copied whole. The receiver engine is
// never modified and keeps answering for its own version with
// byte-identical results — this is the MVCC read side the repro facade
// builds on.
//
// When an edit is not local — the locality refuses to patch (a cover
// avalanche), a clause guard flips, or the query is a hand-built
// non-guarded one — ApplyEdits falls back to a full Preprocess of the same
// locality. Correctness never depends on the patch being taken; the
// differential and fuzz tests in this package compare both paths against
// each other, over both localities.
package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/par"
)

// ApplyEdits returns a new engine answering the query over the edited
// graph. The receiver is unchanged and remains fully usable (snapshot
// isolation); the two engines share every structure the edits did not
// reach. Enumeration over the result is byte-identical to enumeration
// over a Preprocess of Patch(g, edits) with the same locality, and so is
// its snapshot. It is "patch the graph, then ApplyEditsTo".
func (e *Engine) ApplyEdits(ctx context.Context, edits []graph.Edit) (*Engine, error) {
	gNew, err := graph.Patch(e.g, edits)
	if err != nil {
		return nil, err
	}
	return e.ApplyEditsTo(ctx, gNew, edits)
}

// ApplyEditsTo is ApplyEdits for a caller that holds the edited graph
// already: gNew must be graph.Patch of the engine's graph, or of an equal
// one, under edits. The result answers over gNew itself, so a server that
// versions its graphs patches each once and shares it with its indexes.
func (e *Engine) ApplyEditsTo(ctx context.Context, gNew *graph.Graph, edits []graph.Edit) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if gNew.N() != e.g.N() || gNew.NumColors() != e.g.NumColors() {
		return nil, fmt.Errorf("core: ApplyEditsTo: %v is no edit of %v", gNew, e.g)
	}

	// Effective touch sets: edits that net to no-ops reach nothing.
	edgeSrcs, colorChanged := effectiveTouch(e.g, gNew, edits)
	if len(edgeSrcs) == 0 && len(colorChanged) == 0 {
		// The batch nets out to the identity; the current engine IS the
		// engine of the "new" version.
		return e, nil
	}

	// Hand-built queries are outside the compiler's certification, so they
	// take the simple correct path. Clause guards (the ξ^i_τ sentences of
	// Theorem 5.4) are evaluated per version; if the edit flips any guard
	// the clause set changes structurally and a patched engine has no frame
	// to patch into.
	if !e.q.Guarded || !slices.Equal(liveClauses(gNew, e.q), e.liveIdx) {
		return e.rebuilt(ctx, gNew)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The phases mirror Preprocess's span tree under "mutate", so a trace
	// shows a write phase by phase whichever locality serves it.
	root := e.obsReg.StartSpan(ctx, "mutate")
	defer root.End()
	e2 := newEngine(gNew, e.q, e.kind, e.obsReg, e.scratch)
	e2.liveIdx = e.liveIdx
	e2.stats = Stats{
		Workers:     e.stats.Workers,
		Mutations:   e.stats.Mutations + 1,
		MutRebuilds: e.stats.MutRebuilds,
	}
	pool := par.NewPool(e.stats.Workers)
	loc, reindex, ok := e.loc.patch(e, e2, edgeSrcs, pool, root)
	if !ok {
		return e.rebuilt(ctx, gNew)
	}
	e2.loc = loc
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// What a component re-tests: the vertices whose colours changed when it
	// reads nothing else, and otherwise the region within its reach of an
	// effectively edited vertex, in the old or the new graph — searched once
	// per distinct reach.
	touched := sortedUnion(edgeSrcs, colorChanged)
	type region struct {
		reach int
		vs    []graph.V
	}
	var regions []region
	affectedOf := func(c *compRT) []graph.V {
		if e.readsOwnColours(c) {
			return colorChanged
		}
		reach := e.starterReach(c)
		for _, r := range regions {
			if r.reach == reach {
				return r.vs
			}
		}
		vs := graph.ReachEither(e.g, gNew, touched, reach)
		regions = append(regions, region{reach, vs})
		return vs
	}
	e2.stats.MutAffected = len(touched)

	for _, rt := range e.clauses {
		rt2 := &clauseRT{clause: rt.clause, compOf: rt.compOf, firstOf: rt.firstOf}
		for _, c := range rt.comps {
			sp := root.Child("starter")
			affected := affectedOf(c)
			e2.stats.MutAffected = max(e2.stats.MutAffected, len(affected))
			c2, starterDiff := e2.retest(c, affected, pool)
			reindex(rt2, c2, c, starterDiff)
			sp.End()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rt2.comps = append(rt2.comps, c2)
			e2.stats.StarterSizes = append(e2.stats.StarterSizes, len(c2.starter))
		}
		e2.clauses = append(e2.clauses, rt2)
	}
	e2.tally()
	return e2, nil
}

// starterReach bounds the distance from v to anything inStart[v] of c is
// computed from, for a component that reads more than the colours of v
// (readsOwnColours). A quantifier-free ψ reads its values, a quantified one
// ranges over their ρ-ball, and the distance atoms of either look their
// constant further; a singleton component has v for its value, a larger one
// the candidates in the R(k−1)-ball of v, type-checked by distance tests of
// radius R. No margin is added: on an expanding graph every unit multiplies
// the region (bdeg-32k, far2: 13 410 vertices at Rk + ρ + distR, about 50
// at ρ).
func (e *Engine) starterReach(c *compRT) int {
	d := fo.MaxDistConstant(c.psi)
	if !c.quantFree {
		d += e.rho
	}
	if len(c.positions) > 1 {
		d = compRadius(e.q) + max(e.r, d)
	}
	return d
}

// retest derives the successor of component c in the mutated engine e2:
// its starter set re-tested on the affected vertices only — for a
// component of two positions, read off their recomputed partner rows — and
// shared with c but for the pages where a vertex changed side. starterDiff
// lists, ascending, where the two sets differ; the starter list is c's
// with those vertices merged in or left out, each at its rank in c's set.
func (e2 *Engine) retest(c *compRT, affected []graph.V, pool *par.Pool) (c2 *compRT, starterDiff []graph.V) {
	c2 = &compRT{
		positions: c.positions,
		typ:       c.typ,
		psi:       c.psi,
		vars:      c.vars,
		last:      c.last,
		quantFree: c.quantFree,
	}
	// Re-test the affected vertices; the list is copied, and the set's pages
	// holding them, only if one of them changed side.
	now := make([]bool, len(affected))
	if c.paired() {
		e2.repartner(c2, c, affected, now)
	} else {
		pool.ForEach(len(affected), func(i int) { now[i] = e2.opens(c2, affected[i]) })
	}
	for i, v := range affected {
		if c.inStart.Has(v) != now[i] {
			starterDiff = append(starterDiff, v)
		}
	}
	if len(starterDiff) == 0 {
		c2.inStart, c2.starter = c.inStart, c.starter
		return c2, nil
	}
	in := c.inStart.Edit()
	for _, v := range starterDiff {
		in.Flip(v)
	}
	c2.inStart = in.RankSet()
	c2.starter = make([]graph.V, 0, c2.inStart.Count())
	from := 0
	for _, v := range starterDiff {
		at := c.inStart.Rank(v)
		c2.starter = append(c2.starter, c.starter[from:at]...)
		from = at
		if c2.inStart.Has(v) {
			c2.starter = append(c2.starter, v)
		} else {
			from++ // v leaves: it is c.starter[at]
		}
	}
	c2.starter = append(c2.starter, c.starter[from:]...)
	return c2, starterDiff
}

// rebuilt is the full-Preprocess fallback on the same locality.
func (e *Engine) rebuilt(ctx context.Context, gNew *graph.Graph) (*Engine, error) {
	return e.RebuiltOn(ctx, gNew, func(g *graph.Graph, q *LocalQuery, opt Options) (*Engine, error) {
		return preprocess(g, q, opt, e.kind)
	})
}

// RebuiltOn returns the successor of e over g — the graph an ApplyEdits of
// e produced — built from scratch by build (Preprocess, PreprocessBalls).
// It is how a caller that routes between localities moves the next version
// to the other one: e's mutation history carried forward, one more
// mutation and one more rebuild counted.
func (e *Engine) RebuiltOn(ctx context.Context, g *graph.Graph, build func(*graph.Graph, *LocalQuery, Options) (*Engine, error)) (*Engine, error) {
	e2, err := build(g, e.q, Options{
		Parallelism: e.stats.Workers,
		Ctx:         ctx,
		Obs:         e.obsReg,
	})
	if err != nil {
		return nil, err
	}
	e2.stats.Mutations = e.stats.Mutations + 1
	e2.stats.MutRebuilds = e.stats.MutRebuilds + 1
	return e2, nil
}

// effectiveTouch compares old and new graphs at the edited positions and
// returns the endpoints of edges that actually changed and the vertices
// whose color set actually changed (an endpoint may be among them), each
// sorted and deduplicated.
func effectiveTouch(gOld, gNew *graph.Graph, edits []graph.Edit) (edgeSrcs, colorChanged []graph.V) {
	for _, ed := range edits {
		switch ed.Op {
		case graph.AddEdge, graph.RemoveEdge:
			if gOld.HasEdge(ed.U, ed.V) != gNew.HasEdge(ed.U, ed.V) {
				edgeSrcs = append(edgeSrcs, ed.U, ed.V)
			}
		case graph.AddColor, graph.RemoveColor:
			if gOld.HasColor(ed.U, ed.Color) != gNew.HasColor(ed.U, ed.Color) {
				colorChanged = append(colorChanged, ed.U)
			}
		}
	}
	return sortedUnion(edgeSrcs, nil), sortedUnion(colorChanged, nil)
}

// sortedUnion returns the vertices of a and b ascending, each once. Its inputs
// are what one write touches — tens of vertices — so it sorts.
func sortedUnion(a, b []graph.V) []graph.V {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}
