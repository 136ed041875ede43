package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/skip"
)

// EngineParts is the serialized form of a preprocessed engine: everything
// Preprocess computes by search (distance recursion, cover and kernels,
// guard outcomes, starter lists, SC-tables), and nothing it can rederive
// cheaply. The query itself is NOT part of it — snapshots carry the query
// source and recompile it, so RestoreEngine takes the query as input and
// revalidates the parts against it.
type EngineParts struct {
	// LiveIdx are the indices into the query's clause list that survived
	// their guards at build time, in increasing order. Restoring replays
	// this decision instead of re-running the guard sentences.
	LiveIdx []int
	Cover   cover.Parts
	Dist    dist.Parts
	// Clauses is indexed parallel to LiveIdx; each entry holds one
	// CompParts per component of that clause.
	Clauses [][]CompParts
}

// CompParts is the per-component payload: the starter list (Step 12 of
// the paper) and, for arity ≥ 2, the Lemma 5.8 skip-pointer table built
// over it.
type CompParts struct {
	Starter []int32     // sorted vertices that can open the component
	Skip    *skip.Parts // nil for unary queries
}

// SnapshotParts extracts the serialized form of the engine. The cover's
// lazy Storing-Theorem membership structures are deliberately NOT
// included: the answering hot path reads the memberOf/kernelOf inverted
// lists (rebuilt from the bag CSRs at restore), the stores are only the
// paper-faithful alternate access path, and their registers are 2–3× the
// size of everything else combined. The restored cover rebuilds them
// lazily under the same sync.Once a fresh build uses, so behavior is
// identical either way.
//
// Only an engine on the cover locality has a serialized form; callers ask
// Snapshottable first.
//
//fod:ctxok the loops here are over the query's clauses and components
// (query-size-bounded); the expensive part-extraction calls inside are
// single passes over already-built structures, and the serve snapshot
// tier checks its ctx between tiers, not inside the codec.
func (e *Engine) SnapshotParts() EngineParts {
	l := e.loc.(*coverLoc)
	p := EngineParts{
		LiveIdx: append([]int(nil), e.liveIdx...),
		Cover:   l.cov.Parts(false),
		Dist:    l.dix.Parts(),
	}
	for _, rt := range e.clauses {
		comps := make([]CompParts, len(rt.comps))
		for i, c := range rt.comps {
			cp := CompParts{Starter: make([]int32, len(c.starter))}
			for j, v := range c.starter {
				cp.Starter[j] = int32(v)
			}
			if sk := c.skip; sk != nil {
				if sk.DeltaLen() > 0 {
					// An overlay answers from the table of an older
					// version plus a correction set the format has no
					// section for; the file gets this version's table.
					sk = skip.New(e.g, l.cov, e.k-1, c.starter)
				}
				sp := sk.Parts()
				cp.Skip = &sp
			}
			comps[i] = cp
		}
		p.Clauses = append(p.Clauses, comps)
	}
	return p
}

// Snapshottable reports whether SnapshotParts may be called. The format
// serializes the cover locality's structures (cover, kernels, distance
// recursion, skip pointers); the ball locality has none of them and a
// build cheap enough that persisting it buys nothing.
func (e *Engine) Snapshottable() bool {
	_, ok := e.loc.(*coverLoc)
	return ok
}

// RestoreEngine rebuilds a ready-to-answer engine for (g, q) from its
// serialized parts. It reruns only the cheap deterministic derivations
// (inverted lists, kernel intersections) and skips
// every search phase of Preprocess — distance BFS, cover construction,
// guard evaluation, starter evaluation, and the SC sweep — so restoring
// is linear in the snapshot with small constants. All cross-structure
// invariants the answering phase relies on are revalidated against g and
// q, so a snapshot from a different graph or query errors out instead of
// producing wrong answers or panics.
func RestoreEngine(g *graph.Graph, q *LocalQuery, p EngineParts, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.K > skip.MaxSetSize+1 {
		return nil, fmt.Errorf("core: arity %d exceeds supported maximum %d", q.K, skip.MaxSetSize+1)
	}
	e := newEngine(g, q, buildCoverLoc, opt.Obs)
	l := e.newCoverLoc()
	e.loc = l
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers).WithMetrics(par.NewMetrics(opt.Obs, "engine.pool"))
	e.stats.Workers = workers
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// The restore phases mirror Preprocess's span tree under "restore"
	// instead of "preprocess", so a trace shows at a glance whether a
	// request paid for a disk load or a full build.
	root := opt.Obs.StartSpan(ctx, "restore")

	var err error
	sp := root.Child("dist")
	l.dix, err = dist.FromParts(g, p.Dist)
	sp.End()
	if err != nil {
		return nil, err
	}
	if distR := distRadius(q); l.dix.R != distR {
		return nil, fmt.Errorf("core: snapshot distance index has radius %d, query needs %d", l.dix.R, distR)
	}

	sp = root.Child("cover")
	l.cov, err = cover.FromPartsObs(g, p.Cover, opt.Obs)
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

	if len(p.LiveIdx) != len(p.Clauses) {
		return nil, fmt.Errorf("core: snapshot has %d live indices for %d clause payloads", len(p.LiveIdx), len(p.Clauses))
	}
	sp = root.Child("clauses")
	prev := -1
	for i, ci := range p.LiveIdx {
		if ci <= prev || ci >= len(q.Clauses) {
			sp.End()
			return nil, fmt.Errorf("core: snapshot live-clause indices not increasing within the query's %d clauses", len(q.Clauses))
		}
		prev = ci
		rt, err := e.restoreClause(&q.Clauses[ci], p.Clauses[i], pool)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("core: clause %d: %w", ci, err)
		}
		e.clauses = append(e.clauses, rt)
		e.liveIdx = append(e.liveIdx, ci)
	}
	sp.End()
	root.End()
	e.tallySkip()
	e.exportInstruments(opt.Obs)
	return e, nil
}

// restoreClause mirrors buildClause with the starter evaluation and SC
// sweep replaced by snapshot data.
func (e *Engine) restoreClause(cl *Clause, parts []CompParts, pool *par.Pool) (*clauseRT, error) {
	if len(parts) != len(cl.Locals) {
		return nil, fmt.Errorf("%d component payloads for %d components", len(parts), len(cl.Locals))
	}
	l := e.loc.(*coverLoc)
	rt := e.newClauseRT(cl)
	for li := range cl.Locals {
		cp := &parts[li]
		c := rt.newComp(li)
		c.inStart = make([]bool, e.g.N())
		c.starter = make([]graph.V, len(cp.Starter))
		prev := int32(-1)
		for i, v := range cp.Starter {
			if v <= prev || int(v) >= e.g.N() {
				return nil, fmt.Errorf("component %d starter list not a sorted vertex list", li)
			}
			prev = v
			c.starter[i] = int(v)
			c.inStart[v] = true
		}
		c.starterReady = len(c.positions) == 1
		e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.starter))
		if e.k >= 2 {
			if cp.Skip == nil {
				return nil, fmt.Errorf("component %d misses its skip table (arity %d)", li, e.k)
			}
			if cp.Skip.K != e.k-1 {
				return nil, fmt.Errorf("component %d skip table has set size %d, arity needs %d", li, cp.Skip.K, e.k-1)
			}
		}
		// Components with equal starter lists share one table, as in
		// Preprocess — when their sections agree word for word, which a
		// file written by Preprocess guarantees and a crafted one need not.
		if d := e.sameStarter(rt, c.starter); d != nil && (e.k < 2 || sameSkipParts(d.skip.Parts(), *cp.Skip)) {
			c.shareStarter(d)
		} else {
			if e.k >= 2 {
				sk, err := skip.FromPartsObs(l.cov, c.starter, *cp.Skip, e.obsReg)
				if err != nil {
					return nil, err
				}
				c.skip = sk
			}
			l.buildKernelLists(c, pool)
		}
		rt.comps = append(rt.comps, c)
	}
	return rt, nil
}

func sameSkipParts(a, b skip.Parts) bool {
	return a.K == b.K && slices.Equal(a.TableOff, b.TableOff) && slices.Equal(a.TableRow, b.TableRow)
}
