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
// Preprocess computes by search (the locality's structures, guard
// outcomes, starter lists), and nothing it can rederive cheaply. The query
// itself is NOT part of it — snapshots carry the query source and
// recompile it, so RestoreEngine takes the query as input and revalidates
// the parts against it.
type EngineParts struct {
	// LiveIdx are the indices into the query's clause list that survived
	// their guards at build time, in increasing order. Restoring replays
	// this decision instead of re-running the guard sentences.
	LiveIdx []int
	// Locality names the locality the engine ran on, and with it which of
	// the payloads below is filled: Cover and Dist (and the Skip tables in
	// Clauses) under LocCover, Balls under LocBalls.
	Locality string
	Cover    cover.Parts
	Dist     dist.Parts
	Balls    BallParts
	// Clauses is indexed parallel to LiveIdx; each entry holds one
	// CompParts per component of that clause.
	Clauses [][]CompParts
	// SkipEverywhere says the parts are those of a file older than format 4,
	// which holds a table at k = arity − 1 under every component: one that no
	// component can ask (starterList) is left unread instead of refused.
	SkipEverywhere bool
}

// BallParts is the ball locality: the sorted N_R(v) and N_{R(k−1)}(v) of
// every vertex as CSR arrays. COff and CAdj are nil when the two radii
// coincide and the locality reads the R rows for both.
type BallParts struct {
	R, CompR   int
	ROff, RAdj []int32
	COff, CAdj []int32
}

// CompParts is the per-component payload: the starter list (Step 12 of
// the paper), under the cover locality the Lemma 5.8 skip-pointer table of
// the list when one of its components opens behind a prefix, and for a
// component of two positions its partner rows.
type CompParts struct {
	Starter  []int32     // sorted vertices that can open the component
	Skip     *skip.Parts // nil for a list nobody asks with a prefix and under the ball locality
	Partners *RowParts   // nil unless the component has two positions, and in files older than format 3
}

// RowParts is a row store as one CSR pair: row v is Adj[Off[v]:Off[v+1]].
type RowParts struct{ Off, Adj []int32 }

// SnapshotParts extracts the serialized form of the engine; see
// locality.parts for what each locality contributes.
//
// It takes no ctx: the loops here are over the query's clauses and
// components (query-size-bounded), the part-extraction calls inside are
// single passes over already-built structures, and the serve snapshot
// tier checks its ctx between tiers, not inside the codec.
func (e *Engine) SnapshotParts() EngineParts {
	p := EngineParts{LiveIdx: append([]int(nil), e.liveIdx...), Locality: e.kind.name}
	for _, rt := range e.clauses {
		comps := make([]CompParts, len(rt.comps))
		for i, c := range rt.comps {
			comps[i].Starter = make([]int32, len(c.starter))
			for j, v := range c.starter {
				comps[i].Starter[j] = int32(v)
			}
			if c.paired() {
				off, adj := c.partners.Flat()
				comps[i].Partners = &RowParts{Off: off, Adj: adj}
			}
		}
		p.Clauses = append(p.Clauses, comps)
	}
	e.loc.parts(e, &p)
	return p
}

// RestoreEngine rebuilds a ready-to-answer engine for (g, q) from its
// serialized parts. It reruns only the cheap deterministic derivations
// and skips every search phase of Preprocess — distance BFS, cover
// construction or ball BFS, guard evaluation, starter evaluation, the partner
// rows (which a file older than format 3 does not carry: those it builds),
// and the SC sweep — so restoring is linear in the snapshot with small
// constants.
// All cross-structure invariants the answering phase relies on are
// revalidated against g and q, so a snapshot from a different graph or
// query errors out instead of producing wrong answers or panics.
func RestoreEngine(g *graph.Graph, q *LocalQuery, p EngineParts, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	i := slices.IndexFunc(locKinds, func(k *locKind) bool { return k.name == p.Locality })
	if i < 0 {
		return nil, fmt.Errorf("core: snapshot of unknown locality %q", p.Locality)
	}
	e := newEngine(g, q, locKinds[i], opt.Obs, nil)
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers)
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
	if e.loc, err = e.kind.restore(e, &p, root); err != nil {
		return nil, err
	}

	sp := root.Child("clauses")
	err = e.restoreClauses(q, &p, pool)
	sp.End()
	if err != nil {
		return nil, err
	}
	root.End()
	e.tally()
	return e, nil
}

// restoreClauses is the two passes of Preprocess over saved lists: the
// clauses with their starter lists, then the plan (starterLists) — a list
// gets the saved table of its components if that answers the bag sets the
// list can be asked, one table when their sections agree word for word, which
// a file written by Preprocess guarantees and a crafted one need not.
func (e *Engine) restoreClauses(q *LocalQuery, p *EngineParts, pool *par.Pool) error {
	if len(p.LiveIdx) != len(p.Clauses) {
		return fmt.Errorf("core: snapshot has %d live indices for %d clause payloads", len(p.LiveIdx), len(p.Clauses))
	}
	saved := map[*compRT]*CompParts{}
	prev := -1
	for i, ci := range p.LiveIdx {
		if ci <= prev || ci >= len(q.Clauses) {
			return fmt.Errorf("core: snapshot live-clause indices not increasing within the query's %d clauses", len(q.Clauses))
		}
		prev = ci
		rt, err := e.restoreClause(&q.Clauses[ci], p.Clauses[i], pool)
		if err != nil {
			return fmt.Errorf("core: clause %d: %w", ci, err)
		}
		for li, c := range rt.comps {
			saved[c] = &p.Clauses[i][li]
		}
		e.clauses = append(e.clauses, rt)
		e.liveIdx = append(e.liveIdx, ci)
	}
	for _, l := range e.starterLists() {
		for i, c := range l.comps {
			cp := *saved[c]
			if l.need == 0 && p.SkipEverywhere {
				cp.Skip = nil
			}
			if j := slices.IndexFunc(l.comps[:i], func(d *compRT) bool { return sameSkip(d.skip, cp.Skip) }); j >= 0 {
				c.shareStarter(l.comps[j])
			} else if err := e.loc.indexStarter(c, l.need, &cp, pool, nil); err != nil {
				return fmt.Errorf("core: component I=%v %w", c.positions, err)
			}
		}
	}
	return nil
}

// restoreClause mirrors buildClause with the starter evaluation replaced by
// snapshot data.
func (e *Engine) restoreClause(cl *Clause, parts []CompParts, pool *par.Pool) (*clauseRT, error) {
	if len(parts) != len(cl.Locals) {
		return nil, fmt.Errorf("%d component payloads for %d components", len(parts), len(cl.Locals))
	}
	rt := e.newClauseRT(cl)
	for li := range cl.Locals {
		cp := &parts[li]
		c := rt.newComp(li)
		c.starter = make([]graph.V, len(cp.Starter))
		prev := int32(-1)
		for i, v := range cp.Starter {
			if v <= prev || int(v) >= e.g.N() {
				return nil, fmt.Errorf("component %d starter list not a sorted vertex list", li)
			}
			prev = v
			c.starter[i] = int(v)
		}
		c.inStart = graph.RankSetOf(e.g.N(), c.starter)
		e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.starter))
		if c.paired() {
			if err := e.adoptPartners(c, cp.Partners, pool); err != nil {
				return nil, fmt.Errorf("component %d %w", li, err)
			}
		} else if cp.Partners != nil {
			return nil, fmt.Errorf("component %d carries partner rows, which only a component of two positions has", li)
		}
		rt.comps = append(rt.comps, c)
	}
	return rt, nil
}

// sameSkip reports whether the table a component holds is the saved one;
// none on both sides is agreement too.
func sameSkip(have *skip.Pointers, saved *skip.Parts) bool {
	if have == nil || saved == nil {
		return have == nil && saved == nil
	}
	a := have.Parts()
	return a.K == saved.K && slices.Equal(a.TableOff, saved.TableOff) && slices.Equal(a.TableRow, saved.TableRow)
}
