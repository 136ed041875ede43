package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/lowdeg"
)

// engine is the one contract an Index answers through. Every Index method
// talks to this interface only; which concrete engine is behind it is
// known to newEngine (construction), to the two adapters below (ApplyEdits
// must name the concrete type — Go has no covariant returns) and to
// WriteSnapshot's capability assertion.
//
// A third engine is added by implementing core.ClauseStepper plus the
// methods below, wrapping it in an adapter like coreEngine, and giving
// newEngine one more case. Optional capabilities are declared by
// implementing them, never by a kind test: today that is snapshotParter
// (only the core engine persists).
type engine interface {
	NextGeq(a []int) ([]int, bool)
	Test(a []int) bool
	NextLast(prefix []int, b int) (int, bool)
	IteratorFrom(a []int) *core.Iterator
	Enumerate(yield func([]int) bool)
	CountCtx(ctx context.Context) (int, error)
	FastCount() (int, bool)
	Stats() core.Stats
	Obs() *Metrics
	Explain() string
	Graph() *Graph

	// applyEdits returns the engine over the edited graph, or the receiver
	// itself when the batch nets out to the identity.
	applyEdits(ctx context.Context, edits []Edit) (engine, error)
}

// snapshotParter is the optional persistence capability.
type snapshotParter interface{ SnapshotParts() core.EngineParts }

// newEngine runs the preprocessing of the selected engine kind.
func newEngine(ctx context.Context, g *Graph, lq *core.LocalQuery, kind EngineKind, opt IndexOptions) (engine, error) {
	if kind == EngineLowDeg {
		e, err := lowdeg.Preprocess(g, lq, lowdeg.Options{Parallelism: opt.Parallelism, Obs: opt.Metrics, Ctx: ctx})
		if err != nil {
			return nil, err
		}
		return lowdegEngine{e}, nil
	}
	e, err := core.Preprocess(g, lq, core.Options{Parallelism: opt.Parallelism, Obs: opt.Metrics, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return coreEngine{e}, nil
}

// coreEngine adapts the general nowhere-dense engine.
type coreEngine struct{ *core.Engine }

func (c coreEngine) applyEdits(ctx context.Context, edits []Edit) (engine, error) {
	e2, err := c.Engine.ApplyEdits(ctx, edits)
	if err != nil {
		return nil, err
	}
	return coreEngine{e2}, nil
}

// lowdegEngine adapts the bounded-degree engine. It has no incremental
// path — a real edit is a full (but linear, hence cheap) rebuild — and no
// SnapshotParts: its linear build makes persisting pointless.
type lowdegEngine struct{ *lowdeg.Engine }

func (l lowdegEngine) applyEdits(ctx context.Context, edits []Edit) (engine, error) {
	e2, err := l.Engine.ApplyEdits(ctx, edits)
	if err != nil {
		return nil, err
	}
	return lowdegEngine{e2}, nil
}

// Stats maps the lowdeg statistics onto the unified view: the cover,
// kernel and skip fields stay zero (that engine builds none of them).
func (l lowdegEngine) Stats() core.Stats {
	ls := l.Engine.Stats()
	return core.Stats{
		StarterSizes:  ls.StarterSizes,
		Candidates:    ls.Candidates,
		DeadEnds:      ls.DeadEnds,
		LocalEvals:    ls.LocalEvals,
		LocalEvalHits: ls.LocalEvalHits,
		Workers:       ls.Workers,
		StarterWall:   ls.StarterWall,
		Mutations:     ls.Mutations,
		MutRebuilds:   ls.MutRebuilds,
	}
}
