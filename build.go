package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
)

// Option tunes Build and the snapshot loaders by filling an IndexOptions.
type Option func(*IndexOptions)

// WithParallelism bounds the preprocessing worker count. 0 (the default)
// selects runtime.GOMAXPROCS(0); 1 forces the sequential build. The
// resulting index is identical for every setting — parallelism only
// changes build wall time.
func WithParallelism(workers int) Option {
	return func(o *IndexOptions) { o.Parallelism = workers }
}

// WithMetrics instruments the index with the given registry; see
// IndexOptions.Metrics. The snapshot loaders and savers record their
// decode, restore and encode spans into it.
func WithMetrics(reg *Metrics) Option {
	return func(o *IndexOptions) { o.Metrics = reg }
}

// WithEngine selects the enumeration engine: EngineCore (the default),
// EngineLowDeg, or EngineAuto, which measures the graph's maximum degree
// and degeneracy and routes bounded-degree inputs to the cheaper
// low-degree engine. The routing decision is recorded on the index; see
// Index.Selection.
func WithEngine(kind EngineKind) Option {
	return func(o *IndexOptions) { o.Engine = kind }
}

// Build performs the pseudo-linear preprocessing of Theorem 2.3 and is the
// single entry point for index construction: context-bounded, tuned by
// functional options.
//
//	ix, err := repro.Build(ctx, g, q)
//	ix, err := repro.Build(ctx, g, q, repro.WithParallelism(1), repro.WithMetrics(reg))
//
// The preprocessing checks ctx between its phases (dist → cover → kernel →
// starter → skip) and aborts with an error wrapping ctx's error once it is
// canceled or past its deadline — the serving layer uses this to enforce
// per-request build deadlines. Pass context.Background() for an unbounded
// build.
func Build(ctx context.Context, g *Graph, q *Query, opts ...Option) (*Index, error) {
	o := resolveOptions(opts)
	lq, err := q.compile()
	if err != nil {
		return nil, err
	}
	sel, err := SelectEngine(g, o.Engine)
	if err != nil {
		return nil, err
	}
	eng, err := engines[sel.Chosen].preprocess(g, lq, core.Options{Parallelism: o.Parallelism, Obs: o.Metrics, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng, sel: sel, k: lq.K, q: q}, nil
}

func resolveOptions(opts []Option) IndexOptions {
	var o IndexOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// EditOp is one kind of graph mutation; see the Edit constructors.
type EditOp = graph.EditOp

// Edit is one mutation of a colored graph: an edge inserted or deleted, or
// a color added to / removed from a vertex. The vertex set is fixed, so
// vertex ids — and with them every lexicographic guarantee of the
// enumeration layer — are stable across versions.
type Edit = graph.Edit

// Edit operation kinds, re-exported for constructing Edit values directly;
// the constructors below are the more convenient path.
const (
	OpAddEdge     = graph.AddEdge
	OpRemoveEdge  = graph.RemoveEdge
	OpAddColor    = graph.AddColor
	OpRemoveColor = graph.RemoveColor
)

// AddEdge returns the edit inserting the undirected edge {u, v}.
// Inserting a present edge or a self-loop is a no-op.
func AddEdge(u, v int) Edit { return Edit{Op: graph.AddEdge, U: u, V: v} }

// RemoveEdge returns the edit deleting the undirected edge {u, v};
// deleting an absent edge is a no-op.
func RemoveEdge(u, v int) Edit { return Edit{Op: graph.RemoveEdge, U: u, V: v} }

// AddColor returns the edit adding color c to vertex v.
func AddColor(v, c int) Edit { return Edit{Op: graph.AddColor, U: v, Color: c} }

// RemoveColor returns the edit removing color c from vertex v.
func RemoveColor(v, c int) Edit { return Edit{Op: graph.RemoveColor, U: v, Color: c} }

// PatchGraph applies edits to g copy-on-write and returns the edited
// graph; g is unchanged. The result is byte-identical to rebuilding the
// same edge and color sets through a GraphBuilder.
func PatchGraph(g *Graph, edits []Edit) (*Graph, error) { return graph.Patch(g, edits) }

// ApplyEdits returns a new index answering the query over the edited
// graph, recomputing only the structure the edits can reach (the n^ε
// update regime of the paper's §3). On a core index the affected
// distance-index rows, cover bags and kernels, starter slots, and
// per-kernel lists are patched, and skip pointers are served through an
// exact delta overlay; on a lowdeg index the ball rows within reach of an
// edited edge and the starter slots around them are. The receiver is
// unchanged and keeps enumerating its own version with byte-identical
// answers — in-flight iterators over it are undisturbed (MVCC snapshot
// isolation; the serving layer keeps a window of versions per graph).
//
// Edits that are not local (a clause guard flips, the cover refuses to
// patch) transparently fall back to a full rebuild; Stats().MutRebuilds
// counts those. An index built under EngineAuto has its selection made
// again on the edited graph: the new version records the new estimates,
// and when the graph has crossed a limit it is rebuilt on the other engine
// — one more counted rebuild.
func (ix *Index) ApplyEdits(ctx context.Context, edits []Edit) (*Index, error) {
	g, err := graph.Patch(ix.eng.Graph(), edits)
	if err != nil {
		return nil, err
	}
	return ix.ApplyEditsTo(ctx, g, edits)
}

// ApplyEditsTo is ApplyEdits for a caller that keeps the versions of the
// graph itself and holds the edited one already: patched must be
// PatchGraph of the index's graph (or of an equal graph) under edits. The
// graph is then patched once a write, and the new index answers over
// patched itself — Graph() returns that pointer.
func (ix *Index) ApplyEditsTo(ctx context.Context, patched *Graph, edits []Edit) (*Index, error) {
	eng, err := ix.eng.ApplyEditsTo(ctx, patched, edits)
	if err != nil {
		return nil, err
	}
	if eng == ix.eng {
		// The batch netted out to the identity; the index is its own next
		// version.
		return ix, nil
	}
	sel := ix.sel
	if sel.Requested == EngineAuto {
		if sel, err = SelectEngine(eng.Graph(), EngineAuto); err != nil {
			return nil, err
		}
		if sel.Chosen != ix.sel.Chosen {
			if eng, err = ix.eng.RebuiltOn(ctx, eng.Graph(), engines[sel.Chosen].preprocess); err != nil {
				return nil, err
			}
		}
	}
	return &Index{eng: eng, sel: sel, k: ix.k, q: ix.q, version: ix.version + 1}, nil
}

// Graph returns the graph this index version answers over.
func (ix *Index) Graph() *Graph { return ix.eng.Graph() }

// Version returns the index's mutation generation: 0 for a freshly built
// index, incremented by every effective ApplyEdits.
func (ix *Index) Version() int { return ix.version }

// DefaultRetainVersions is how many past versions of a graph a server keeps
// readable behind the head by default: cursors pinned up to that many
// mutations behind it can still be served, older versions answer
// version_gone.
const DefaultRetainVersions = 4
