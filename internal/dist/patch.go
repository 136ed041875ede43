package dist

import "repro/internal/graph"

// Patch derives the distance index of the edited graph gNew from ix,
// recomputing only what the edits can reach. sources are the vertices
// whose incident edges changed (edit endpoints); gOld is the graph ix was
// built on. ok=false means the layout cannot be patched locally (the
// recursive splitter layout, or a layout transition such as an edgeless
// graph gaining edges) and the caller must rebuild with New — correctness
// over cleverness, exactly as the budget fallbacks of the builder.
//
// The patchable layouts:
//
//   - smallTable (the bounded-ball fast path — the whole index on grids
//     and bounded-degree graphs): dist_G(x, ·) truncated at R changes only
//     for x within R of a source in the old or new graph, so those rows
//     are recomputed on gNew and the blocks holding them rebuilt
//     (graph.Rows.Patch); every other block is shared. Cost
//     O(Σ_{x∈A} ‖N_R(x)‖) for the affected set A, plus a page of block
//     pointers a dirty block — the paper's n^ε update regime when balls
//     are bounded.
//   - fallback (on-demand BFS): nothing is precomputed; the patched index
//     searches gNew with borrowed scratch.
//
// Color edits never reach this function (distances are color-blind); the
// caller passes only edge-edit endpoints.
func Patch(ix *Index, gOld, gNew *graph.Graph, sources []graph.V) (*Index, bool) {
	if gNew.N() != gOld.N() {
		return nil, false
	}
	switch {
	case ix.fallback:
		return &Index{g: gNew, R: ix.R, fallback: true, stats: ix.stats}, true
	case ix.small != nil:
		if len(sources) == 0 {
			// Color-only mutation batches: distances are untouched; share
			// the table outright.
			out := &Index{g: gNew, R: ix.R, small: ix.small, stats: ix.stats}
			return out, true
		}
		tbl, ok := patchSmallTable(ix.small, gOld, gNew, ix.R, sources)
		if !ok {
			return nil, false
		}
		// The counters a build of gNew would report: the table is the
		// whole index.
		stats := *ix.stats
		stats.TableCells = tbl.cells()
		stats.Work = gNew.Size() + tbl.cells()
		return &Index{g: gNew, R: ix.R, small: tbl, stats: &stats}, true
	case ix.edgeless:
		if gNew.M() == 0 {
			out := &Index{g: gNew, R: ix.R, edgeless: true, stats: ix.stats}
			return out, true
		}
		return nil, false // layout transition: rebuild
	default:
		return nil, false // recursive splitter layout: rebuild
	}
}

// patchSmallTable recomputes the ball rows of every vertex within R of a
// source (in the old or the new graph) and patches them into the table's
// row stores, which share every block without such a vertex with t's;
// through Flat the result is byte-identical to newSmallTable(gNew, R).
func patchSmallTable(t *smallTable, gOld, gNew *graph.Graph, r int, sources []graph.V) (*smallTable, bool) {
	affected := graph.ReachEither(gOld, gNew, sources, r)
	// An edit avalanche touching most rows is no cheaper than a rebuild;
	// bail out and let the caller take the builder path (which also keeps
	// the 24·‖G‖ cell-cap decision of the fast path authoritative).
	if len(affected) > gNew.N()/2 {
		return nil, false
	}
	balls, ds := graph.SortedBallsOf(gNew, r, affected, true)
	return &smallTable{ball: t.ball.Patch(affected, balls), d: t.d.Patch(affected, ds)}, true
}
