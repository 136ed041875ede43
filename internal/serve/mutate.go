package serve

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/url"

	"repro"
	"repro/internal/graph"
)

// handleMutate applies one edit batch to a graph and publishes the
// resulting version. The mutation itself is O(patched graph) — indexes
// over the new version are derived lazily, on first request, from
// resident older versions through the incremental ApplyEdits path (see
// buildIndex), so a mutation's cost is never multiplied by the number of
// registered queries up front.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, _ url.Values) {
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Graph == "" || len(req.Edits) == 0 {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, "graph and a non-empty edits batch are required")
		return
	}
	gs, ok := s.graphs[req.Graph]
	if !ok {
		writeErr(w, r, http.StatusNotFound, ErrUnknownGraph, fmt.Sprintf("graph %q is not loaded", req.Graph))
		return
	}
	edits := make([]repro.Edit, len(req.Edits))
	for i, spec := range req.Edits {
		op, err := graph.ParseEditOp(spec.Op)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, ErrBadRequest,
				fmt.Sprintf("edit %d: unknown op %q (want add_edge, remove_edge, add_color or remove_color)", i, spec.Op))
			return
		}
		edits[i] = repro.Edit{Op: op, U: spec.U, V: spec.V, Color: spec.Color}
	}
	sp := s.reg.StartSpan(r.Context(), "mutate.publish")
	gv, noop, err := gs.Mutate(edits)
	sp.End()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
		return
	}
	if !noop {
		s.logEvent(r.Context(), slog.LevelInfo, "graph_mutate",
			slog.String("graph", req.Graph),
			slog.Int("version", gv.version),
			slog.Int("edits", len(edits)))
	}
	writeData(w, r, http.StatusOK, MutateResponse{
		Graph:   req.Graph,
		Version: gv.version,
		Applied: len(edits),
		NoOp:    noop,
		N:       gv.g.N(),
		M:       gv.g.M(),
	})
}
