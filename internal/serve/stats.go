package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strings"

	"repro"
)

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ url.Values) {
	engine := s.cfg.Engine
	if engine == "" {
		engine = repro.EngineCore
	}
	resp := StatsResponse{
		Graphs: make(map[string]GraphStats, len(s.graphs)),
		Cache:  s.cache.Stats(),
		Engine: string(engine),
	}
	// resp.Graphs is a map; the JSON encoder emits its keys sorted.
	for name, gs := range s.graphs {
		gv := gs.Head()
		resp.Graphs[name] = GraphStats{
			N:        gv.g.N(),
			M:        gv.g.M(),
			Colors:   gv.g.NumColors(),
			Version:  gv.version,
			Retained: gs.Retained(),
		}
	}
	s.mu.Lock()
	for _, e := range s.queries {
		qs := QueryStats{
			ID: e.id, Graph: e.graph, Canonical: e.canonical, Arity: e.arity,
		}
		// Peek (never build) at the head index to report which engine backs
		// it and the selection inputs that routed it there.
		gv := s.graphs[e.graph].Head()
		if ix, ok := s.cache.Peek(cacheKey{graph: e.graph, version: gv.version, canonical: e.canonical}); ok {
			sel := ix.Selection()
			qs.Engine = string(ix.Engine())
			qs.Selection = &sel
		}
		resp.Queries = append(resp.Queries, qs)
	}
	s.mu.Unlock()
	sort.Slice(resp.Queries, func(i, j int) bool { return resp.Queries[i].ID < resp.Queries[j].ID })
	if s.reg != nil {
		var b strings.Builder
		if err := s.reg.WriteJSON(&b); err == nil {
			resp.Metrics = json.RawMessage(b.String())
		}
	}
	writeData(w, r, http.StatusOK, resp)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request, _ url.Values) {
	writeData(w, r, http.StatusOK, FlushResponse{Flushed: s.cache.Flush()})
}
