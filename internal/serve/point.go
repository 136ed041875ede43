package serve

import (
	"fmt"
	"net/http"
	"net/url"

	"repro"
)

func (s *Server) handleTest(w http.ResponseWriter, r *http.Request, _ url.Values) {
	entry, tuple, ix, ver, ok := s.tupleEndpoint(w, r)
	if !ok {
		return
	}
	writeData(w, r, http.StatusOK, TestResponse{ID: entry.id, Version: ver, Tuple: tuple, Solution: ix.Test(tuple)})
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, _ url.Values) {
	entry, tuple, ix, ver, ok := s.tupleEndpoint(w, r)
	if !ok {
		return
	}
	sol, found := ix.Next(tuple)
	writeData(w, r, http.StatusOK, NextResponse{ID: entry.id, Version: ver, Solution: sol, Found: found})
}

// tupleEndpoint factors the shared decode/validate/index-fetch path of
// /v1/test and /v1/next. Point lookups always answer at the current head
// version (they carry no cursor to pin an older one); the version they
// answered at is returned for the response.
func (s *Server) tupleEndpoint(w http.ResponseWriter, r *http.Request) (*queryEntry, []int, *repro.Index, int, bool) {
	var req TupleRequest
	if !decodeBody(w, r, &req) {
		return nil, nil, nil, 0, false
	}
	entry, ok := s.lookupQuery(req.ID)
	if !ok {
		writeErr(w, r, http.StatusNotFound, ErrUnknownQuery, fmt.Sprintf("query %q is not registered", req.ID))
		return nil, nil, nil, 0, false
	}
	if err := validateTuple(req.Tuple, entry.arity, s.graphs[entry.graph].Head().g.N()); err != nil {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
		return nil, nil, nil, 0, false
	}
	gv, ix, err := s.headIndex(r.Context(), entry)
	if err != nil {
		s.writeCacheErr(w, r, err)
		return nil, nil, nil, 0, false
	}
	return entry, req.Tuple, ix, gv.version, true
}

// handleCount evaluates a counting query `#x̄ φ` at the graph's head
// version. The count itself is served from the index (cached per index
// value — an index is an immutable snapshot of one graph version, so the
// number can never go stale) through the engine's sub-enumeration
// counting path when the query shape supports one, full enumeration
// otherwise; Fast in the response tells the two apart.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, _ url.Values) {
	var req CountRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := req.ID
	if id == "" {
		// Inline registration from the `#x,y: φ` counting form.
		if req.Graph == "" || req.Query == "" {
			writeErr(w, r, http.StatusBadRequest, ErrBadRequest, "id, or graph and a '#vars: formula' query, are required")
			return
		}
		if _, ok := s.graphs[req.Graph]; !ok {
			writeErr(w, r, http.StatusNotFound, ErrUnknownGraph, fmt.Sprintf("graph %q is not loaded", req.Graph))
			return
		}
		q, err := repro.ParseCountQuery(req.Query)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
			return
		}
		if _, err := q.Plan(); err != nil {
			writeErr(w, r, http.StatusBadRequest, ErrBadRequest, err.Error())
			return
		}
		canonical := q.Canonical()
		id = queryID(req.Graph, canonical)
		s.mu.Lock()
		if _, ok := s.queries[id]; !ok {
			s.queries[id] = &queryEntry{id: id, graph: req.Graph, canonical: canonical, q: q, arity: q.Arity()}
		}
		s.mu.Unlock()
	}
	entry, ok := s.lookupQuery(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, ErrUnknownQuery, fmt.Sprintf("query %q is not registered", id))
		return
	}
	gv, ix, err := s.headIndex(r.Context(), entry)
	if err != nil {
		s.writeCacheErr(w, r, err)
		return
	}
	sp := s.reg.StartSpan(r.Context(), "count.eval")
	n, fast, err := ix.SolutionCountCtx(r.Context())
	sp.End()
	if err != nil {
		s.writeCacheErr(w, r, err)
		return
	}
	writeData(w, r, http.StatusOK, CountResponse{
		ID:      entry.id,
		Version: gv.version,
		Count:   n,
		Fast:    fast,
		Engine:  string(ix.Engine()),
	})
}
