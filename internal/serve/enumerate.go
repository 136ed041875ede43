package serve

import (
	"fmt"
	"net/http"
	"strconv"
)

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	id := qs.Get("query")
	cursor := qs.Get("cursor")

	var start []int
	version := cursorHead
	skipFirst := false
	if cursor != "" {
		cid, cver, last, err := decodeCursor(cursor)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, ErrInvalidCursor, err.Error())
			return
		}
		if id != "" && id != cid {
			writeErr(w, r, http.StatusBadRequest, ErrInvalidCursor, "cursor belongs to a different query")
			return
		}
		id = cid
		version = cver
		start = last
		skipFirst = true
	}
	if id == "" {
		writeErr(w, r, http.StatusBadRequest, ErrBadRequest, "query or cursor is required")
		return
	}
	entry, ok := s.lookupQuery(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, ErrUnknownQuery, fmt.Sprintf("query %q is not registered", id))
		return
	}
	// A fresh enumeration (or a legacy v1 cursor) reads the current head;
	// a v2 cursor stays pinned to the version its stream started on, for
	// one consistent snapshot across pages — 410 once that version has
	// been garbage-collected.
	gs := s.graphs[entry.graph]
	var gv *graphVersion
	if version == cursorHead {
		gv = gs.Head()
	} else if gv, ok = gs.At(version); !ok {
		writeErr(w, r, http.StatusGone, ErrVersionGone,
			fmt.Sprintf("version %d of graph %q is no longer retained; restart the enumeration without a cursor", version, entry.graph))
		return
	}
	if start == nil {
		start = make([]int, entry.arity)
	} else if err := validateTuple(start, entry.arity, gv.g.N()); err != nil {
		writeErr(w, r, http.StatusBadRequest, ErrInvalidCursor, err.Error())
		return
	}

	limit := s.cfg.DefaultLimit
	if v := qs.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, ErrBadRequest, fmt.Sprintf("bad limit %q", v))
			return
		}
		if n > 0 {
			limit = n
		}
	}
	if limit > s.cfg.MaxLimit {
		limit = s.cfg.MaxLimit // cap, don't error: the cursor loses nothing
	}

	ix, _, err := s.cache.Get(r.Context(), cacheKey{graph: entry.graph, version: gv.version, canonical: entry.canonical})
	if err != nil {
		s.writeCacheErr(w, r, err)
		return
	}

	// Two spans, matching the paper's split: the O(1) cursor resume (Seek
	// Lemma / NextGeq positioning) and the constant-delay page scan.
	ctx := r.Context()
	sp := s.reg.StartSpan(ctx, "enumerate.resume")
	it := ix.IteratorFrom(start)
	sp.End()
	sp = s.reg.StartSpan(ctx, "enumerate.scan")
	sols := make([][]int, 0, min(limit, 1024))
	for len(sols) < limit {
		if len(sols)%64 == 0 && ctx.Err() != nil {
			sp.End()
			s.writeCacheErr(w, r, ctx.Err())
			return
		}
		sol, ok := it.Next()
		if !ok {
			break
		}
		if skipFirst {
			skipFirst = false
			if tupleEqual(sol, start) {
				continue // the cursor tuple itself was already served
			}
		}
		// The iterator reuses its buffer across Next calls; copy.
		cp := make([]int, len(sol))
		copy(cp, sol)
		sols = append(sols, cp)
	}
	sp.End()

	resp := EnumerateResponse{
		ID:        entry.id,
		Version:   gv.version,
		Solutions: sols,
		Count:     len(sols),
		Limit:     limit,
		Done:      !it.HasNext(),
	}
	if !resp.Done && len(sols) > 0 {
		resp.NextCursor = encodeCursor(entry.id, gv.version, sols[len(sols)-1])
	}
	writeData(w, r, http.StatusOK, resp)
}

func tupleEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
