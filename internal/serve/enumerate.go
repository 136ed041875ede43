package serve

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro"
)

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request, qs url.Values) {
	id := qs.Get("query")
	cursor := qs.Get("cursor")

	var start []int
	version := cursorHead
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

	var ix *repro.Index
	var err error
	if version == cursorHead {
		gv, ix, err = s.headIndex(r.Context(), entry)
	} else {
		ix, _, err = s.cache.Get(r.Context(), cacheKey{graph: entry.graph, version: gv.version, canonical: entry.canonical})
	}
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
	var skip []int
	if cursor != "" {
		skip = start // the page before ended with the cursor's tuple
	}
	h := pageHeader{id: entry.id, version: gv.version, limit: limit, traceID: traceIDFrom(r)}
	page, err := scanPage(ctx, make([]byte, 0, pageCap(h, entry.arity, gv.g.N())), it, skip, h)
	sp.End()
	if err != nil {
		s.writeCacheErr(w, r, err)
		return
	}
	writeBody(w, http.StatusOK, page)
}

// The page writer. scanPage appends one /v1/enumerate response to b as the
// tuples leave the iterator — no [][]int, no per-answer allocation, no
// reflection — and the bytes are exactly what json.Encoder writes for
// envelope{Data: EnumerateResponse{...}} (TestCursorPagingDifferential
// compares every page it reads against that encoder). The page is built
// whole before anything is sent: the deadline is polled every 64 answers,
// and a page abandoned half-way must still be answered with a typed error
// envelope, which a body already flushing in chunks could not take back.
//
// A page is written into one buffer of its own, allocated by pageCap at
// the size the page can reach, and not into a pooled one: a pooled page
// buffer stays reachable through one collection after its request, so the
// live heap a collection finds would count it or not by when the
// collections fell.

// pageHeader is what a page says besides its rows.
type pageHeader struct {
	id      string
	version int
	limit   int
	traceID string
}

// maxPageAlloc is the most pageCap allocates ahead of the scan. A page
// that can be larger (a limit far above the default MaxLimit) grows as it
// fills, so a large limit costs memory only in the answers it gets.
const maxPageAlloc = 1 << 20

// pageCap is the capacity of a page of at most h.limit tuples of arity
// vertex ids below n, up to maxPageAlloc: each row at its widest, the
// cursor at its longest and the rest of the envelope. Query and trace ids
// that need no escaping are assumed; one that does grows the buffer.
func pageCap(h pageHeader, arity, n int) int {
	const frame = len(`{"data":{"id":"","version":,"solutions":[],"count":,"limit":,"next_cursor":"","done":false},"trace_id":""}` + "\n")
	cell := digits(max(n-1, 0)) + 1 // a vertex id and the separator after it
	row := arity*cell + 2           // and "[" and the comma before the row
	cursor := base64.RawURLEncoding.EncodedLen(len(cursorV2) + 1 + len(h.id) + 1 + digits(h.version) + arity*cell)
	fixed := frame + len(h.id) + digits(h.version) + 2*digits(h.limit) + cursor + len(h.traceID)
	return fixed + min(h.limit, max(maxPageAlloc-fixed, 0)/row)*row
}

// digits is the number of decimal digits of v ≥ 0.
func digits(v int) int {
	d := 1
	for ; v >= 10; v /= 10 {
		d++
	}
	return d
}

// scanPage returns the page appended to b, or the error that abandoned it.
// A first answer equal to skip (nil: none) is dropped.
func scanPage(ctx context.Context, b []byte, it repro.Cursor, skip []int, h pageHeader) ([]byte, error) {
	b = append(b, `{"data":{"id":`...)
	b = appendJSONString(b, h.id)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(h.version), 10)
	b = append(b, `,"solutions":[`...)

	count := 0
	var last []int
	for count < h.limit {
		if count%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sol, ok := it.Next()
		if !ok {
			break
		}
		if skip != nil {
			dup := tupleEqual(sol, skip)
			skip = nil
			if dup {
				continue // the cursor tuple itself was already served
			}
		}
		b = appendRow(b, sol, count == 0)
		last = sol
		count++
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"limit":`...)
	b = strconv.AppendInt(b, int64(h.limit), 10)
	// last is the iterator's buffer, good until the next Next or Seek;
	// HasNext is neither.
	done := !it.HasNext()
	if !done && count > 0 {
		b = append(b, `,"next_cursor":"`...)
		b = appendCursor(b, h.id, h.version, last) // base64url: no escapes
		b = append(b, '"')
	}
	b = append(b, `,"done":`...)
	b = strconv.AppendBool(b, done)
	b = append(b, '}')
	if h.traceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendJSONString(b, h.traceID)
	}
	return append(b, "}\n"...), nil
}

// appendRow appends one tuple as an element of the "solutions" array. It
// runs once per answer, next to Iterator.Next, and is held to the same
// rules.
//
//fod:hotpath
func appendRow(b []byte, sol []int, first bool) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, '[')
	for i, v := range sol {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ']')
	return b
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
